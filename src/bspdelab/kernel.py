"""Anisotropic Gaussian heat potential, its derivatives, and numerical probes.

The kernel is

    G(t, s, x) = e^{-beta (s-t)} (4 pi)^{-n/2} det(A)^{-1/2}
                 exp(-(A^{-1} x, x) / 4),      A = integral_t^s a(r) dr,

with a(t) a symmetric uniformly elliptic matrix that may depend on time but
not on space.  Spatial derivatives up to third order are available in closed
(Hermite-polynomial) form.  The probe routines estimate the constants of the
classical kernel-integral bounds empirically; the constants are *reported*,
never asserted against theoretical values, since the theory only guarantees
their existence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import IllConditionedKernel, InvalidArgument, InvalidInterval, UnsupportedOrder
from .grid import MultiIndex, SpaceGrid, space_quadrature_weights

_COND_LIMIT = 1e12


@lru_cache(maxsize=None)
def _gl(num: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(num)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class DiffusionCoefficient:
    """Space-invariant diffusion matrix a(t) with ellipticity bounds.

    ``fn(t)`` must return a symmetric (n, n) matrix satisfying
    lam |xi|^2 <= (a(t) xi, xi) <= Lam |xi|^2.
    """

    fn: Callable[[float], np.ndarray]
    dim: int
    lam: float
    Lam: float
    label: str = "a"

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise InvalidArgument("need 0 < lam <= Lam")

    def __call__(self, t: float) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.fn(t), dtype=float))

    @classmethod
    def constant(cls, matrix, lam=None, Lam=None, label="const"):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        eig = np.linalg.eigvalsh(m)
        return cls(
            fn=lambda t, _m=m: _m,
            dim=m.shape[0],
            lam=lam if lam is not None else float(eig.min()),
            Lam=Lam if Lam is not None else float(eig.max()),
            label=label,
        )

    @classmethod
    def isotropic(cls, value: float, dim: int = 1, label=None):
        return cls.constant(
            value * np.eye(dim), label=label or f"{value}*I"
        )

    @classmethod
    def time_scaled(cls, scale_fn, dim=1, lam=None, Lam=None, label="scaled"):
        """a(t) = scale_fn(t) * I with a scalar positive scale."""
        if lam is None or Lam is None:
            probe = [float(scale_fn(t)) for t in np.linspace(0, 1, 33)]
            lam = lam if lam is not None else min(probe)
            Lam = Lam if Lam is not None else max(probe)
        return cls(
            fn=lambda t: float(scale_fn(t)) * np.eye(dim),
            dim=dim, lam=lam, Lam=Lam, label=label,
        )

    def check_ellipticity(self, times, num_directions=32, seed=0):
        """Verify lam |xi|^2 <= (a xi, xi) <= Lam |xi|^2 on a direction sample."""
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((num_directions, self.dim))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        tol = 1e-10
        for t in np.atleast_1d(times):
            a = self(t)
            q = np.einsum("ki,ij,kj->k", xi, a, xi)
            if np.any(q < self.lam - tol) or np.any(q > self.Lam + tol):
                raise InvalidArgument(
                    f"ellipticity bounds [{self.lam}, {self.Lam}] violated at t={t}"
                )
        return True


class HeatKernel:
    """The heat potential with optional exponential damping in s - t."""

    def __init__(self, diffusion: DiffusionCoefficient, beta: float = 0.0,
                 horizon: float = 1.0, quad_nodes: int = 16, table_size: int = 2048):
        if beta < 0.0:
            raise InvalidArgument("damping beta must be >= 0")
        self.diffusion = diffusion
        self.beta = float(beta)
        self.horizon = float(horizon)
        self.quad_nodes = quad_nodes
        self._table_size = table_size
        self._table = None  # lazy antiderivative table for batched queries

    @property
    def dim(self) -> int:
        return self.diffusion.dim

    def with_beta(self, beta: float) -> "HeatKernel":
        return HeatKernel(self.diffusion, beta=beta, horizon=self.horizon,
                          quad_nodes=self.quad_nodes, table_size=self._table_size)

    # -- accumulated covariance -------------------------------------------

    def covariance(self, t: float, s: float) -> np.ndarray:
        """A = integral_t^s a(r) dr by Gauss-Legendre (exact for polynomial a)."""
        if s < t:
            raise InvalidInterval(f"need t <= s, got t={t}, s={s}")
        if s == t:
            return np.zeros((self.dim, self.dim))
        nodes, weights = _gl(self.quad_nodes)
        out = np.zeros((self.dim, self.dim))
        for u, w in zip(nodes, weights):
            out += w * self.diffusion(t + (s - t) * u)
        return (s - t) * out

    def _antiderivative_table(self):
        if self._table is None:
            grid = np.linspace(0.0, self.horizon, self._table_size + 1)
            vals = np.zeros((self._table_size + 1, self.dim, self.dim))
            for k in range(self._table_size):
                vals[k + 1] = vals[k] + self.covariance(grid[k], grid[k + 1])
            self._table = (grid, vals)
        return self._table

    def covariance_pairs(self, t_arr: np.ndarray, s_arr: np.ndarray) -> np.ndarray:
        """A_{s_i, t_i} for paired endpoint vectors; linear interpolation of the
        antiderivative of a (error O((T/table)^2), negligible at desk scale)."""
        grid, vals = self._antiderivative_table()
        t_arr = np.asarray(t_arr, dtype=float)
        s_arr = np.asarray(s_arr, dtype=float)
        if np.any(s_arr - t_arr < -1e-12):
            raise InvalidInterval("pair endpoints must satisfy t <= s")

        def interp(tq):
            tq = np.clip(tq, 0.0, self.horizon)
            idx = np.clip(np.searchsorted(grid, tq) - 1, 0, len(grid) - 2)
            frac = (tq - grid[idx]) / (grid[idx + 1] - grid[idx])
            return vals[idx] + frac[..., None, None] * (vals[idx + 1] - vals[idx])

        return interp(s_arr) - interp(t_arr)

    # -- evaluation --------------------------------------------------------

    def _prep(self, A):
        det = np.linalg.det(A)
        if np.any(det <= 0.0):
            raise InvalidInterval("covariance matrix not positive definite (is s > t?)")
        cond = np.linalg.cond(A)
        if np.any(cond > _COND_LIMIT):
            raise IllConditionedKernel(
                f"covariance condition number {np.max(cond):.3g} exceeds {_COND_LIMIT:.0e}"
            )
        return det, np.linalg.inv(A)

    def __call__(self, t: float, s: float, x) -> np.ndarray:
        """Kernel value at displacement x (trailing axis of length n)."""
        if s <= t:
            raise InvalidInterval(f"need s > t, got t={t}, s={s}")
        A = self.covariance(t, s)
        det, Ainv = self._prep(A)
        return self._eval_given(det, Ainv, s - t, np.asarray(x, dtype=float))

    def _eval_given(self, det, Ainv, gap, x):
        x = np.atleast_1d(x)
        if x.shape[-1] != self.dim:
            if self.dim == 1:
                x = x[..., None]
            else:
                raise InvalidArgument("trailing axis of x must have length n")
        w = np.einsum("...i,...ij->...j", x, Ainv)
        quad = np.einsum("...i,...i->...", x, w)
        coeff = np.exp(-self.beta * gap) * (4.0 * np.pi) ** (-self.dim / 2.0) / np.sqrt(det)
        return coeff * np.exp(-0.25 * quad)

    def derivative(self, t: float, s: float, x, gamma: MultiIndex) -> np.ndarray:
        """D^gamma G by the explicit Gaussian-derivative formulas, |gamma| <= 3."""
        if s <= t:
            raise InvalidInterval(f"need s > t, got t={t}, s={s}")
        if gamma.order > 3:
            raise UnsupportedOrder(f"kernel derivatives support |gamma| <= 3, got {gamma.order}")
        A = self.covariance(t, s)
        det, Ainv = self._prep(A)
        return self._derivative_given(det, Ainv, s - t, np.asarray(x, dtype=float), gamma)

    def _derivative_given(self, det, Ainv, gap, x, gamma: MultiIndex):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            if self.dim == 1:
                x = x[..., None]
            else:
                raise InvalidArgument("trailing axis of x must have length n")
        G = self._eval_given(det, Ainv, gap, x)
        axes = gamma.axes()
        if not axes:
            return G
        w = np.einsum("...i,...ij->...j", x, Ainv)
        if len(axes) == 1:
            (i,) = axes
            return -0.5 * w[..., i] * G
        Ainv_b = np.broadcast_to(Ainv, x.shape[:-1] + Ainv.shape[-2:]) \
            if Ainv.ndim == 2 else Ainv
        if len(axes) == 2:
            i, j = axes
            return (0.25 * w[..., i] * w[..., j] - 0.5 * Ainv_b[..., i, j]) * G
        i, j, k = axes
        poly = 0.25 * (
            Ainv_b[..., i, j] * w[..., k]
            + Ainv_b[..., i, k] * w[..., j]
            + Ainv_b[..., j, k] * w[..., i]
        ) - 0.125 * w[..., i] * w[..., j] * w[..., k]
        return poly * G

    def derivative_time_profile(self, s: float, t_arr, x, gamma: MultiIndex):
        """D^gamma G_{s,t}(x) over a vector of left endpoints t (fixed s, x).

        Uses the interpolated covariance table; intended for the probe sweeps
        where thousands of (s - t) gaps are visited.
        """
        t_arr = np.asarray(t_arr, dtype=float)
        A = self.covariance_pairs(t_arr, np.full_like(t_arr, s))
        det, Ainv = self._prep(A)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 1 and x.shape[-1] == self.dim:
            xb = np.broadcast_to(x, t_arr.shape + (self.dim,))
        else:
            xb = x
        return self._derivative_given(det, Ainv, s - t_arr, xb, gamma)


# -- singular time quadrature ---------------------------------------------

def singular_time_quadrature(fn, tau: float, s: float, power: float, num: int = 48):
    """integral_tau^s fn(t) dt where fn(t) ~ (s - t)^power near t = s.

    Substitutes v = (s - t)^(1 + power) so the transformed integrand is
    bounded, then applies Gauss-Legendre.  Requires power > -1.
    """
    if power <= -1.0:
        raise InvalidArgument("time singularity must be integrable (power > -1)")
    p = 1.0 + power
    v_max = (s - tau) ** p
    nodes, weights = _gl(num)
    v = v_max * nodes
    gap = v ** (1.0 / p)
    t_vals = s - gap
    jac = (v_max / p) * v ** (1.0 / p - 1.0)
    vals = np.array([fn(t) for t in t_vals])
    out = np.tensordot(weights * jac, vals, axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


# -- probe reports ---------------------------------------------------------

@dataclass
class KernelConstantReport:
    """Empirical constant of one kernel-integral estimate."""

    estimate_id: str
    gamma: tuple
    alpha: float | None
    beta: float
    empirical_C: float
    levels: list = field(default_factory=list)
    decay_c: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def stable(self) -> bool:
        vals = [lv["value"] for lv in self.levels if np.isfinite(lv["value"]) and lv["value"] > 0]
        if len(vals) < 2:
            return np.isfinite(self.empirical_C)
        return max(vals) / min(vals) <= 1.3

    def to_json(self) -> str:
        payload = {
            "estimate_id": self.estimate_id,
            "gamma": list(self.gamma),
            "alpha": self.alpha,
            "beta": self.beta,
            "levels": self.levels,
            "empirical_C": self.empirical_C,
        }
        if self.decay_c is not None:
            payload["decay_c"] = self.decay_c
        if self.extras:
            payload["extras"] = self.extras
        return json.dumps(payload, sort_keys=True)


def _safe_ratio(num, den):
    """num / den with the Gaussian-underflow 0/0 resolved to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out = np.where((den == 0.0) & (num == 0.0), 0.0, out)
    return np.where(np.isnan(out), np.inf, out)


def _probe_points(dim: int, max_radius: float, count: int) -> np.ndarray:
    radii = np.linspace(0.0, max_radius, count)
    if dim == 1:
        pts = np.concatenate([-radii[::-1], radii[1:]])[:, None]
        return pts
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return (radii[:, None, None] * dirs[None]).reshape(-1, dim)


def probe_pointwise_bound(kernel: HeatKernel, gamma: MultiIndex,
                          time_gaps=None, max_radius: float = 6.0,
                          decay_c: float = 0.125,
                          levels=(25, 49)) -> KernelConstantReport:
    """Smallest C with |D^gamma G| <= C (s-t)^{-(n+|g|)/2} exp(-c |x|^2/(s-t)).

    The decay rate c is fixed (default 1/8, strictly interior to (0, 1/4));
    the report also records whether the boundary rate c = 1/4 is usable for
    this diffusion (it generally is not once the kernel is anisotropic or
    carries derivative prefactors).
    """
    if gamma.order > 3:
        raise UnsupportedOrder("pointwise bound probes support |gamma| <= 3")
    if not (0.0 < decay_c < 0.25):
        raise InvalidArgument("decay rate c must lie in (0, 1/4)")
    T = kernel.horizon
    if time_gaps is None:
        time_gaps = np.geomspace(T / 256.0, T, 9)
    n, g = kernel.dim, gamma.order

    def level_C(count):
        pts = _probe_points(n, max_radius, count)
        r2 = np.sum(pts**2, axis=-1)
        best = 0.0
        for gap in time_gaps:
            vals = np.abs(kernel.derivative(0.0, gap, pts, gamma))
            bound = gap ** (-(n + g) / 2.0) * np.exp(-decay_c * r2 / gap)
            best = max(best, float(np.max(_safe_ratio(vals, bound))))
        return best

    report_levels = [{"points": c, "value": level_C(c)} for c in levels]
    C = report_levels[-1]["value"]

    # boundary-rate check: with c = 1/4 the ratio must stay bounded along the
    # probe radii for the rate to be admissible
    pts = _probe_points(n, max_radius, levels[-1])
    r2 = np.sum(pts**2, axis=-1)
    gap = float(np.max(time_gaps))  # largest gap keeps the ratio out of underflow
    vals = np.abs(kernel.derivative(0.0, gap, pts, gamma))
    ratio = _safe_ratio(vals, gap ** (-(n + g) / 2.0) * np.exp(-0.25 * r2 / gap))
    r2_max = np.max(r2)
    far = np.max(ratio[r2 >= r2_max - 1e-9])
    mid = np.max(ratio[(r2 >= 0.2 * r2_max) & (r2 <= 0.3 * r2_max)])
    boundary_usable = bool(far <= 10.0 * max(mid, 1e-300))

    return KernelConstantReport(
        estimate_id="pointwise_bound",
        gamma=gamma.components,
        alpha=None,
        beta=kernel.beta,
        empirical_C=C,
        levels=report_levels,
        decay_c=decay_c,
        extras={"boundary_rate_usable": boundary_usable},
    )


def _moment_integrand(kernel, s, unit_nodes, unit_weights, gamma, alpha):
    """t -> integral |D^gamma G_{s,t}(x)| |x|^alpha dx.

    The lattice is given in self-similar coordinates y = x / sqrt(s - t) and
    rescaled per evaluation, so the spatial resolution relative to the kernel
    width is uniform down to s - t -> 0 (a fixed lattice would silently drop
    the short-time singularity once the kernel is narrower than its spacing).
    """
    n = kernel.dim

    def m(t):
        scale = np.sqrt(s - t)
        x = unit_nodes * scale
        vals = np.abs(kernel.derivative(t, s, x, gamma))
        r = np.linalg.norm(x, axis=-1) ** alpha
        return float(np.sum(unit_weights * scale**n * vals * r))

    return m


def _ball_grid(dim: int, radius: float, per_axis: int):
    g = SpaceGrid(dim=dim, radius=radius, points_per_axis=per_axis)
    nodes = g.nodes()
    weights = space_quadrature_weights(g).ravel()
    return nodes, weights


def _graded_time_integral(kernel, s, x, gamma, alpha_weight, scale, num=120):
    """integral_0^s |D^gamma G_{s,t}(x)| dt with the peak at s - t ~ |x|^2
    resolved by a geometric grid in u = sqrt(s - t)."""
    u_min = max(scale / 40.0, np.sqrt(s) * 1e-7)
    u = np.geomspace(u_min, np.sqrt(s), num)
    t_vals = s - u**2
    vals = np.abs(kernel.derivative_time_profile(s, t_vals, x, gamma))
    integrand = vals * 2.0 * u  # dt = 2 u du
    return float(np.trapezoid(integrand, u))


def probe_integral_estimates(kernel: HeatKernel, gamma: MultiIndex, alpha: float,
                             grid: SpaceGrid | None = None,
                             etas=(0.5, 0.25, 0.125),
                             betas=(1.0, 4.0, 16.0, 64.0),
                             refine: int = 2) -> dict:
    """Empirical constants for the kernel-integral estimate family.

    Returns a dict of reports keyed by estimate id:
      moment_bound        space-time moment integral of |D^g G| |x|^alpha
      tail_cancellation   time integral of the exterior-ball cancellation
      small_ball          small-ball moment, reported as LHS / eta^alpha
      shifted_difference  two-point kernel difference, LHS / eta^alpha
      beta_damped_moment  damped moment integral across a beta sweep
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidArgument("alpha must lie in (0, 1)")
    n, g = kernel.dim, gamma.order
    T = kernel.horizon
    if grid is None:
        R = 1.0 + 6.0 * np.sqrt(2.0 * kernel.diffusion.Lam * T)
        per_axis = 257 if n == 1 else 97
        grid = SpaceGrid(dim=n, radius=R, points_per_axis=per_axis)
    reports = {}

    tau_s_pairs = [(0.0, T), (0.0, T / 2.0), (T / 4.0, T)]
    power = (alpha - g) / 2.0
    unit_R = 8.0 * np.sqrt(2.0 * kernel.diffusion.Lam)

    # (2.4)-type moment bound
    levels = []
    for lev in range(refine):
        J = grid.points_per_axis if lev == 0 else 2 * grid.points_per_axis - 1
        gl = SpaceGrid(grid.dim, unit_R, J)
        nodes, weights = gl.nodes(), space_quadrature_weights(gl).ravel()
        best = 0.0
        for tau, s in tau_s_pairs:
            m = _moment_integrand(kernel, s, nodes, weights, gamma, alpha)
            best = max(best, singular_time_quadrature(m, tau, s, power))
        levels.append({"points": J, "value": best})
    reports["moment_bound"] = KernelConstantReport(
        "moment_bound", gamma.components, alpha, kernel.beta,
        empirical_C=levels[-1]["value"], levels=levels)

    if g == 2:
        # exterior-ball cancellation (finite thanks to integral D^g G = 0)
        radii = [0.25, 0.5, 1.0, 2.0, grid.radius * 2.0]
        levels = []
        for lev in range(refine):
            J = grid.points_per_axis if lev == 0 else 2 * grid.points_per_axis - 1
            gl = SpaceGrid(grid.dim, grid.radius, J)
            nodes, weights = gl.nodes(), space_quadrature_weights(gl).ravel()
            rad = np.linalg.norm(nodes, axis=-1)
            best = 0.0
            for a_rad in radii:
                mask = rad >= a_rad
                if not np.any(mask):
                    continue

                def inner(t, _mask=mask):
                    vals = kernel.derivative(t, s, nodes[_mask], gamma)
                    return abs(float(np.sum(weights[_mask] * vals)))

                for tau, s in tau_s_pairs:
                    best = max(best, singular_time_quadrature(inner, tau, s, -0.5))
            levels.append({"points": J, "value": best})
        reports["tail_cancellation"] = KernelConstantReport(
            "tail_cancellation", gamma.components, alpha, kernel.beta,
            empirical_C=levels[-1]["value"], levels=levels)

        # small-ball moment: LHS(eta) <= C eta^alpha
        levels = []
        for eta in etas:
            nodes, weights = _ball_grid(n, eta, 161 if n == 1 else 41)
            rad = np.linalg.norm(nodes, axis=-1)
            mask = rad <= eta + 1e-12
            total = 0.0
            for x, w, r in zip(nodes[mask], weights[mask], rad[mask]):
                if r == 0.0:
                    continue
                t_int = max(
                    _graded_time_integral(kernel, s_val, x, gamma, alpha, r)
                    for s_val in (T / 4.0, T)
                )
                total += w * t_int * r**alpha
            levels.append({"eta": eta, "value": total / eta**alpha})
        reports["small_ball"] = KernelConstantReport(
            "small_ball", gamma.components, alpha, kernel.beta,
            empirical_C=max(lv["value"] for lv in levels), levels=levels)

        # two-point difference outside the ball of radius eta = 2 |x - xbar|
        levels = []
        for sep in (0.125, 0.25):
            x0 = np.zeros(n)
            xbar = np.zeros(n)
            xbar[0] = sep
            eta = 2.0 * sep
            R_out = grid.radius
            nodes, weights = _ball_grid(n, R_out, 321 if n == 1 else 49)
            rad0 = np.linalg.norm(nodes - x0, axis=-1)
            mask = rad0 > eta
            total = 0.0
            for y, w in zip(nodes[mask], weights[mask]):
                scale = np.linalg.norm(x0 - y)
                t_int = max(
                    _graded_diff_time_integral(kernel, s_val, x0 - y, xbar - y, gamma, scale)
                    for s_val in (T,)
                )
                total += w * t_int * np.linalg.norm(xbar - y) ** alpha
            levels.append({"eta": eta, "value": total / eta**alpha})
        reports["shifted_difference"] = KernelConstantReport(
            "shifted_difference", gamma.components, alpha, kernel.beta,
            empirical_C=max(lv["value"] for lv in levels), levels=levels)

    # beta-damped moment integral with the predicted beta power
    gl = SpaceGrid(grid.dim, unit_R, grid.points_per_axis)
    nodes, weights = gl.nodes(), space_quadrature_weights(gl).ravel()
    predicted = -1.0 + (g - alpha) / 2.0
    raw = []
    for b in betas:
        kb = kernel.with_beta(b)
        m = _moment_integrand(kb, T, nodes, weights, gamma, alpha)
        raw.append(singular_time_quadrature(m, 0.0, T, power, num=64))
    fitted = float(np.polyfit(np.log(np.asarray(betas)), np.log(np.asarray(raw)), 1)[0])
    levels = [
        {"beta": b, "value": v * b ** (-predicted)} for b, v in zip(betas, raw)
    ]
    reports["beta_damped_moment"] = KernelConstantReport(
        "beta_damped_moment", gamma.components, alpha, kernel.beta,
        empirical_C=max(lv["value"] for lv in levels), levels=levels,
        extras={"fitted_exponent": fitted, "predicted_exponent": predicted})

    return reports


def _graded_diff_time_integral(kernel, s, x1, x2, gamma, scale, num=120):
    u_min = max(scale / 40.0, np.sqrt(s) * 1e-7)
    u = np.geomspace(u_min, np.sqrt(s), num)
    t_vals = s - u**2
    v1 = kernel.derivative_time_profile(s, t_vals, x1, gamma)
    v2 = kernel.derivative_time_profile(s, t_vals, x2, gamma)
    integrand = np.abs(v1 - v2) * 2.0 * u
    return float(np.trapezoid(integrand, u))


@dataclass
class SupKernelProbe:
    value: float
    alpha: float
    window: float
    warning: str | None = None


def probe_sup_kernel_integrability(kernel: HeatKernel, alpha: float, window: float,
                                   grid: SpaceGrid | None = None,
                                   t: float = 0.0, num_r: int = 240) -> SupKernelProbe:
    """integral sup_{r in [t, t+window]} G_{r,t}(y) |y|^{2 alpha} dy on the grid.

    The integral is finite only because the sup is taken *after* the moment
    weight tames the short-time concentration; windows beyond T/4 leave the
    regime the estimate is proved in and are flagged, not rejected.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidArgument("alpha must lie in (0, 1)")
    warning = None
    if window > kernel.horizon / 4.0 + 1e-12:
        warning = "window exceeds T/4; outside the lemma's proof regime"
    if grid is None:
        R = 1.0 + 6.0 * np.sqrt(2.0 * kernel.diffusion.Lam * kernel.horizon)
        grid = SpaceGrid(kernel.dim, R, 257 if kernel.dim == 1 else 97)
    nodes = grid.nodes()
    weights = space_quadrature_weights(grid).ravel()
    rad = np.linalg.norm(nodes, axis=-1)

    gaps = np.geomspace(window * 1e-6, window, num_r)
    sup_vals = np.zeros(len(nodes))
    for gap in gaps:
        A = kernel.covariance(t, t + gap)
        det, Ainv = kernel._prep(A)
        vals = kernel._eval_given(det, Ainv, gap, nodes)
        np.maximum(sup_vals, vals, out=sup_vals)
    mask = rad > 0
    value = float(np.sum(weights[mask] * sup_vals[mask] * rad[mask] ** (2.0 * alpha)))
    return SupKernelProbe(value=value, alpha=alpha, window=window, warning=warning)
