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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import IllConditionedKernel, InvalidArgument, InvalidInterval, UnsupportedOrder
from .grid import MultiIndex, SpaceGrid, space_quadrature_weights

_COND_LIMIT = 1e12
_COV_NODES = 16  # Gauss-Legendre nodes of one covariance integral
_TABLE_SIZE = 2048  # intervals of the antiderivative table on [0, horizon]


@lru_cache(maxsize=None)
def _gl(num: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(num)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class DiffusionCoefficient:
    """Space-invariant diffusion matrix a(t) with ellipticity bounds.

    ``fn(t)`` takes an array of times and returns one symmetric (n, n)
    matrix per time (shape ``t.shape + (n, n)``), or one matrix for all of
    them, satisfying lam |xi|^2 <= (a(t) xi, xi) <= Lam |xi|^2.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise InvalidArgument("need 0 < lam <= Lam")

    def __call__(self, t) -> np.ndarray:
        """a at the times t, shape ``t.shape + (n, n)``."""
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.asarray(self.fn(t), dtype=float),
                               t.shape + (self.dim, self.dim))

    @classmethod
    def constant(cls, matrix):
        """a(t) = matrix, bounded by its extreme eigenvalues."""
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        eig = np.linalg.eigvalsh(m)
        return cls(fn=lambda t, _m=m: _m, dim=m.shape[0],
                   lam=float(eig.min()), Lam=float(eig.max()))

    @classmethod
    def isotropic(cls, value: float, dim: int = 1):
        return cls.constant(value * np.eye(dim))

    @classmethod
    def time_scaled(cls, scale_fn, dim=1, *, lam: float, Lam: float):
        """a(t) = scale_fn(t) * I with a scalar positive scale bounded by
        [lam, Lam] over the horizon; ``scale_fn`` takes an array of times."""
        return cls(fn=lambda t: np.multiply.outer(scale_fn(t), np.eye(dim)),
                   dim=dim, lam=lam, Lam=Lam)


def _contract(a, b):
    """sum_i a[..., i] b[..., i], added in index order like np.einsum (the
    same bits for n <= 2), without einsum's slow loops over stacked rows."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


class HeatKernel:
    """The heat potential with optional exponential damping in s - t."""

    def __init__(self, diffusion: DiffusionCoefficient, beta: float = 0.0,
                 horizon: float = 1.0):
        if beta < 0.0:
            raise InvalidArgument("damping beta must be >= 0")
        self.diffusion = diffusion
        self.beta = float(beta)
        self.horizon = float(horizon)
        self._table = None  # lazy antiderivative table for batched queries

    @property
    def dim(self) -> int:
        return self.diffusion.dim

    def with_beta(self, beta: float) -> "HeatKernel":
        return HeatKernel(self.diffusion, beta=beta, horizon=self.horizon)

    # -- accumulated covariance -------------------------------------------

    def covariance(self, t, s) -> np.ndarray:
        """A = integral_t^s a(r) dr by Gauss-Legendre (exact for polynomial a).

        ``t`` and ``s`` broadcast against each other; vectors of endpoints
        give one (n, n) matrix per interval, each with the bits of its
        scalar call.
        """
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        if np.any(s < t):
            raise InvalidInterval(f"need t <= s, got t={t}, s={s}")
        return self._covariance_over(t, s - t)

    def _covariance_over(self, t, gap) -> np.ndarray:
        """A over [t, t + gap] with the gap as given, also where t + gap
        rounds to t."""
        nodes, weights = _gl(_COV_NODES)
        a = self.diffusion(t[..., None] + gap[..., None] * nodes)
        out = np.zeros(a.shape[:-3] + (self.dim, self.dim))
        for k, w in enumerate(weights):
            out += w * a[..., k, :, :]
        return gap[..., None, None] * out

    def _antiderivative_table(self):
        if self._table is None:
            grid = np.linspace(0.0, self.horizon, _TABLE_SIZE + 1)
            vals = np.zeros((_TABLE_SIZE + 1, self.dim, self.dim))
            vals[1:] = np.cumsum(self.covariance(grid[:-1], grid[1:]), axis=0)
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
        if self.dim > 1:  # a 1x1 matrix has condition number 1
            cond = np.linalg.cond(A)
            if np.any(cond > _COND_LIMIT):
                raise IllConditionedKernel(
                    f"covariance condition number {np.max(cond):.3g} exceeds "
                    f"{_COND_LIMIT:.0e}")
        return det, np.linalg.inv(A)

    def __call__(self, t, s, x) -> np.ndarray:
        """Kernel value at displacement x (trailing axis of length n); the
        zero-order case of :meth:`derivative`, with its endpoint rows."""
        return self.derivative(t, s, x, MultiIndex((0,) * self.dim))

    def derivative(self, t, s, x, gamma: MultiIndex) -> np.ndarray:
        """D^gamma G by the explicit Gaussian-derivative formulas, |gamma| <= 3.

        ``t`` and ``s`` broadcast against each other; vectors of endpoints
        give one row of values per interval, against which the points of
        ``x`` broadcast, each value with the bits of its scalar call.
        """
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        if np.any(s <= t):
            raise InvalidInterval(f"need s > t, got t={t}, s={s}")
        if gamma.order > 3:
            raise UnsupportedOrder(f"kernel derivatives support |gamma| <= 3, got {gamma.order}")
        det, Ainv = self._prep(self.covariance(t, s))
        gap = s - t
        if gap.ndim:
            det, Ainv, gap = det[..., None], Ainv[..., None, :, :], gap[..., None]
        return self._derivative_given(det, Ainv, gap, x, gamma)

    def _derivative_given(self, det, Ainv, gap, x, gamma: MultiIndex):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            if self.dim == 1:
                x = x[..., None]
            else:
                raise InvalidArgument("trailing axis of x must have length n")
        w = _contract(x[..., None, :], np.swapaxes(Ainv, -1, -2))
        coeff = np.exp(-self.beta * gap) * (4.0 * np.pi) ** (-self.dim / 2.0) / np.sqrt(det)
        G = coeff * np.exp(-0.25 * _contract(x, w))
        axes = gamma.axes()
        if not axes:
            return G
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


# -- singular time quadrature ---------------------------------------------

def singular_time_quadrature(fn, tau: float, s: float, power: float, num: int):
    """integral_tau^s fn(t) dt where fn(t) ~ (s - t)^power near t = s.

    Substitutes v = (s - t)^(1 + power) so the transformed integrand is
    bounded, then applies num-node Gauss-Legendre.  Requires power > -1.
    ``fn(t, gap)`` receives, once, the (num,) vector of nodes t and each
    node's gap to s, and returns one value (or one array) per node.  The
    gap is s - t, except where t rounds to s: there the substituted gap
    itself is carried, since with power near -1 the first substituted gaps
    fall below half an ulp of s.
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
    held = s - t_vals
    vals = np.asarray(fn(t_vals, np.where(held > 0.0, held, gap)), dtype=float)
    out = np.tensordot(weights * jac, vals, axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


# -- probe reports ---------------------------------------------------------

LEVEL_RATIO = 1.3  # largest max/min of a probe's positive finite levels for it to be stable


@dataclass
class KernelConstantReport:
    """Empirical constant of one kernel-integral estimate."""

    empirical_C: float
    levels: list
    extras: dict = field(default_factory=dict)

    @property
    def stable(self) -> bool:
        vals = [lv["value"] for lv in self.levels if np.isfinite(lv["value"]) and lv["value"] > 0]
        if len(vals) < 2:
            return np.isfinite(self.empirical_C)
        return max(vals) / min(vals) <= LEVEL_RATIO


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


_PROBE_RADIUS = 6.0  # largest |x| of the pointwise probe points
_DECAY_C = 0.125  # envelope decay rate c, strictly inside (0, 1/4)
_PROBE_LEVELS = (25, 49)  # probe radii per refinement level


def probe_pointwise_bound(kernel: HeatKernel, gamma: MultiIndex) -> KernelConstantReport:
    """Smallest C with |D^gamma G| <= C (s-t)^{-(n+|g|)/2} exp(-c |x|^2/(s-t)).

    The decay rate c is fixed at 1/8, strictly interior to (0, 1/4), and the
    gaps s - t run geometrically from T/256 to T.
    """
    if gamma.order > 3:
        raise UnsupportedOrder("pointwise bound probes support |gamma| <= 3")
    T = kernel.horizon
    time_gaps = np.geomspace(T / 256.0, T, 9)
    n, g = kernel.dim, gamma.order

    report_levels = []
    for count in _PROBE_LEVELS:
        pts = _probe_points(n, _PROBE_RADIUS, count)
        r2 = np.sum(pts**2, axis=-1)
        vals = np.abs(kernel.derivative(0.0, time_gaps, pts, gamma))
        # a scalar power per gap: in 2-D, the array power rounds differently
        scale = np.array([gap ** (-(n + g) / 2.0) for gap in time_gaps])
        bound = scale[:, None] * np.exp(-_DECAY_C * r2 / time_gaps[:, None])
        report_levels.append({"points": count,
                              "value": float(np.max(_safe_ratio(vals, bound)))})
    return KernelConstantReport(report_levels[-1]["value"], report_levels)


def _moment_integrand(kernel, s, unit_nodes, unit_weights, gamma, alpha):
    """(t, gap) -> integral |D^gamma G_{s,t}(x)| |x|^alpha dx over vectors of
    nodes t and their gaps to s, as singular_time_quadrature hands them over.

    The lattice is given in self-similar coordinates y = x / sqrt(s - t) and
    rescaled per evaluation, so the spatial resolution relative to the kernel
    width is uniform down to s - t -> 0 (a fixed lattice would silently drop
    the short-time singularity once the kernel is narrower than its spacing).
    """
    n = kernel.dim

    def m(t, gap):
        scale = np.sqrt(gap)
        x = unit_nodes * scale[:, None, None]
        # kernel.derivative(t, s, x, gamma) with the gap carried, not s - t
        det, Ainv = kernel._prep(kernel._covariance_over(t, gap))
        vals = np.abs(kernel._derivative_given(det[:, None], Ainv[:, None], gap[:, None], x,
                                               gamma))
        r = np.linalg.norm(x, axis=-1) ** alpha
        # a scalar power per node: in 2-D, the array power rounds differently
        vol = np.array([sc**n for sc in scale])
        return np.sum(unit_weights * vol[:, None] * vals * r, axis=-1)

    return m


def _lattice(dim: int, radius: float, per_axis: int):
    """Nodes and quadrature weights of the lattice on [-radius, radius]^dim."""
    g = SpaceGrid(dim=dim, radius=radius, points_per_axis=per_axis)
    return g.nodes(), space_quadrature_weights(g).ravel()


_GRADED_NODES = 120  # geometric u = sqrt(s - t) nodes of a graded time integral


def _graded_time_integrals(kernel, s, x, xbar, gamma, scale):
    """integral_0^{s_i} |D^gamma G_{s_i,t}(x_i)| dt for each row of x (of
    D^gamma G(x_i) - D^gamma G(xbar_i) unless ``xbar`` is None), the peak at
    s_i - t ~ scale_i^2 resolved by a geometric grid in u = sqrt(s_i - t).

    One covariance-table pass serves every row; each row keeps its own grid
    and trapezoid sum, with the bits of a call per row.
    """
    s = np.broadcast_to(np.asarray(s, dtype=float), (len(x),))
    u_min = np.maximum(np.asarray(scale) / 40.0, np.sqrt(s) * 1e-7)
    u = np.geomspace(u_min, np.sqrt(s), _GRADED_NODES, axis=-1)
    t_vals = s[:, None] - u**2
    A = kernel.covariance_pairs(t_vals, np.broadcast_to(s[:, None], t_vals.shape))
    det, Ainv = kernel._prep(A)
    gap = s[:, None] - t_vals
    vals = kernel._derivative_given(det, Ainv, gap, x[:, None, :], gamma)
    if xbar is not None:
        vals = vals - kernel._derivative_given(det, Ainv, gap, xbar[:, None, :], gamma)
    integrand = np.abs(vals) * 2.0 * u  # dt = 2 u du
    return np.trapezoid(integrand, u, axis=-1)


_ETAS = (0.5, 0.25, 0.125)  # small-ball radii
_DAMPING_BETAS = (1.0, 4.0, 16.0, 64.0)  # beta sweep of the damped moment fit
_REFINE_LEVELS = 2  # lattice refinements of the moment and tail probes


def probe_integral_estimates(kernel: HeatKernel, gamma: MultiIndex, alpha: float) -> dict:
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
    R = 1.0 + 6.0 * np.sqrt(2.0 * kernel.diffusion.Lam * T)
    J0 = 257 if n == 1 else 97
    reports = {}

    tau_s_pairs = [(0.0, T), (0.0, T / 2.0), (T / 4.0, T)]
    power = (alpha - g) / 2.0
    unit_R = 8.0 * np.sqrt(2.0 * kernel.diffusion.Lam)

    # (2.4)-type moment bound
    levels = []
    for lev in range(_REFINE_LEVELS):
        J = J0 if lev == 0 else 2 * J0 - 1
        nodes, weights = _lattice(n, unit_R, J)
        best = 0.0
        for tau, s in tau_s_pairs:
            m = _moment_integrand(kernel, s, nodes, weights, gamma, alpha)
            best = max(best, singular_time_quadrature(m, tau, s, power, 48))
        levels.append({"points": J, "value": best})
    reports["moment_bound"] = KernelConstantReport(levels[-1]["value"], levels)

    if g == 2:
        # exterior-ball cancellation (finite thanks to integral D^g G = 0)
        radii = [0.25, 0.5, 1.0, 2.0, R * 2.0]
        levels = []
        for lev in range(_REFINE_LEVELS):
            J = J0 if lev == 0 else 2 * J0 - 1
            nodes, weights = _lattice(n, R, J)
            rad = np.linalg.norm(nodes, axis=-1)
            best = 0.0
            for a_rad in radii:
                mask = rad >= a_rad
                if not np.any(mask):
                    continue

                def inner(t, _gap):  # called at once, with this pass's mask and s
                    vals = kernel.derivative(t, s, nodes[mask], gamma)
                    return np.abs(np.sum(weights[mask] * vals, axis=-1))

                for tau, s in tau_s_pairs:
                    best = max(best, singular_time_quadrature(inner, tau, s, -0.5, 48))
            levels.append({"points": J, "value": best})
        reports["tail_cancellation"] = KernelConstantReport(levels[-1]["value"], levels)

        # small-ball moment: LHS(eta) <= C eta^alpha
        levels = []
        for eta in _ETAS:
            nodes, weights = _lattice(n, eta, 161 if n == 1 else 41)
            rad = np.linalg.norm(nodes, axis=-1)
            mask = (rad <= eta + 1e-12) & (rad != 0.0)
            x, r = nodes[mask], rad[mask]
            # both horizons in one pass: the rows of T/4, then those of T
            t_int = _graded_time_integrals(kernel, np.repeat([T / 4.0, T], len(x)),
                                           np.concatenate([x, x]), None, gamma,
                                           np.concatenate([r, r]))
            total = 0.0
            for w, ri, quarter, full in zip(weights[mask], r, t_int[:len(x)],
                                            t_int[len(x):]):
                total += w * max(quarter, full) * ri**alpha
            levels.append({"eta": eta, "value": total / eta**alpha})
        reports["small_ball"] = KernelConstantReport(
            max(lv["value"] for lv in levels), levels)

        # two-point difference outside the ball of radius eta = 2 |x - xbar|
        levels = []
        for sep in (0.125, 0.25):
            x0 = np.zeros(n)
            xbar = np.zeros(n)
            xbar[0] = sep
            eta = 2.0 * sep
            nodes, weights = _lattice(n, R, 321 if n == 1 else 49)
            rad0 = np.linalg.norm(nodes - x0, axis=-1)
            mask = rad0 > eta
            ys = nodes[mask]
            # a norm per row: in 2-D, norm(axis=-1) rounds differently
            scale = [np.linalg.norm(x0 - y) for y in ys]
            t_int = _graded_time_integrals(kernel, T, x0 - ys, xbar - ys, gamma, scale)
            total = 0.0
            for y, w, ti in zip(ys, weights[mask], t_int):
                total += w * ti * np.linalg.norm(xbar - y) ** alpha
            levels.append({"eta": eta, "value": total / eta**alpha})
        reports["shifted_difference"] = KernelConstantReport(
            max(lv["value"] for lv in levels), levels)

    # beta-damped moment integral with the predicted beta power
    nodes, weights = _lattice(n, unit_R, J0)
    predicted = -1.0 + (g - alpha) / 2.0
    raw = []
    for b in _DAMPING_BETAS:
        kb = kernel.with_beta(b)
        m = _moment_integrand(kb, T, nodes, weights, gamma, alpha)
        raw.append(singular_time_quadrature(m, 0.0, T, power, 64))
    fitted = float(np.polyfit(np.log(np.asarray(_DAMPING_BETAS)), np.log(np.asarray(raw)),
                              1)[0])
    levels = [
        {"beta": b, "value": v * b ** (-predicted)} for b, v in zip(_DAMPING_BETAS, raw)
    ]
    reports["beta_damped_moment"] = KernelConstantReport(
        max(lv["value"] for lv in levels), levels,
        extras={"fitted_exponent": fitted, "predicted_exponent": predicted})

    return reports


_SUP_GAPS = 240  # geometric gaps r of the windowed supremum


@dataclass
class SupKernelProbe:
    value: float
    warning: str | None = None


def probe_sup_kernel_integrability(kernel: HeatKernel, alpha: float, window: float,
                                   grid: SpaceGrid | None = None) -> SupKernelProbe:
    """integral sup_{r in [0, window]} G_{r,0}(y) |y|^{2 alpha} dy on the grid.

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
    nodes, weights = grid.nodes(), space_quadrature_weights(grid).ravel()
    rad = np.linalg.norm(nodes, axis=-1)

    gaps = np.geomspace(window * 1e-6, window, _SUP_GAPS)
    sup_vals = kernel(0.0, gaps, nodes).max(axis=0)
    mask = rad > 0
    value = float(np.sum(weights[mask] * sup_vals[mask] * rad[mask] ** (2.0 * alpha)))
    return SupKernelProbe(value=value, warning=warning)
