"""Backward-PDE solvers built on heat-potential convolution.

``solve(coeffs, paths, config)`` is the single entry point: it checks the
documented assumptions once and routes to one of three solvers that share
one engine:

  * solve_model               explicit representation, space-invariant a and sigma
  * solve_variable_linear     frozen-coefficient Picard for variable a, b, c
  * solve_semilinear          damped Picard for a Lipschitz driver f(t,x,q,u,v)

Space convolutions run on a uniform 1-d lattice, so every kernel application
is a Toeplitz matrix-vector product; batches of (t, s) pairs go through one
FFT.  When the kernel width drops below the lattice resolution the quadrature
is replaced by the two-term expansion R_t^s F = F + A F'' + O(A^2), which is
what keeps the short-time end of the time integrals honest.

Only n = 1 is wired here; the kernel module itself handles general n.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np
from scipy.signal import fftconvolve

from .errors import (
    AssumptionViolation,
    InvalidArgument,
    InvalidRoute,
    InvalidShift,
    UnsupportedOrder,
)
from .grid import MultiIndex, SpaceGrid, TimeGrid, fd_derivative, space_quadrature_weights
from .holder import FieldSample, estimate_norm, estimate_seminorm
from .kernel import DiffusionCoefficient, HeatKernel, _gl
from .stochastic import (
    CONST,
    DataFunctional,
    PathEnsemble,
    SpaceFactor,
    backward_defect,
    product_dense,
    solve_bsde_closed,
    solve_second_family,
)

_D1 = MultiIndex((1,))


# -- problem data -----------------------------------------------------------

@dataclass
class CoefficientSet:
    """Problem data (a, b, c, sigma, f, Phi) plus the bounds they must obey.

    Exactly one of ``diffusion`` (space-invariant a(t)) or ``a_fn`` (scalar
    a(t, x), n = 1) must be set.  ``forcing`` is a DataFunctional; a
    semilinear driver goes in ``driver`` with its Lipschitz constant.
    """

    terminal: DataFunctional
    diffusion: DiffusionCoefficient = None
    a_fn: Callable = None
    b_fn: Callable = None
    c_fn: Callable = None
    sigma: tuple = (0.0,)
    forcing: DataFunctional = None
    driver: Callable = None
    lipschitz: float = 0.0
    lam: float = None
    Lam: float = None
    label: str = ""

    def __post_init__(self):
        if (self.diffusion is None) == (self.a_fn is None):
            raise InvalidArgument("set exactly one of diffusion (space-invariant) or a_fn")
        if self.diffusion is not None:
            if self.lam is None:
                self.lam = self.diffusion.lam
            if self.Lam is None:
                self.Lam = self.diffusion.Lam
        if self.lam is None or self.Lam is None:
            raise InvalidArgument("space-dependent a needs explicit lam and Lam bounds")
        if self.lam <= 0.0:
            raise AssumptionViolation(
                "uniform ellipticity requires lam > 0: the diffusion must satisfy "
                "lam |xi|^2 <= a xi^2 <= Lam |xi|^2 with a positive lower bound"
            )
        if self.lam > self.Lam:
            raise AssumptionViolation(
                f"ellipticity bounds need lam <= Lam, got lam={self.lam}, Lam={self.Lam}"
            )

    @property
    def space_invariant(self) -> bool:
        return self.a_fn is None

    @property
    def noise_dim(self) -> int:
        return len(np.atleast_1d(np.asarray(self.sigma, dtype=float)))

    def a_values(self, t, x):
        """a at (t, x); scalar a for n = 1, broadcasting over x."""
        x = np.asarray(x, dtype=float)
        if self.space_invariant:
            return np.full_like(x, float(np.atleast_2d(self.diffusion(t))[0, 0]))
        return np.asarray(self.a_fn(t, x), dtype=float) * np.ones_like(x)

    def sample(self, t, x):
        """(a, b, c) on the nodes t x x, each (len(t), len(x)); None for an absent b or c."""
        x = np.asarray(x, dtype=float)
        a = np.stack([self.a_values(tk, x) for tk in t])
        b, c = (None if fn is None else np.stack([np.asarray(fn(tk, x)) * np.ones_like(x)
                                                  for tk in t])
                for fn in (self.b_fn, self.c_fn))
        return a, b, c

    def is_deterministic(self) -> bool:
        sig = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if np.any(sig != 0.0):
            return False
        if not self.terminal.is_deterministic():
            return False
        if self.forcing is not None and not self.forcing.is_deterministic():
            return False
        return True

    def check_assumptions(self, time_grid: TimeGrid, space_grid: SpaceGrid,
                          seed: int = 0, samples: int = 64):
        """Sampled ellipticity / boundedness / Lipschitz checks.

        Raises AssumptionViolation on the first failure; silent on success.
        """
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.0, time_grid.horizon, samples)
        xs = rng.uniform(-space_grid.radius, space_grid.radius, samples)
        for t, x in zip(ts, xs):
            a = float(np.atleast_1d(self.a_values(t, np.atleast_1d(x)))[0])
            if not (self.lam - 1e-12 <= a <= self.Lam + 1e-12):
                raise AssumptionViolation(
                    f"ellipticity violated at (t={t:.4g}, x={x:.4g}): a={a:.6g} "
                    f"outside [{self.lam}, {self.Lam}]"
                )
            for name, fn in (("b", self.b_fn), ("c", self.c_fn)):
                if fn is not None and not np.all(np.isfinite(fn(t, np.atleast_1d(x)))):
                    raise AssumptionViolation(f"coefficient {name} is not finite at the sample")
        if self.driver is not None:
            if self.lipschitz <= 0.0:
                raise AssumptionViolation("semilinear driver needs a positive Lipschitz constant")
            for _ in range(samples):
                t = rng.uniform(0.0, time_grid.horizon)
                x = np.atleast_1d(rng.uniform(-space_grid.radius, space_grid.radius))
                q1, u1, v1 = rng.standard_normal(3)
                q2, u2, v2 = rng.standard_normal(3)
                lhs = abs(float(np.atleast_1d(self.driver(t, x, q1, u1, v1))[0])
                          - float(np.atleast_1d(self.driver(t, x, q2, u2, v2))[0]))
                rhs = self.lipschitz * (abs(q1 - q2) + abs(u1 - u2) + abs(v1 - v2))
                if lhs > rhs + 1e-9:
                    raise AssumptionViolation(
                        f"driver violates its Lipschitz bound: {lhs:.4g} > {rhs:.4g}"
                    )


@dataclass
class SolverConfig:
    """Numerical knobs for every solve route."""

    time_grid: TimeGrid
    space_grid: SpaceGrid
    beta: float = None  # damping; None means route default (0 linear, 8 semilinear)
    max_iter: int = 40
    tol: float = 1e-6
    endpoint_substitution: bool = True
    alpha: float = 0.5
    x_ref: float = 0.0
    quad_nodes: int = 32
    path_subset: int = 64

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidArgument("tolerance must be positive")
        if self.max_iter < 1:
            raise InvalidArgument("iteration cap must be >= 1")
        if self.beta is not None and self.beta < 0.0:
            raise InvalidArgument("damping beta must be >= 0")
        if self.space_grid.dim != 1:
            raise InvalidArgument("solver routes are implemented for n = 1 only")


# -- smooth cutoff ----------------------------------------------------------

def _seam(t):
    """psi(t) = exp(-1/t) for t > 0, 0 otherwise; C-infinity at 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _smoothstep(t):
    """S(t) = psi(t) / (psi(t) + psi(1 - t)); 0 for t <= 0, 1 for t >= 1."""
    p = _seam(t)
    q = _seam(1.0 - np.asarray(t, dtype=float))
    with np.errstate(invalid="ignore"):
        out = np.where(p + q > 0.0, p / np.where(p + q > 0.0, p + q, 1.0), 0.0)
    return out


@dataclass(frozen=True)
class BumpField:
    """Cutoff eta(x) = phi((x - z) / theta): 1 on |x-z| <= theta, 0 beyond 2 theta."""

    center: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise InvalidArgument("bump radius must be positive")

    def _profile(self, xi):
        xi = np.abs(np.asarray(xi, dtype=float))
        return np.where(xi <= 1.0, 1.0, np.where(xi >= 2.0, 0.0, _smoothstep(2.0 - xi)))

    def __call__(self, x):
        return self._profile((np.asarray(x, dtype=float) - self.center) / self.radius)

    def d1(self, x, step: float = 1e-4):
        xi = (np.asarray(x, dtype=float) - self.center) / self.radius
        return (self._profile(xi + step) - self._profile(xi - step)) / (2.0 * step) \
            / self.radius

    def d2(self, x, step: float = 1e-4):
        xi = (np.asarray(x, dtype=float) - self.center) / self.radius
        num = self._profile(xi + step) - 2.0 * self._profile(xi) + self._profile(xi - step)
        return num / step**2 / self.radius**2


# -- batched Toeplitz convolution ------------------------------------------

_SMALL_FACTOR = 4.5  # A < 4.5 h^2 means kernel std < 3 h: switch to the expansion


class _PairConvolver:
    """Kernel convolutions on a uniform 1-d lattice for a batch of (t, s) pairs.

    Each pair contributes one Toeplitz row built from 2J-1 kernel samples at
    lattice displacements; all pairs are convolved in a single batched FFT.
    Pairs whose accumulated covariance A is below the resolution threshold
    use the Taylor limit damp * (D^o F + A D^(o+2) F) instead.
    """

    def __init__(self, kernel: HeatKernel, t_arr, s_arr, grid: SpaceGrid):
        if grid.dim != 1:
            raise InvalidArgument("batched convolution is implemented for n = 1 only")
        self.kernel = kernel
        self.grid = grid
        t_arr = np.atleast_1d(np.asarray(t_arr, dtype=float))
        s_arr = np.atleast_1d(np.asarray(s_arr, dtype=float))
        self.gap = s_arr - t_arr
        A = kernel.covariance_pairs(t_arr, s_arr)[:, 0, 0]
        self.A = A
        self.damp = np.exp(-kernel.beta * self.gap)
        self.small = A < _SMALL_FACTOR * grid.h**2
        J = grid.points_per_axis
        self.disp = np.arange(-(J - 1), J) * grid.h
        self.w = space_quadrature_weights(grid)
        self._kv = {}
        self._mass = {}

    def _kernel_vec(self, order: int) -> np.ndarray:
        if order not in self._kv:
            A = np.where(self.small, 1.0, self.A)[:, None]
            z = self.disp[None, :]
            G = self.damp[:, None] * (4.0 * np.pi * A) ** -0.5 * np.exp(-0.25 * z**2 / A)
            if order == 1:
                G = -0.5 * (z / A) * G
            elif order == 2:
                G = (0.25 * (z / A) ** 2 - 0.5 / A) * G
            G[self.small] = 0.0
            self._kv[order] = G
        return self._kv[order]

    def _conv(self, kv: np.ndarray, F: np.ndarray) -> np.ndarray:
        J = self.grid.points_per_axis
        F = np.asarray(F, dtype=float)
        if F.ndim == 1:
            F = F[None, :]
        out = fftconvolve(F * self.w, kv, mode="full", axes=-1)
        return out[..., J - 1:2 * J - 1]

    def _mass_vec(self, order: int) -> np.ndarray:
        if order not in self._mass:
            self._mass[order] = self._conv(self._kernel_vec(order),
                                           np.ones(self.grid.points_per_axis))
        return self._mass[order]

    def apply(self, order: int, stack, second_form: str = "d1") -> np.ndarray:
        """Convolution derivative of the given order against a field stack.

        ``stack`` is a list of lattice samples [F, F', F'', ...] (entries may
        be (J,) or (P, J)); entries beyond order + 2 may be None.  Order 2
        uses the subtracted first-derivative kernel form against F' when
        ``second_form == 'd1'``, else the second-derivative kernel against F.
        """
        if order > 2:
            raise UnsupportedOrder(f"convolution derivatives stop at order 2, got {order}")
        if order == 0:
            out = self._conv(self._kernel_vec(0), stack[0])
        elif order == 1:
            fld = np.asarray(stack[0], dtype=float)
            out = self._conv(self._kernel_vec(1), fld) - fld * self._mass_vec(1)
        else:
            if second_form == "d1" and stack[1] is not None:
                fld = np.asarray(stack[1], dtype=float)
                out = self._conv(self._kernel_vec(1), fld) - fld * self._mass_vec(1)
            else:
                fld = np.asarray(stack[0], dtype=float)
                out = self._conv(self._kernel_vec(2), fld) - fld * self._mass_vec(2)
        if np.any(self.small):
            # Gaussian moment expansion: R F = F + A F'' + (A^2 / 2) F'''' + ...
            base = np.broadcast_to(np.asarray(stack[order], dtype=float), out.shape)
            limit = base.copy()
            for extra, coef in ((2, self.A), (4, 0.5 * self.A**2)):
                if len(stack) > order + extra and stack[order + extra] is not None:
                    corr = np.broadcast_to(
                        np.asarray(stack[order + extra], dtype=float), out.shape)
                    limit = limit + coef[:, None] * corr
            limit = self.damp[:, None] * limit
            out[self.small] = limit[self.small]
        return out


def convolve(kernel: HeatKernel, t: float, s: float, field, space_grid: SpaceGrid,
             gamma: MultiIndex, field_d1=None):
    """D^gamma of the kernel convolution (R_t^s field)(x) on the lattice.

    ``field`` has trailing axis J; leading axes (paths, components) pass
    through.  |gamma| = 2 uses the subtracted form: against field_d1 and the
    first kernel derivative when provided, else against the field and the
    second kernel derivative.
    """
    if gamma.order > 2:
        raise UnsupportedOrder(f"convolve supports |gamma| <= 2, got {gamma.order}")
    field = np.asarray(field, dtype=float)
    lead = field.shape[:-1]
    F = field.reshape(-1, field.shape[-1])
    conv = _PairConvolver(kernel, [t], [s], space_grid)
    stack = _stack_from_rows(F, space_grid, upto=gamma.order + 4)
    if field_d1 is not None:
        stack[1] = np.asarray(field_d1, dtype=float).reshape(F.shape)
    rows = [conv.apply(gamma.order, [None if s_ is None else s_[i] for s_ in stack],
                       second_form="d1" if field_d1 is not None else "kernel")
            for i in range(F.shape[0])]
    out = np.concatenate(rows, axis=0)
    return out.reshape(lead + (field.shape[-1],))


def _stack_from_rows(F: np.ndarray, grid: SpaceGrid, upto: int = 6):
    """[F, F', ..., F^(upto)] by repeated central differences; rows pass through."""
    stack = [np.asarray(F, dtype=float)]
    for _ in range(upto):
        d, _valid = fd_derivative(stack[-1], grid, _D1)
        stack.append(d)
    return stack


def _space_factor_stack(h: SpaceFactor, grid: SpaceGrid):
    """[h, h', ..., h^(6)] on the lattice, analytic where available."""
    x = grid.axis
    s0 = np.asarray(h(x), dtype=float)
    s1 = np.asarray(h.d1(x), dtype=float)
    s2 = np.asarray(h.d2(x), dtype=float)
    if h.d3 is not None:
        s3 = np.asarray(h.d3(x), dtype=float)
    else:
        s3, _ = fd_derivative(s2, grid, _D1)
    stack = [s0, s1, s2, s3]
    for _ in range(3):
        nxt, _valid = fd_derivative(stack[-1], grid, _D1)
        stack.append(nxt)
    return stack


# -- profile assembly -------------------------------------------------------

def _terminal_profiles(kernel: HeatKernel, tgrid: TimeGrid, stack, grid: SpaceGrid):
    """(K+1, J) profiles of D^o R^T_{t_k} h for o = 0, 1, 2; exact row at t = T."""
    T = tgrid.horizon
    t_arr = tgrid.nodes[:-1]
    conv = _PairConvolver(kernel, t_arr, np.full_like(t_arr, T), grid)
    out = {}
    for o in range(3):
        rows = conv.apply(o, stack)
        out[o] = np.concatenate([rows, stack[o][None, :]], axis=0)
    return out


def _forcing_profiles(kernel: HeatKernel, tgrid: TimeGrid, stack, tau_fn,
                      grid: SpaceGrid, quad_nodes: int, sqrt_sub: bool):
    """(K+1, J) profiles of int_{t_k}^T tau_fn(s) D^o R^s_{t_k} h ds, o = 0..2.

    The o = 0 integrand is bounded, so plain Gauss-Legendre in s suffices;
    derivative orders substitute u = sqrt(s - t) so the transformed integrand
    stays bounded as s -> t (toggleable for the refinement study).
    """
    K = tgrid.num_steps
    nodes01, w01 = _gl(quad_nodes)
    T = tgrid.horizon
    t_heads = tgrid.nodes[:K]
    lengths = T - t_heads  # (K,)

    # plain substitution s = t + L u, weight L
    s_plain = t_heads[:, None] + lengths[:, None] * nodes01[None, :]
    wt_plain = lengths[:, None] * w01[None, :] * tau_fn(s_plain)

    conv_plain = _PairConvolver(
        kernel, np.repeat(t_heads, quad_nodes), s_plain.ravel(), grid
    )
    out = {}
    vals0 = conv_plain.apply(0, stack).reshape(K, quad_nodes, -1)
    prof0 = np.einsum("kq,kqj->kj", wt_plain, vals0)
    out[0] = np.concatenate([prof0, np.zeros((1, grid.points_per_axis))], axis=0)

    if sqrt_sub:
        # u = sqrt(s - t): s = t + (L u)^2 on u in [0, 1], weight 2 L^2 u
        u = nodes01[None, :]
        s_sub = t_heads[:, None] + (np.sqrt(lengths)[:, None] * u) ** 2
        wt_sub = 2.0 * lengths[:, None] * u * w01[None, :] * tau_fn(s_sub)
        conv_d = _PairConvolver(
            kernel, np.repeat(t_heads, quad_nodes), s_sub.ravel(), grid
        )
        wt_d = wt_sub
    else:
        conv_d, wt_d = conv_plain, wt_plain
    for o in (1, 2):
        vals = conv_d.apply(o, stack).reshape(K, quad_nodes, -1)
        prof = np.einsum("kq,kqj->kj", wt_d, vals)
        out[o] = np.concatenate([prof, np.zeros((1, grid.points_per_axis))], axis=0)
    return out


class _GriddedIntegrator:
    """Trapezoid-in-time frozen solve for a gridded source, reusable pair table.

    Computes D^o of  R^T_t Phi + int_t^T R^s_t F(s) ds  at all grid times with
    s restricted to grid nodes (trapezoid weights on [t_k, T]).  The pair
    table and kernel FFT rows are built once; only apply() runs per iterate.
    """

    def __init__(self, kernel: HeatKernel, tgrid: TimeGrid, grid: SpaceGrid):
        self.tgrid = tgrid
        self.grid = grid
        K = tgrid.num_steps
        idx_k, idx_j = np.triu_indices(K + 1)
        self.idx_k = idx_k
        self.idx_j = idx_j
        t = tgrid.nodes
        self.conv = _PairConvolver(kernel, t[idx_k], t[idx_j], grid)
        wt = np.full(idx_k.shape, tgrid.dt)
        wt[(idx_j == idx_k) | (idx_j == K)] = 0.5 * tgrid.dt
        wt[idx_k == K] = 0.0
        self.wt = wt
        self._phi_profiles = None

    def set_terminal(self, phi_stack):
        kernel = self.conv.kernel
        self._phi_profiles = _terminal_profiles(kernel, self.tgrid, phi_stack, self.grid)
        self._phi_stack = phi_stack

    def solve(self, F_stack=None):
        """Profiles dict order -> (K+1, J) for the current source stack.

        ``F_stack`` entries are (K+1, J) lattice samples of D^o F; None means
        no source.  The terminal row of the order-0 profile is the terminal
        data exactly, by construction.
        """
        K = self.tgrid.num_steps
        J = self.grid.points_per_axis
        out = {o: self._phi_profiles[o].copy() if self._phi_profiles is not None
               else np.zeros((K + 1, J)) for o in range(3)}
        if F_stack is not None:
            for o in range(3):
                pair_stack = [None if s is None else s[self.idx_j] for s in F_stack]
                vals = self.conv.apply(o, pair_stack)
                acc = np.zeros((K + 1, J))
                np.add.at(acc, self.idx_k, self.wt[:, None] * vals)
                out[o] += acc
        return out


# -- solution container -----------------------------------------------------

@dataclass
class FieldPart:
    """One separable piece of a solution: profiles(t, x) times a path series."""

    profiles: dict  # order -> (K+1, J)
    series: np.ndarray  # (Mp, K+1); Mp == 1 for deterministic parts


@dataclass
class SolutionField:
    """Sampled (u, v) on path x time x space with derivative caches.

    Values are stored factorized (space-time profiles times path series), so
    dense evaluation is lazy; ``trusted`` marks the lattice region where the
    truncated convolution box is accurate.
    """

    space_grid: SpaceGrid
    time_grid: TimeGrid
    u_parts: list
    v_parts: list  # per noise component, each a list of FieldPart
    num_paths: int
    trusted: np.ndarray
    deriv_source: str = "analytic"
    provenance: str = ""
    residual_rms: float = np.nan
    residual_worst: float = np.nan
    info: dict = dataclass_field(default_factory=dict)

    @property
    def noise_dim(self) -> int:
        return len(self.v_parts)

    def _dense(self, parts, order: int, path_idx) -> np.ndarray:
        if path_idx is not None:
            path_idx = np.atleast_1d(np.asarray(path_idx))
        rows = self.num_paths if path_idx is None else len(path_idx)
        return product_dense([(p.series, p.profiles[order]) for p in parts],
                             (rows, len(self.time_grid), self.space_grid.points_per_axis),
                             path_idx)

    def u_dense(self, order: int = 0, path_idx=None) -> np.ndarray:
        return self._dense(self.u_parts, order, path_idx)

    def v_dense(self, l: int, order: int = 0, path_idx=None) -> np.ndarray:
        return self._dense(self.v_parts[l], order, path_idx)

    def to_csv(self, path, path_ids=None):
        """Columnar export: path_id, t, x, u, v_1..v_d."""
        if path_ids is None:
            path_ids = list(range(min(self.num_paths, 8)))
        path_ids = list(path_ids)
        u = self.u_dense(0, path_ids)
        v = [self.v_dense(l, 0, path_ids) for l in range(self.noise_dim)]
        x = self.space_grid.axis
        t = self.time_grid.nodes
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["path_id", "t", "x", "u"]
                        + [f"v_{l + 1}" for l in range(self.noise_dim)])
            for mi, pid in enumerate(path_ids):
                for k in range(len(t)):
                    for j in range(len(x)):
                        row = [pid, f"{t[k]:.17g}", f"{x[j]:.17g}", f"{u[mi, k, j]:.17g}"]
                        row += [f"{vl[mi, k, j]:.17g}" for vl in v]
                        wr.writerow(row)

    def summary_json(self) -> str:
        payload = {
            "provenance": self.provenance,
            "residual_rms": self.residual_rms,
            "residual_worst": self.residual_worst,
            "num_paths": self.num_paths,
            "noise_dim": self.noise_dim,
            "deriv_source": self.deriv_source,
            "grid": {
                "num_steps": self.time_grid.num_steps,
                "horizon": self.time_grid.horizon,
                "points_per_axis": self.space_grid.points_per_axis,
                "radius": self.space_grid.radius,
            },
            "info": _jsonable(self.info),
        }
        return json.dumps(payload, sort_keys=True)


def _jsonable(obj):
    """Nested dicts, sequences and numpy values as plain JSON types.

    Booleans are tested before integers: bool is a subclass of int, and a
    flag must serialize as true/false, not 1/0.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _trusted_mask(grid: SpaceGrid, Lam: float, horizon: float) -> np.ndarray:
    margin = 6.0 * np.sqrt(2.0 * Lam * horizon)
    keep = max(grid.radius - margin, 2.0 * grid.h)
    return grid.interior_mask(keep)


def _degenerate_paths(tgrid: TimeGrid, d: int = 1) -> PathEnsemble:
    return PathEnsemble(np.zeros((1, tgrid.num_steps, d)), tgrid, seed=0)


def _defect_sample(paths, stochastic: bool, max_paths: int, tgrid: TimeGrid, d: int):
    """(path_idx, ensemble) a defect is measured on: the first max_paths paths, or path 0."""
    if not stochastic:
        return np.array([0]), _degenerate_paths(tgrid, d)
    path_idx = np.arange(min(paths.num_paths, max_paths))
    return path_idx, PathEnsemble(paths.increments[path_idx], tgrid, paths.seed)


# -- residual certification -------------------------------------------------

def integral_form_defect(sol: SolutionField, coeffs: CoefficientSet,
                         paths: PathEnsemble = None, max_paths: int = 64):
    """Defect of the backward integral form on the trusted region.

    Deterministic solves integrate the drift by trapezoid; stochastic solves
    use left-endpoint Riemann/Ito sums per path.  Returns (rms, worst) both
    normalized by 1 + max |Phi|.
    """
    tgrid = sol.time_grid
    grid = sol.space_grid
    mask = sol.trusted
    x = grid.axis[mask]
    t = tgrid.nodes
    K = tgrid.num_steps
    stochastic = paths is not None and not (
        coeffs.is_deterministic() and sol.num_paths == 1
    )
    path_idx, sub = _defect_sample(paths, stochastic, max_paths, tgrid, coeffs.noise_dim)

    u0 = sol.u_dense(0, path_idx)[..., mask]
    u1 = sol.u_dense(1, path_idx)[..., mask]
    u2 = sol.u_dense(2, path_idx)[..., mask]
    d = sol.noise_dim
    v = [sol.v_dense(l, 0, path_idx)[..., mask] for l in range(d)]
    sig = np.atleast_1d(np.asarray(coeffs.sigma, dtype=float))

    a_tx, b_tx, c_tx = coeffs.sample(t, x)  # (K+1, Jt)
    drift = a_tx[None] * u2
    if b_tx is not None:
        drift += b_tx[None] * u1
    if c_tx is not None:
        drift += c_tx[None] * u0
    if coeffs.forcing is not None:
        drift = drift + coeffs.forcing.dense(sub, x)
    if coeffs.driver is not None:
        f_rows = np.stack(
            [np.asarray(coeffs.driver(t[k], x, u1[:, k], u0[:, k],
                                      v[0][:, k] if d else 0.0), dtype=float)
             * np.ones_like(u0[:, k])
             for k in range(K + 1)], axis=1
        )
        drift = drift + f_rows
    for l in range(d):
        if sig[l] != 0.0:
            drift = drift + sig[l] * v[l]

    terminal = coeffs.terminal.terminal_values(sub, x)  # (Mp, Jt)
    defect = backward_defect(u0, terminal, drift, tgrid.dt, v,
                             sub.increments if stochastic else None)
    scale = 1.0 + float(np.abs(terminal).max(initial=0.0))
    rms = float(np.sqrt(np.mean(defect**2)) / scale)
    worst = float(np.max(np.abs(defect)) / scale)
    return rms, worst


# -- representation route ---------------------------------------------------

def solve_model(coeffs: CoefficientSet, paths: PathEnsemble, config: SolverConfig,
                kernel_beta: float = 0.0) -> SolutionField:
    """Explicit solution for space-invariant a and sigma, no drift or zeroth term."""
    if not coeffs.space_invariant or coeffs.b_fn is not None or coeffs.c_fn is not None:
        raise InvalidRoute(
            "solve_model needs space-invariant a and no b or c terms; "
            "use solve_variable_linear for this data"
        )
    if coeffs.driver is not None:
        raise InvalidRoute("semilinear drivers go through solve_semilinear")
    tgrid, grid = config.time_grid, config.space_grid
    d = coeffs.noise_dim
    if paths is None:
        if not coeffs.is_deterministic():
            raise InvalidRoute("stochastic data needs a path ensemble")
        paths = _degenerate_paths(tgrid, d)
    kernel = HeatKernel(coeffs.diffusion, beta=kernel_beta, horizon=tgrid.horizon)
    sigma = coeffs.sigma

    stacks = {}

    def stack_of(h):
        key = id(h)
        if key not in stacks:
            stacks[key] = _space_factor_stack(h, grid)
        return stacks[key]

    bsde = solve_bsde_closed(coeffs.terminal, sigma, paths)
    term_profiles = {}

    def terminal_profiles_of(h):
        key = id(h)
        if key not in term_profiles:
            term_profiles[key] = _terminal_profiles(kernel, tgrid, stack_of(h), grid)
        return term_profiles[key]

    u_parts = [FieldPart(terminal_profiles_of(t.space), t.series) for t in bsde.phi_terms]
    v_parts = [
        [FieldPart(terminal_profiles_of(t.space), t.series) for t in bsde.psi_terms[l]]
        for l in range(d)
    ]

    if coeffs.forcing is not None:
        second = solve_second_family(coeffs.forcing, sigma, paths)
        force_profiles = {}

        def forcing_profiles_of(h, tau_fn):
            key = (id(h), id(tau_fn))
            if key not in force_profiles:
                force_profiles[key] = _forcing_profiles(
                    kernel, tgrid, stack_of(h), np.vectorize(tau_fn),
                    grid, config.quad_nodes, config.endpoint_substitution,
                )
            return force_profiles[key]

        for t in second.y_terms:
            u_parts.append(FieldPart(forcing_profiles_of(t.space, t.tau_fn), t.series))
        for l in range(d):
            for t in second.g_terms[l]:
                v_parts[l].append(FieldPart(forcing_profiles_of(t.space, t.tau_fn), t.series))

    sol = SolutionField(
        space_grid=grid, time_grid=tgrid, u_parts=u_parts, v_parts=v_parts,
        num_paths=paths.num_paths,
        trusted=_trusted_mask(grid, coeffs.Lam, tgrid.horizon),
        deriv_source="analytic", provenance="representation",
        info={"iterations": 1, "bsde_residual_rms": bsde.residual_rms},
    )
    rms, worst = integral_form_defect(sol, coeffs, paths, max_paths=config.path_subset)
    sol.residual_rms, sol.residual_worst = rms, worst
    return sol


# -- the router -------------------------------------------------------------

def solve(coeffs: CoefficientSet, paths: PathEnsemble, config: SolverConfig) -> SolutionField:
    """Check the documented assumptions once, then pick the route.

    A driver goes to damped Picard; space-invariant a with no b and no c to
    the explicit representation; anything else to frozen-reference Picard.
    ``paths`` may be None for deterministic data.
    """
    coeffs.check_assumptions(config.time_grid, config.space_grid)
    if coeffs.driver is not None:
        return solve_semilinear(coeffs, paths, config)
    if coeffs.space_invariant and coeffs.b_fn is None and coeffs.c_fn is None:
        return solve_model(coeffs, paths, config)
    return solve_variable_linear(coeffs, paths, config)


def solve_deterministic_pde(coeffs: CoefficientSet, config: SolverConfig) -> SolutionField:
    """``solve`` without paths.  Kept only because the benchmark's trace
    harness wraps this name; new code calls ``solve``."""
    return solve(coeffs, None, config)


# -- frozen-coefficient Picard ---------------------------------------------

def _terminal_stack(coeffs: CoefficientSet, grid: SpaceGrid):
    """Derivative stack of a deterministic terminal condition."""
    stacks = [_space_factor_stack(h, grid) for h, p in coeffs.terminal.terms
              if p.kind == CONST]
    if len(stacks) != len(coeffs.terminal.terms):
        raise InvalidRoute("this route needs deterministic terminal data")
    out = [np.zeros(grid.points_per_axis) for _ in range(7)]
    for st in stacks:
        for o in range(7):
            out[o] = out[o] + st[o]
    return out


def _frozen_diffusion(coeffs: CoefficientSet, x_ref: float) -> DiffusionCoefficient:
    if coeffs.space_invariant:
        return coeffs.diffusion
    a_fn = coeffs.a_fn

    def frozen(t):
        return np.array([[float(np.atleast_1d(a_fn(t, np.atleast_1d(x_ref)))[0])]])

    return DiffusionCoefficient(fn=frozen, dim=1, lam=coeffs.lam, Lam=coeffs.Lam,
                                label=f"frozen@{x_ref}")


def _masked_grid(grid: SpaceGrid, mask: np.ndarray) -> SpaceGrid:
    """Sub-grid over a symmetric contiguous mask (same spacing)."""
    kept = grid.axis[mask]
    return SpaceGrid(dim=1, radius=float(kept.max()), points_per_axis=int(mask.sum()))


def _norm_estimate(tgrid, grid, u_stack, alpha, mask):
    """The a priori norm ||u||_{2+alpha, L2} of an iterate on the trusted region.

    The truncated convolution box makes the boundary belt meaningless, so the
    estimate (and with it the convergence criterion) ignores it.
    """
    sub = _masked_grid(grid, mask)
    f = FieldSample(u_stack[0][None][..., mask], sub, "L2", tgrid)
    f.attach_derivative(1, u_stack[1][None][..., mask])
    f.attach_derivative(2, u_stack[2][None][..., mask])
    return estimate_norm(f, 2, alpha).total


def solve_variable_linear(coeffs: CoefficientSet, paths: PathEnsemble,
                          config: SolverConfig) -> SolutionField:
    """Frozen-reference Picard for variable a(t, x), drift b, and zeroth term c.

    Works in the damped unknown e^{-beta (T - t)} u, with the damping carried
    by the kernel; sources are deterministic lattice fields, so this route is
    restricted to deterministic data (stochastic variable-coefficient
    problems are out of scope here).
    """
    if coeffs.driver is not None:
        raise InvalidRoute("semilinear drivers go through solve_semilinear")
    if not coeffs.is_deterministic():
        raise InvalidRoute(
            "variable-coefficient iteration is implemented for deterministic data only"
        )
    tgrid, grid = config.time_grid, config.space_grid
    beta = 0.0 if config.beta is None else config.beta
    T = tgrid.horizon
    t = tgrid.nodes
    x = grid.axis
    K = tgrid.num_steps
    J = grid.points_per_axis

    abar = _frozen_diffusion(coeffs, config.x_ref)
    kernel = HeatKernel(abar, beta=beta, horizon=T)
    integrator = _GriddedIntegrator(kernel, tgrid, grid)
    integrator.set_terminal(_terminal_stack(coeffs, grid))

    a_tx, b_tx, c_tx = coeffs.sample(t, x)
    abar_t = np.array([float(np.atleast_2d(abar(tk))[0, 0]) for tk in t])
    damp_t = np.exp(-beta * (T - t))
    if coeffs.forcing is not None:
        f_tx = coeffs.forcing.dense(_degenerate_paths(tgrid, 1), x)[0]
    else:
        f_tx = None

    mask = _trusted_mask(grid, coeffs.Lam, T)
    prof = integrator.solve(None)
    history = []
    norm_prev = None
    converged = False
    for it in range(1, config.max_iter + 1):
        F = np.zeros((K + 1, J))
        if f_tx is not None:
            F += damp_t[:, None] * f_tx
        F += (a_tx - abar_t[:, None]) * prof[2]
        if b_tx is not None:
            F += b_tx * prof[1]
        if c_tx is not None:
            F += c_tx * prof[0]
        new_prof = integrator.solve(_stack_from_rows(F, grid))
        sup_change = float(np.max(np.abs((new_prof[0] - prof[0])[:, mask])))
        norm = _norm_estimate(tgrid, grid, [new_prof[0] / damp_t[:, None],
                                            new_prof[1] / damp_t[:, None],
                                            new_prof[2] / damp_t[:, None]],
                              config.alpha, mask)
        rel = (abs(norm - norm_prev) / max(norm, 1e-12)) if norm_prev is not None else np.inf
        history.append({"iteration": it, "norm_u": norm, "norm_v": 0.0,
                        "sup_change": sup_change, "rel_change": rel})
        prof = new_prof
        if norm_prev is not None and rel < config.tol:
            converged = True
            break
        norm_prev = norm

    # undamp and package
    profiles = {o: prof[o] / damp_t[:, None] for o in range(3)}
    info = {"iterations": len(history), "history": history, "converged": converged,
            "beta": beta}
    if not converged:
        sups = [h["sup_change"] for h in history]
        ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1) if sups[i] > 0]
        info["divergence_report"] = {
            "contraction_estimates": ratios,
            "advisory": "iteration cap reached; rerun with beta damping enabled "
                        "(larger config.beta) if the contraction estimates are near 1",
        }
    sol = SolutionField(
        space_grid=grid, time_grid=tgrid,
        u_parts=[FieldPart(profiles, np.ones((1, K + 1)))],
        v_parts=[[] for _ in range(coeffs.noise_dim)],
        num_paths=1, trusted=mask,
        deriv_source="analytic", provenance="frozen-picard", info=info,
    )
    rms, worst = integral_form_defect(sol, coeffs)
    sol.residual_rms, sol.residual_worst = rms, worst
    return sol


# -- semilinear Picard ------------------------------------------------------

def solve_semilinear(coeffs: CoefficientSet, paths: PathEnsemble,
                     config: SolverConfig) -> SolutionField:
    """Damped Picard iteration for a Lipschitz driver f(t, x, grad u, u, v).

    Iterates in the damped unknown e^{-beta (T - t)} u; the kernel damping
    turns the Lipschitz bound into a contraction factor that shrinks like
    L (1 - e^{-beta T}) / beta, so raising beta tightens the loop.
    """
    if coeffs.driver is None:
        raise InvalidRoute("solve_semilinear needs a driver; use the linear routes")
    if not coeffs.is_deterministic():
        raise InvalidRoute("semilinear iteration is implemented for deterministic data only")
    if not coeffs.space_invariant:
        raise InvalidRoute("semilinear iteration needs space-invariant a")
    tgrid, grid = config.time_grid, config.space_grid
    beta = 8.0 if config.beta is None else config.beta
    T = tgrid.horizon
    t = tgrid.nodes
    x = grid.axis
    K = tgrid.num_steps
    J = grid.points_per_axis
    mask = _trusted_mask(grid, coeffs.Lam, T)

    kernel = HeatKernel(coeffs.diffusion, beta=beta, horizon=T)
    integrator = _GriddedIntegrator(kernel, tgrid, grid)
    integrator.set_terminal(_terminal_stack(coeffs, grid))
    damp_t = np.exp(-beta * (T - t))
    if coeffs.forcing is not None:
        f_tx = coeffs.forcing.dense(_degenerate_paths(tgrid, 1), x)[0]
    else:
        f_tx = None

    prof = {o: np.zeros((K + 1, J)) for o in range(3)}
    diffs = []
    history = []
    converged = False
    for it in range(1, config.max_iter + 1):
        u_rows = prof[0] / damp_t[:, None]
        q_rows = prof[1] / damp_t[:, None]
        F = np.stack([
            np.asarray(coeffs.driver(t[k], x, q_rows[k], u_rows[k], 0.0), dtype=float)
            * np.ones(J)
            for k in range(K + 1)
        ])
        F *= damp_t[:, None]
        if f_tx is not None:
            F += damp_t[:, None] * f_tx
        new_prof = integrator.solve(_stack_from_rows(F, grid))
        d_m = float(np.max(np.abs((new_prof[0] - prof[0])[:, mask])))
        diffs.append(d_m)
        entry = {"iteration": it, "sup_change": d_m}
        if len(diffs) > 1 and diffs[-2] > 0:
            entry["contraction_factor"] = diffs[-1] / diffs[-2]
        history.append(entry)
        prof = new_prof
        scale = max(1.0, float(np.max(np.abs(prof[0][:, mask]))))
        if d_m < config.tol * scale:
            converged = True
            break

    ratios = [h["contraction_factor"] for h in history if "contraction_factor" in h]
    settled = ratios[1:] if len(ratios) > 1 else ratios
    factor = float(np.exp(np.mean(np.log(np.maximum(settled, 1e-300))))) if settled else np.nan
    info = {"iterations": len(history), "history": history, "converged": converged,
            "beta": beta, "contraction_factor": factor,
            "contraction_history": ratios}
    if ratios and max(ratios) >= 1.0:
        info["advisory"] = (
            f"observed contraction factor {max(ratios):.3g} >= 1 at beta={beta}; "
            "raise beta (doubling is a reasonable schedule)"
        )
    if not converged and len(diffs) >= 3 and diffs[-1] > diffs[-3]:
        raise AssumptionViolation(info["advisory"] if "advisory" in info else
                                  f"Picard iteration diverging at beta={beta}; raise beta")

    profiles = {o: prof[o] / damp_t[:, None] for o in range(3)}
    sol = SolutionField(
        space_grid=grid, time_grid=tgrid,
        u_parts=[FieldPart(profiles, np.ones((1, K + 1)))],
        v_parts=[[] for _ in range(coeffs.noise_dim)],
        num_paths=1, trusted=mask,
        deriv_source="analytic", provenance="semilinear-picard", info=info,
    )
    rms, worst = integral_form_defect(sol, coeffs)
    sol.residual_rms, sol.residual_worst = rms, worst
    return sol


# -- localization -----------------------------------------------------------

@dataclass
class LocalizedProblem:
    """Cutoff-multiplied data (u eta, v eta, Phi eta, f^z_theta) plus checks."""

    bump: BumpField
    u_loc: np.ndarray
    v_loc: list
    phi_loc: np.ndarray
    f_loc: np.ndarray
    source_terms: dict
    residual_rms: float
    residual_worst: float
    parent_residual_rms: float
    covering: dict


def localize(sol: SolutionField, coeffs: CoefficientSet, z: float, theta: float,
             paths: PathEnsemble = None, max_paths: int = 32,
             alpha: float = 0.5) -> LocalizedProblem:
    """Multiply the solution by the bump at (z, theta) and rebuild its equation.

    The localized pair (u eta, v eta) satisfies the frozen-at-z equation with
    a seven-term source; the residual of that equation is certified against
    the parent's.  Also evaluates the covering inequality
    ||h|| <= 2 sup_z ||eta^z h|| + C ||h||_0 on the sample, reporting the
    smallest admissible C.
    """
    for o in (1, 2):
        if not all(o in p.profiles for p in sol.u_parts):
            raise InvalidArgument("localize needs derivative caches on the solution")
    grid, tgrid = sol.space_grid, sol.time_grid
    x = grid.axis
    t = tgrid.nodes
    K = tgrid.num_steps
    bump = BumpField(center=z, radius=theta)
    eta = bump(x)
    eta1 = bump.d1(x)
    eta2 = bump.d2(x)

    stochastic = paths is not None and sol.num_paths > 1
    path_idx, sub = _defect_sample(paths, stochastic, max_paths, tgrid, coeffs.noise_dim)

    u0 = sol.u_dense(0, path_idx)
    u1 = sol.u_dense(1, path_idx)
    u2 = sol.u_dense(2, path_idx)
    d = sol.noise_dim
    v0 = [sol.v_dense(l, 0, path_idx) for l in range(d)]
    sig = np.atleast_1d(np.asarray(coeffs.sigma, dtype=float))

    a_tx, b_tx, c_tx = coeffs.sample(t, x)  # (K+1, J)
    b_tx, c_tx = (np.zeros_like(a_tx) if m is None else m for m in (b_tx, c_tx))
    a_tz = np.array([float(np.atleast_1d(coeffs.a_values(tk, np.atleast_1d(z)))[0])
                     for tk in t])
    if coeffs.forcing is not None:
        f_tx = coeffs.forcing.dense(sub, x)
    elif coeffs.driver is not None:
        f_tx = np.stack([
            np.asarray(coeffs.driver(t[k], x, u1[:, k], u0[:, k],
                                     v0[0][:, k] if d else 0.0), dtype=float)
            * np.ones_like(u0[:, k])
            for k in range(K + 1)], axis=1)
    else:
        f_tx = np.zeros_like(u0)

    terms = {
        "a_commutator": (a_tx - a_tz[:, None])[None] * u2 * eta,
        "sigma_commutator": np.zeros_like(u0),  # sigma is constant in x here
        "drift": b_tx[None] * u1 * eta,
        "zeroth": c_tx[None] * u0 * eta,
        "forcing": f_tx * eta,
        "gradient_cutoff": -2.0 * a_tz[None, :, None] * u1 * eta1,
        "hessian_cutoff": -a_tz[None, :, None] * u0 * eta2,
    }
    f_loc = sum(terms.values())
    u_loc = u0 * eta
    v_loc = [vl * eta for vl in v0]
    phi_loc = u0[:, -1] * eta

    # frozen-equation residual of (u eta, v eta) with the seven-term source
    w2 = u2 * eta + 2.0 * u1 * eta1 + u0 * eta2
    drift = a_tz[None, :, None] * w2 + f_loc
    for l in range(d):
        if sig[l] != 0.0:
            drift = drift + sig[l] * v_loc[l]
    defect = backward_defect(u_loc, phi_loc, drift, tgrid.dt, v_loc,
                             sub.increments if stochastic else None)[..., sol.trusted]
    scale = 1.0 + float(np.abs(phi_loc).max(initial=0.0))
    rms = float(np.sqrt(np.mean(defect**2)) / scale)
    worst = float(np.max(np.abs(defect)) / scale)

    covering = covering_inequality(sol, theta, alpha, path_idx=path_idx)

    return LocalizedProblem(
        bump=bump, u_loc=u_loc, v_loc=v_loc, phi_loc=phi_loc, f_loc=f_loc,
        source_terms=terms, residual_rms=rms, residual_worst=worst,
        parent_residual_rms=sol.residual_rms, covering=covering,
    )


def covering_inequality(sol: SolutionField, theta: float, alpha: float,
                        m: int = 0, path_idx=None, num_centers: int = 9) -> dict:
    """Smallest C with ||u|| <= 2 sup_z ||eta^z u|| + C ||u||_0 on the sample."""
    grid, tgrid = sol.space_grid, sol.time_grid
    u0 = sol.u_dense(0, path_idx)
    f = FieldSample(u0, grid, "L2", tgrid)
    lhs = estimate_norm(f, m, alpha).total
    h0 = estimate_seminorm(f, 0)
    span = grid.radius - 2.0 * theta
    centers = np.linspace(-max(span, 0.0), max(span, 0.0), num_centers)
    masked_best = 0.0
    per_center = []
    for z in centers:
        eta = BumpField(center=float(z), radius=theta)(grid.axis)
        g = FieldSample(u0 * eta, grid, "L2", tgrid)
        val = estimate_norm(g, m, alpha).total
        per_center.append({"z": float(z), "norm": val})
        masked_best = max(masked_best, val)
    C = 0.0 if h0 == 0.0 else max(0.0, (lhs - 2.0 * masked_best) / h0)
    slack = 2.0 * masked_best + C * h0 - lhs
    return {"lhs": lhs, "sup_masked": masked_best, "zero_norm": h0,
            "C": C, "slack": slack, "theta": theta, "alpha": alpha,
            "centers": per_center}


# -- time continuity --------------------------------------------------------

def time_shift_norm(sol: SolutionField, tau: float, alpha: float = 0.5,
                    path_idx=None) -> float:
    """Restricted-interval norm ||u(.) - u(. - tau)||_{alpha, L2, tau}."""
    tgrid = sol.time_grid
    dt = tgrid.dt
    if tau <= 0.0 or tau >= tgrid.horizon:
        raise InvalidShift(f"shift must satisfy 0 < tau < T, got {tau}")
    r = tau / dt
    if abs(r - round(r)) > 1e-9:
        raise InvalidShift(f"shift {tau} is not a multiple of the grid step {dt}")
    r = int(round(r))
    if path_idx is None and sol.num_paths > 64:
        path_idx = np.arange(64)
    u = sol.u_dense(0, path_idx)[..., sol.trusted]
    diff = u[:, r:, :] - u[:, :-r, :]
    sub_grid = TimeGrid(tgrid.horizon - tau, tgrid.num_steps - r)
    f = FieldSample(diff, _masked_grid(sol.space_grid, sol.trusted), "L2", sub_grid)
    return estimate_norm(f, 0, alpha).total
