"""Brownian ensembles, product-form evaluation, and the closed-form linear BSDE family.

Terminal data and forcing terms are finite sums of separable terms

    h(x) * p(path),    p in {1, W^l, (W^l)^2, exp(theta.W - |theta|^2 t / 2)},

which keeps every BSDE solution in product form: a space factor times a
path-indexed time series.  The product form is what lets the solver stream
10^4-path ensembles through kernel convolutions without ever materializing a
dense (path, time, space) cube; `product_dense` is the one place that sums
the product form out, and `backward_defect` the one place that checks a
solution against the backward integral form.

No check builds a (path, time, lattice) array over a whole 10^4-path
ensemble.  Checks on a scenario's main solve evaluate a path subset: the
oracle comparison the first 512 paths (the oracle called once per chunk of
16), the integral-form defect the first 64, the localized residual the
first 32, and the CSV export the first 8.  Checks that read only the
trusted region evaluate only its columns (`SolutionField.restrict`).  The
studies solve only what they measure: the time-shift study the first 64
paths (`sample_paths` draws them as the first 64 rows of the full
ensemble), the a priori study at most 128.

One closed-form family, `solve_second_family`, solves the linear BSDE with
terminal data f(tau, x) at every terminal time tau at once; forcing reads it
at every tau, and terminal data Phi reads it at tau = T (`solve_bsde_closed`).
Closed forms assume a constant deterministic vector sigma; anything richer
raises UnsupportedClosedForm.  Least-squares regression
(`solve_bsde_regression`) is no fallback: it recovers the same solutions from
samples alone, as an independent cross-check of the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidArgument,
    SingularRegression,
    UnsupportedClosedForm,
)
from .grid import TimeGrid


@dataclass(frozen=True)
class PathEnsemble:
    """M independent d-dimensional Brownian paths on a uniform time grid."""

    increments: np.ndarray  # (M, K, d)
    time_grid: TimeGrid
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 3:
            raise InvalidArgument("increments must have shape (paths, steps, dim)")
        if inc.shape[1] != self.time_grid.num_steps:
            raise InvalidArgument("increment count must match the time grid")
        object.__setattr__(self, "increments", inc)

    @property
    def num_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    @property
    def paths(self) -> np.ndarray:
        """W on the grid nodes, shape (M, K+1, d), W_0 = 0."""
        M, K, d = self.increments.shape
        out = np.zeros((M, K + 1, d))
        np.cumsum(self.increments, axis=1, out=out[:, 1:, :])
        return out

    def subset(self, path_idx) -> "PathEnsemble":
        """The paths at ``path_idx``, on the same grid and with the same seed."""
        return PathEnsemble(self.increments[path_idx], self.time_grid, self.seed)


def sample_paths(M: int, d: int, grid: TimeGrid, seed: int = 0) -> PathEnsemble:
    if M < 1 or d < 1:
        raise InvalidArgument("need at least one path and one component")
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((M, grid.num_steps, d)) * np.sqrt(grid.dt)
    return PathEnsemble(increments=inc, time_grid=grid, seed=seed)


def product_dense(pieces, shape, path_idx=None) -> np.ndarray:
    """Sum of series(path, t) * profile(t, x) over (series, profile) pairs.

    ``shape`` is the (paths, times, points) result over every path.  A
    one-row series is shared by every path, otherwise ``path_idx`` (None for
    all) picks its rows and the result has one row per index; a (J,)
    profile is constant in t.

    The result is C-ordered unless a (K+1, J) profile has its column axis
    outermost in memory, as a column slice ``profile[:, columns]`` has: then
    the result is laid out like ``cube[..., columns]`` of a C-ordered cube
    (columns outermost, then paths, then times), so sums and means over it
    add in the same order as over the sliced cube.
    """
    if path_idx is not None:
        path_idx = np.atleast_1d(np.asarray(path_idx))
        shape = (len(path_idx),) + tuple(shape[1:])
    if any(p.ndim == 2 and p.strides[1] > p.strides[0] for _, p in pieces):
        M, K1, J = shape
        out = np.zeros((J, M, K1)).transpose(1, 2, 0)
    else:
        out = np.zeros(shape)
    for series, profile in pieces:
        if path_idx is not None and series.shape[0] > 1:
            series = series[path_idx]
        out += series[:, :, None] * profile
    return out


def _tail_sum(step: np.ndarray) -> np.ndarray:
    """sum_{j >= k} step[:, j] at every k, with a zero row appended for t = T."""
    tail = np.cumsum(step[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([tail, np.zeros_like(step[:, :1])], axis=1)


def backward_defect(u, terminal, drift, dt: float, v=(), dW=None) -> np.ndarray:
    """u - (Phi + int_t^T drift ds - sum_l int_t^T v_l dW^l) on every node.

    ``u`` and ``drift`` are (Mp, K+1, J), ``terminal`` is (Mp, J) and ``v``
    holds one (Mp, K+1, J) array per noise component.  With increments
    ``dW`` (Mp, K, d) both integrals are left-endpoint Riemann/Ito sums per
    path; without them the drift integral is the trapezoid rule and v drops.
    """
    if dW is None:
        R = np.cumsum((drift * dt)[:, ::-1], axis=1)[:, ::-1]
        tail = R - 0.5 * dt * (drift + drift[:, -1:])
        return u - (terminal[:, None, :] + tail)
    K = dW.shape[1]
    mart = np.zeros_like(drift[:, :K])
    for l, vl in enumerate(v):
        mart += vl[:, :K] * dW[:, :, l][:, :, None]
    return u - (terminal[:, None, :] + _tail_sum(drift[:, :K] * dt) - _tail_sum(mart))


# -- separable data -------------------------------------------------------

@dataclass(frozen=True)
class SpaceFactor:
    """Closed-form scalar factor h(x) with derivatives, x scalar (n = 1)."""

    label: str
    fn: Callable
    d1: Callable
    d2: Callable
    d3: Callable

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @classmethod
    def sine(cls, freq: float = 1.0, phase: float = 0.0):
        return cls(
            label=f"sin({freq}x+{phase})",
            fn=lambda x: np.sin(freq * x + phase),
            d1=lambda x: freq * np.cos(freq * x + phase),
            d2=lambda x: -freq**2 * np.sin(freq * x + phase),
            d3=lambda x: -freq**3 * np.cos(freq * x + phase),
        )

    @classmethod
    def poly(cls, coeffs):
        c = np.polynomial.Polynomial(list(coeffs))
        return cls(
            label=f"poly{tuple(coeffs)}",
            fn=c, d1=c.deriv(1), d2=c.deriv(2), d3=c.deriv(3),
        )

    @classmethod
    def constant(cls, value: float):
        return cls(
            label=f"const({value})",
            fn=lambda x: np.full_like(np.asarray(x, dtype=float), value),
            d1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d3=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )

    @classmethod
    def abs_value(cls):
        # |x| is C^alpha but not C^1 at the origin; derivative fields are the
        # a.e. ones and the kink is the point of the scenario using it
        return cls(
            label="abs",
            fn=lambda x: np.abs(x),
            d1=lambda x: np.sign(x),
            d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d3=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )


CONST = "const"
BM = "bm"
BM_SQUARED = "bm_squared"
EXP_MART = "exp_mart"


@dataclass(frozen=True)
class PathFactor:
    kind: str
    component: int = 0
    theta: tuple = ()

    def __post_init__(self):
        if self.kind not in (CONST, BM, BM_SQUARED, EXP_MART):
            raise InvalidArgument(f"unknown path factor kind {self.kind!r}")

    def series(self, paths: PathEnsemble) -> np.ndarray:
        """Factor value at every grid time, shape (M, K+1)."""
        W = paths.paths
        if self.kind == CONST:
            return np.ones((paths.num_paths, len(paths.time_grid)))
        if self.kind == BM:
            return W[:, :, self.component]
        if self.kind == BM_SQUARED:
            return W[:, :, self.component] ** 2
        th = np.asarray(self.theta, dtype=float)
        return np.exp(W @ th - 0.5 * float(th @ th) * paths.time_grid.nodes[None, :])

    def terminal(self, paths: PathEnsemble) -> np.ndarray:
        """Factor value at the terminal time, shape (M,)."""
        return self.series(paths)[:, -1]


@dataclass(frozen=True)
class DataFunctional:
    """Finite sum of separable terms h_i(x) * p_i(path)."""

    terms: tuple  # of (SpaceFactor, PathFactor)

    def terminal_values(self, paths: PathEnsemble, x) -> np.ndarray:
        """Phi(x) per path, shape (M, len(x))."""
        x = np.atleast_1d(x)
        return product_dense([(p.terminal(paths)[:, None], h(x)) for h, p in self.terms],
                             (paths.num_paths, 1, len(x)))[:, 0]

    def dense(self, paths: PathEnsemble, x) -> np.ndarray:
        """The data read at running time, f(t_k, x) per path, (M, K+1, len(x))."""
        x = np.atleast_1d(x)
        return product_dense([(p.series(paths), h(x)) for h, p in self.terms],
                             (paths.num_paths, len(paths.time_grid), len(x)))

    def is_deterministic(self) -> bool:
        return all(p.kind == CONST for _, p in self.terms)

    @classmethod
    def deterministic(cls, h: SpaceFactor):
        return cls(terms=((h, PathFactor(CONST)),))


# -- BSDE solutions in product form ---------------------------------------

@dataclass
class TermSeries:
    """One separable piece: space factor times a path-time series."""

    space: SpaceFactor
    series: np.ndarray  # (M, K+1); one row when it is the same on every path


@dataclass
class BsdeSolution:
    """Solution (phi, psi) for one terminal time as sums of product terms;
    `SecondFamilySolution.at` reads it off the family."""

    phi_terms: list  # of TermSeries
    psi_terms: list  # psi_terms[l] is a list of TermSeries
    time_grid: TimeGrid
    num_paths: int

    def _dense(self, terms, x) -> np.ndarray:
        x = np.atleast_1d(x)
        return product_dense([(t.series, t.space(x)) for t in terms],
                             (self.num_paths, len(self.time_grid), len(x)))

    def phi_dense(self, x) -> np.ndarray:
        return self._dense(self.phi_terms, x)

    def psi_dense(self, l: int, x) -> np.ndarray:
        return self._dense(self.psi_terms[l], x)


@dataclass
class TauSeries:
    """Separable family piece: h(x) * A(t, path) * B(tau)."""

    space: SpaceFactor
    series: np.ndarray  # (M, K+1) in t; one row when it is the same on every path
    tau_fn: Callable  # smooth B: an array of tau -> B(tau), the same shape


@dataclass
class SecondFamilySolution:
    """Family (Y(.;tau), g(.;tau)) for all terminal times tau at once; at
    tau = T it is the solution for terminal data."""

    y_terms: list  # of TauSeries
    g_terms: list  # g_terms[l] is a list of TauSeries
    time_grid: TimeGrid
    num_paths: int

    def at(self, tau: float) -> BsdeSolution:
        """The member with terminal time tau, its B(tau) folded into A."""
        def read(terms):
            return [TermSeries(t.space, t.series * t.tau_fn(tau)) for t in terms]
        return BsdeSolution(phi_terms=read(self.y_terms),
                            psi_terms=[read(g) for g in self.g_terms],
                            time_grid=self.time_grid, num_paths=self.num_paths)


def _check_sigma(sigma, d: int) -> np.ndarray:
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim == 0:
        sig = sig.reshape(1)
    if sig.shape != (d,):
        raise UnsupportedClosedForm(
            "closed forms need a constant sigma vector matching the path dimension"
        )
    return sig


def solve_bsde_closed(data: DataFunctional, sigma, paths: PathEnsemble) -> BsdeSolution:
    """Closed-form (phi, psi) for library terminal data under constant sigma:
    the family of `solve_second_family` read at tau = T."""
    return solve_second_family(data, sigma, paths).at(paths.time_grid.horizon)


def solve_second_family(data: DataFunctional, sigma, paths: PathEnsemble) -> SecondFamilySolution:
    """Closed-form family (Y(.;tau), g(.;tau)) with terminal data f(tau, x)
    at every terminal time tau, for data built from library path factors.

    Each separable term contributes independently (the equation is linear).
    The tau-dependence of every library factor is polynomial or exponential,
    so Y(t; tau) = sum_p h(x) A_p(t, path) B_p(tau) with smooth B_p; the
    solver folds tau into deterministic time integrals, and `at(T)` is the
    solution for terminal data.  Constant and W^l terms are exact at the
    discrete level; (W^l)^2 and exponential-martingale terms carry an
    O(sqrt(dt)) pathwise discretization residual.
    """
    d = paths.dim
    sig = _check_sigma(sigma, d)
    grid = paths.time_grid
    W = paths.paths
    M = paths.num_paths
    ones = np.ones((1, len(grid)))  # one row, shared by every path
    one_fn = lambda tau: np.ones_like(tau, dtype=float)

    y_terms = []
    g_terms = [[] for _ in range(d)]
    for h, p in data.terms:
        if p.kind == CONST:
            y_terms.append(TauSeries(h, ones.copy(), one_fn))
        elif p.kind == BM:
            l = p.component
            # W_t + sigma_l (tau - t) = (W_t - sigma_l t) + sigma_l tau
            X = W[:, :, l] - sig[l] * grid.nodes[None, :]
            y_terms.append(TauSeries(h, X, one_fn))
            if sig[l] != 0.0:
                y_terms.append(TauSeries(h, ones.copy(), lambda tau, s=sig[l]: s * tau))
            g_terms[l].append(TauSeries(h, ones.copy(), one_fn))
        elif p.kind == BM_SQUARED:
            l = p.component
            X = W[:, :, l] - sig[l] * grid.nodes[None, :]
            # (X + sigma tau)^2 + tau - t, expanded in powers of tau
            y_terms.append(TauSeries(h, X**2 - grid.nodes[None, :], one_fn))
            y_terms.append(TauSeries(h, 2.0 * sig[l] * X + ones, lambda tau: tau))
            g_terms[l].append(TauSeries(h, 2.0 * X, one_fn))
            if sig[l] != 0.0:
                # C pow, as tau**2 on a Python float gives it (an array's ** 2 squares)
                y_terms.append(TauSeries(h, ones.copy(),
                                         lambda tau, s=sig[l]: s**2 * np.float_power(tau, 2)))
                g_terms[l].append(TauSeries(h, ones.copy(), lambda tau, s=sig[l]: 2.0 * s * tau))
        else:  # EXP_MART
            th = np.asarray(p.theta, dtype=float)
            if th.shape != (d,):
                raise UnsupportedClosedForm("theta length must match path dimension")
            base = np.exp(
                W @ th - 0.5 * float(th @ th) * grid.nodes[None, :]
                - float(th @ sig) * grid.nodes[None, :]
            )
            efn = lambda tau, c=float(th @ sig): np.exp(c * tau)
            y_terms.append(TauSeries(h, base, efn))
            for l in range(d):
                if th[l] != 0.0:
                    g_terms[l].append(TauSeries(h, th[l] * base, efn))

    return SecondFamilySolution(y_terms=y_terms, g_terms=g_terms,
                                time_grid=grid, num_paths=M)


# -- regression cross-check ------------------------------------------------

def _poly_basis(W_k: np.ndarray, degree: int) -> np.ndarray:
    """Monomials in the components of W at one time, total degree <= degree."""
    M, d = W_k.shape
    cols = [np.ones(M)]
    from itertools import combinations_with_replacement

    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), deg):
            col = np.ones(M)
            for c in combo:
                col = col * W_k[:, c]
            cols.append(col)
    return np.stack(cols, axis=1)


@dataclass
class RegressionSolution:
    """Dense backward-induction estimate of (phi, psi) on sample x nodes."""

    phi: np.ndarray  # (M, K+1, J)
    psi: np.ndarray  # (d, M, K+1, J)
    condition_numbers: np.ndarray


_REGRESSION_DEGREE = 3  # total degree of the polynomial basis in W_{t_k}
_REGRESSION_COND_LIMIT = 1e10  # largest admissible condition of the normal equations


def solve_bsde_regression(terminal: np.ndarray, sigma,
                          paths: PathEnsemble) -> RegressionSolution:
    """Least-squares Monte Carlo backward induction.

    terminal: per-path terminal values, shape (M,) or (M, J) for J space
    nodes sharing the same path ensemble.  At each step the conditional
    expectations are projected on polynomials of degree 3 in W_{t_k}:

        psi_l(t_k) = E[phi(t_{k+1}) dW^l_k | W_{t_k}] / dt
        phi(t_k)   = E[phi(t_{k+1}) | W_{t_k}] + sigma . psi(t_k) dt
    """
    grid = paths.time_grid
    d = paths.dim
    sig = _check_sigma(sigma, d)
    term = np.asarray(terminal, dtype=float)
    if term.ndim == 1:
        term = term[:, None]
    M, J = term.shape
    if M != paths.num_paths:
        raise InvalidArgument("terminal sample count must match the ensemble")
    W = paths.paths
    K = grid.num_steps

    phi = np.zeros((M, K + 1, J))
    psi = np.zeros((d, M, K + 1, J))
    phi[:, K, :] = term
    conds = np.zeros(K)

    for k in range(K - 1, -1, -1):
        # at t_0 the filtration is trivial (W_0 = 0): project on constants only
        A = _poly_basis(W[:, k, :], _REGRESSION_DEGREE if k > 0 else 0)
        gram = A.T @ A
        cond = np.linalg.cond(gram)
        conds[k] = cond
        if cond > _REGRESSION_COND_LIMIT:
            raise SingularRegression(
                f"normal equations at step {k} have condition {cond:.3g}"
            )
        nxt = phi[:, k + 1, :]  # (M, J)
        targets = [nxt]
        for l in range(d):
            targets.append(nxt * (paths.increments[:, k, l] / grid.dt)[:, None])
        rhs = A.T @ np.concatenate(targets, axis=1)
        coef = np.linalg.solve(gram, rhs)
        fitted = A @ coef
        cond_exp = fitted[:, :J]
        for l in range(d):
            psi[l, :, k, :] = fitted[:, (l + 1) * J:(l + 2) * J]
        phi[:, k, :] = cond_exp + np.einsum("l,lmj->mj", sig, psi[:, :, k, :]) * grid.dt

    return RegressionSolution(phi=phi, psi=psi, condition_numbers=conds)
