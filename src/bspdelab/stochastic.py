"""Brownian ensembles, product-form evaluation, and the closed-form linear BSDE family.

Terminal data and forcing terms are finite sums of separable terms

    h(x) * p(path),    p in {1, W^l, (W^l)^2, exp(theta.W - |theta|^2 t / 2)},

which keeps every BSDE solution in product form: a space factor times a
path-indexed time series.  The product form is what lets the solver stream
10^4-path ensembles through kernel convolutions without ever materializing a
dense (path, time, space) cube; `product_dense` is the one place that sums
the product form out, and `backward_defect` the one place that checks a
solution against the backward integral form.

Memory follows the paths read, not the paths declared.  A `PathEnsemble`
draws its rows on demand, as prefixes of one seeded draw, and a
path-dependent series is a `PathSeries`: a function of the Brownian rows,
evaluated only on the paths a caller reads.  A series that is the same on
every path is one shared (1, K+1) row.  Solving builds no per-path array.

No check reads a whole 10^4-path ensemble.  Checks on a scenario's main
solve evaluate a path subset: the oracle comparison the first 512 paths
(the oracle called once per chunk of 16), the integral-form defect the
first 64 and the localized residual the first 32 (each one sample of the
solve, read at once), and the CSV export the first 8, so the ensemble
draws 512 rows.  Checks that read only the trusted region evaluate only
its columns (`SolutionField.restrict`).  The studies solve only what they
measure: the time-shift study the first 64 paths, the a priori study at
most 128.  Least-squares regression reads every row and draws the whole
ensemble once.

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


class PathEnsemble:
    """M independent d-dimensional Brownian paths on a uniform time grid.

    The increments are the C-ordered rows of
    ``default_rng(seed).standard_normal((M, K, d)) * sqrt(dt)``, drawn on
    demand: reading the first n rows draws only those, and the ensemble
    keeps the longest prefix drawn so far as one array.  A prefix drawn from
    the same generator is bit-identical to the same rows of the full draw,
    so an ensemble's memory follows the rows read, not ``num_paths``.
    """

    def __init__(self, num_paths: int, dim: int, time_grid: TimeGrid, seed: int):
        self.num_paths, self.dim = num_paths, dim
        self.time_grid, self.seed = time_grid, seed
        self._drawn = np.empty((0, time_grid.num_steps, dim))
        self._rng = None

    @classmethod
    def of_increments(cls, increments, time_grid: TimeGrid, seed: int) -> "PathEnsemble":
        """The ensemble whose rows are ``increments`` (M, K, d), all drawn."""
        inc = np.asarray(increments, dtype=float)
        if inc.ndim != 3:
            raise InvalidArgument("increments must have shape (paths, steps, dim)")
        if inc.shape[1] != time_grid.num_steps:
            raise InvalidArgument("increment count must match the time grid")
        ens = cls(inc.shape[0], inc.shape[2], time_grid, seed)
        ens._drawn = inc
        return ens

    def _head(self, n: int) -> np.ndarray:
        """The first n rows of the increments, drawing the missing ones."""
        missing = n - len(self._drawn)
        if missing > 0:
            if self._rng is None:
                self._rng = np.random.default_rng(self.seed)
            more = self._rng.standard_normal((missing,) + self._drawn.shape[1:])
            more *= np.sqrt(self.time_grid.dt)
            self._drawn = np.concatenate([self._drawn, more])
        return self._drawn[:n]

    @property
    def increments(self) -> np.ndarray:
        """Every row, (M, K, d): draws the whole ensemble once."""
        return self._head(self.num_paths)

    @property
    def paths(self) -> np.ndarray:
        """W on the grid nodes, shape (M, K+1, d), W_0 = 0."""
        inc = self.increments
        M, K, d = inc.shape
        out = np.zeros((M, K + 1, d))
        np.cumsum(inc, axis=1, out=out[:, 1:, :])
        return out

    def subset(self, path_idx) -> "PathEnsemble":
        """The paths at ``path_idx`` (indices or a slice), on the same grid
        and with the same seed; draws rows only up to the largest index."""
        if isinstance(path_idx, slice):
            path_idx = range(self.num_paths)[path_idx]
        idx = np.asarray(path_idx, dtype=int).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_paths):
            raise IndexError(f"path index out of range for {self.num_paths} paths")
        rows = self._head(int(idx.max(initial=-1)) + 1)[idx]
        return PathEnsemble.of_increments(rows, self.time_grid, self.seed)


def sample_paths(M: int, d: int, grid: TimeGrid, seed: int = 0) -> PathEnsemble:
    """M paths of d-dimensional Brownian motion on ``grid``, drawn on demand."""
    if M < 1 or d < 1:
        raise InvalidArgument("need at least one path and one component")
    return PathEnsemble(M, d, grid, seed)


class PathSeries:
    """A path-indexed time series, (num_paths, K+1), evaluated only on the
    paths read: ``fn`` maps the Brownian rows W (n, K+1, d) of n paths to
    the series on them, (n, K+1).  Each row depends on its own path only, so
    any subset of rows has the bits of the same rows of the whole series."""

    def __init__(self, paths: PathEnsemble, fn: Callable):
        self.paths, self.fn = paths, fn

    def rows(self, path_idx) -> np.ndarray:
        """The series on the paths at ``path_idx`` (None for every path)."""
        sub = self.paths if path_idx is None else self.paths.subset(path_idx)
        return self.fn(sub.paths)

    def scaled(self, c) -> "PathSeries":
        """The series times the scalar c."""
        return PathSeries(self.paths, lambda W: self.fn(W) * c)


def series_rows(series, path_idx) -> np.ndarray:
    """A series on the paths at ``path_idx`` (None for all): a PathSeries is
    evaluated on them, a (1, K+1) row is shared by every path and returned
    as is, and the rows of an (M, K+1) array are picked."""
    if isinstance(series, PathSeries):
        return series.rows(path_idx)
    if path_idx is None or series.shape[0] == 1:
        return series
    return series[path_idx]


def product_dense(pieces, shape, path_idx=None) -> np.ndarray:
    """Sum of series(path, t) * profile(t, x) over (series, profile) pairs.

    ``shape`` is the (paths, times, points) result over every path, and
    ``path_idx`` (None for all) the paths evaluated: the result has one row
    per index.  Each series is read on those paths only (`series_rows`): a
    one-row series is shared by every path, and a PathSeries draws and
    evaluates only the rows asked for.  A (J,) profile is constant in t.

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
        out += series_rows(series, path_idx)[:, :, None] * profile
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

    fn: Callable
    d1: Callable
    d2: Callable
    d3: Callable

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @classmethod
    def sine(cls, freq: float = 1.0, phase: float = 0.0):
        return cls(
            fn=lambda x: np.sin(freq * x + phase),
            d1=lambda x: freq * np.cos(freq * x + phase),
            d2=lambda x: -freq**2 * np.sin(freq * x + phase),
            d3=lambda x: -freq**3 * np.cos(freq * x + phase),
        )

    @classmethod
    def poly(cls, coeffs):
        c = np.polynomial.Polynomial(list(coeffs))
        return cls(fn=c, d1=c.deriv(1), d2=c.deriv(2), d3=c.deriv(3))

    @classmethod
    def constant(cls, value: float):
        return cls(
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

    def series(self, paths: PathEnsemble):
        """Factor value at every grid time: one (1, K+1) row for CONST, a
        PathSeries (M, K+1) otherwise."""
        if self.kind == CONST:
            return np.ones((1, len(paths.time_grid)))
        l, nodes = self.component, paths.time_grid.nodes
        if self.kind == BM:
            return PathSeries(paths, lambda W: W[:, :, l])
        if self.kind == BM_SQUARED:
            return PathSeries(paths, lambda W: W[:, :, l] ** 2)
        th = np.asarray(self.theta, dtype=float)
        return PathSeries(paths, lambda W: np.exp(W @ th - 0.5 * float(th @ th) * nodes[None, :]))

    def terminal(self, paths: PathEnsemble) -> np.ndarray:
        """Factor value at the terminal time, shape (M,), or (1,) for CONST."""
        return series_rows(self.series(paths), None)[:, -1]


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
    series: object  # a PathSeries (M, K+1), or one (1, K+1) row shared by every path


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
    series: object  # a PathSeries (M, K+1) in t, or one (1, K+1) row shared by every path
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
        def scaled(series, b):
            return series.scaled(b) if isinstance(series, PathSeries) else series * b

        def read(terms):
            return [TermSeries(t.space, scaled(t.series, t.tau_fn(tau))) for t in terms]
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
    y_terms = []
    g_terms = [[] for _ in range(d)]
    for h, p in data.terms:
        _add_family_pieces(h, p, sig, paths, y_terms, g_terms)
    return SecondFamilySolution(y_terms=y_terms, g_terms=g_terms,
                                time_grid=grid, num_paths=paths.num_paths)


def _one_fn(tau):
    """B(tau) = 1, shared by every family piece that does not depend on tau."""
    return np.ones_like(tau, dtype=float)


def _add_family_pieces(h: SpaceFactor, p: PathFactor, sig: np.ndarray,
                       paths: PathEnsemble, y_terms: list, g_terms: list):
    """The family pieces of one separable term h(x) p(path); the
    path-dependent ones are PathSeries, the rest one shared row."""
    nodes = paths.time_grid.nodes
    ones = np.ones((1, len(nodes)))  # one row, shared by every path
    l = p.component
    # W_t + sigma_l (tau - t) = X_t + sigma_l tau
    X = lambda W: W[:, :, l] - sig[l] * nodes[None, :]
    if p.kind == CONST:
        y_terms.append(TauSeries(h, ones.copy(), _one_fn))
    elif p.kind == BM:
        y_terms.append(TauSeries(h, PathSeries(paths, X), _one_fn))
        if sig[l] != 0.0:
            y_terms.append(TauSeries(h, ones.copy(), lambda tau, s=sig[l]: s * tau))
        g_terms[l].append(TauSeries(h, ones.copy(), _one_fn))
    elif p.kind == BM_SQUARED:
        # (X + sigma tau)^2 + tau - t, expanded in powers of tau
        y_terms.append(TauSeries(h, PathSeries(paths, lambda W: X(W)**2 - nodes[None, :]),
                                 _one_fn))
        y_terms.append(TauSeries(h, PathSeries(paths, lambda W: 2.0 * sig[l] * X(W) + ones),
                                 lambda tau: tau))
        g_terms[l].append(TauSeries(h, PathSeries(paths, lambda W: 2.0 * X(W)), _one_fn))
        if sig[l] != 0.0:
            # C pow, as tau**2 on a Python float gives it (an array's ** 2 squares)
            y_terms.append(TauSeries(h, ones.copy(),
                                     lambda tau, s=sig[l]: s**2 * np.float_power(tau, 2)))
            g_terms[l].append(TauSeries(h, ones.copy(), lambda tau, s=sig[l]: 2.0 * s * tau))
    else:  # EXP_MART
        th = np.asarray(p.theta, dtype=float)
        if th.shape != (paths.dim,):
            raise UnsupportedClosedForm("theta length must match path dimension")
        base = PathSeries(paths, lambda W: np.exp(
            W @ th - 0.5 * float(th @ th) * nodes[None, :]
            - float(th @ sig) * nodes[None, :]
        ))
        efn = lambda tau, c=float(th @ sig): np.exp(c * tau)
        y_terms.append(TauSeries(h, base, efn))
        for k in range(len(th)):
            if th[k] != 0.0:
                g_terms[k].append(TauSeries(h, base.scaled(th[k]), efn))


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
    inc = paths.increments  # every row, drawn once
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
            targets.append(nxt * (inc[:, k, l] / grid.dt)[:, None])
        rhs = A.T @ np.concatenate(targets, axis=1)
        coef = np.linalg.solve(gram, rhs)
        fitted = A @ coef
        cond_exp = fitted[:, :J]
        for l in range(d):
            psi[l, :, k, :] = fitted[:, (l + 1) * J:(l + 2) * J]
        phi[:, k, :] = cond_exp + np.einsum("l,lmj->mj", sig, psi[:, :, k, :]) * grid.dt

    return RegressionSolution(phi=phi, psi=psi, condition_numbers=conds)
