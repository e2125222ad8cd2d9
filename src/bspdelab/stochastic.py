"""Brownian ensembles, product-form evaluation, and the two linear BSDE families.

Terminal data and forcing terms are finite sums of separable terms

    h(x) * p(path),    p in {1, W^l, (W^l)^2, exp(theta.W - |theta|^2 t / 2)},

which keeps every BSDE solution in product form: a space factor times a
path-indexed time series.  The product form is what lets the solver stream
10^4-path ensembles through kernel convolutions without ever materializing a
dense (path, time, space) cube; `product_dense` is the one place that sums
the product form out, and `backward_defect` the one place that checks a
solution against the backward integral form.

Closed forms assume a constant deterministic vector sigma; anything richer
falls back to least-squares regression (`solve_bsde_regression`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    InvalidArgument,
    SingularRegression,
    UnsupportedClosedForm,
)
from .grid import TimeGrid

_MAGIC = b"BWPE"


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

    def save(self, path):
        """Flat binary: magic, int64 header (M, d, K, seed), row-major
        little-endian float64 increments."""
        p = Path(path)
        M, K, d = self.increments.shape
        with open(p, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<4q", M, d, K, self.seed))
            fh.write(self.increments.astype("<f8").tobytes(order="C"))

    @classmethod
    def load(cls, path, time_grid: TimeGrid = None, horizon: float = 1.0):
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise InvalidArgument("not a path-ensemble file")
            M, d, K, seed = struct.unpack("<4q", fh.read(32))
            inc = np.frombuffer(fh.read(M * K * d * 8), dtype="<f8").reshape(M, K, d)
        grid = time_grid or TimeGrid(horizon, K)
        return cls(increments=inc.copy(), time_grid=grid, seed=seed)


def sample_paths(M: int, d: int, grid: TimeGrid, seed: int = 0) -> PathEnsemble:
    if M < 1 or d < 1:
        raise InvalidArgument("need at least one path and one component")
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((M, grid.num_steps, d)) * np.sqrt(grid.dt)
    return PathEnsemble(increments=inc, time_grid=grid, seed=seed)


def product_dense(pieces, shape, path_idx=None) -> np.ndarray:
    """Sum of series(path, t) * profile(t, x) over (series, profile) pairs.

    ``shape`` is the (paths, times, points) result.  A one-row series is
    shared by every path, otherwise ``path_idx`` (None for all) picks its
    rows; a (J,) profile is constant in t.
    """
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
    d3: Callable = None

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
    holder_class: float = 1.5  # claimed m + alpha regularity of the space part

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
    series: np.ndarray  # (M, K+1)


@dataclass
class BsdeSolution:
    """First-family solution (phi, psi) as sums of product terms."""

    phi_terms: list  # of TermSeries
    psi_terms: list  # psi_terms[l] is a list of TermSeries
    time_grid: TimeGrid
    num_paths: int
    provenance: str
    residual_rms: float = np.nan
    residual_worst: float = np.nan
    regression_cond: float = np.nan

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
    """Separable second-family piece: h(x) * A(t, path) * B(tau)."""

    space: SpaceFactor
    series: np.ndarray  # (M, K+1) in t
    tau_fn: Callable  # scalar tau -> float, smooth


@dataclass
class SecondFamilySolution:
    """Family (Y(.;tau), g(.;tau)) for all terminal times tau at once."""

    y_terms: list  # of TauSeries
    g_terms: list  # g_terms[l] is a list of TauSeries
    time_grid: TimeGrid
    num_paths: int
    provenance: str

    def _dense(self, terms, tau: float, x) -> np.ndarray:
        x = np.atleast_1d(x)
        return product_dense([(t.series * t.tau_fn(tau), t.space(x)) for t in terms],
                             (self.num_paths, len(self.time_grid), len(x)))

    def y_dense(self, tau: float, x) -> np.ndarray:
        return self._dense(self.y_terms, tau, x)

    def g_dense(self, l: int, tau: float, x) -> np.ndarray:
        return self._dense(self.g_terms[l], tau, x)


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
    """Closed-form (phi, psi) for library terminal data under constant sigma.

    Each separable term contributes independently (the equation is linear):
      1          -> (h, 0)
      W^l_T      -> (h (W^l_t + sigma_l (T - t)), psi_l = h)
      (W^l_T)^2  -> (h [(W^l_t + sigma_l (T-t))^2 + (T-t)],
                     psi_l = 2 h (W^l_t + sigma_l (T-t)))
      exp mart   -> (h E_t exp(...), psi_l = theta_l phi)
    The first two are exact at the discrete level; the last two carry an
    O(sqrt(dt)) pathwise discretization residual, which is reported.
    """
    d = paths.dim
    sig = _check_sigma(sigma, d)
    grid = paths.time_grid
    W = paths.paths
    T = grid.horizon
    rem = T - grid.nodes  # (K+1,)
    M = paths.num_paths
    ones = np.ones((M, len(grid)))

    phi_terms = []
    psi_terms = [[] for _ in range(d)]
    for h, p in data.terms:
        if p.kind == CONST:
            phi_terms.append(TermSeries(h, ones.copy()))
        elif p.kind == BM:
            l = p.component
            drifted = W[:, :, l] + sig[l] * rem[None, :]
            phi_terms.append(TermSeries(h, drifted))
            psi_terms[l].append(TermSeries(h, ones.copy()))
        elif p.kind == BM_SQUARED:
            l = p.component
            drifted = W[:, :, l] + sig[l] * rem[None, :]
            phi_terms.append(TermSeries(h, drifted**2 + rem[None, :]))
            psi_terms[l].append(TermSeries(h, 2.0 * drifted))
        else:  # EXP_MART
            th = np.asarray(p.theta, dtype=float)
            if th.shape != (d,):
                raise UnsupportedClosedForm("theta length must match path dimension")
            series = np.exp(
                W @ th - 0.5 * float(th @ th) * grid.nodes[None, :]
                + float(th @ sig) * rem[None, :]
            )
            phi_terms.append(TermSeries(h, series))
            for l in range(d):
                if th[l] != 0.0:
                    psi_terms[l].append(TermSeries(h, th[l] * series))

    sol = BsdeSolution(
        phi_terms=phi_terms, psi_terms=psi_terms,
        time_grid=grid, num_paths=M, provenance="closed-form",
    )
    rms, worst = bsde_residual(sol, data, sig, paths)
    sol.residual_rms, sol.residual_worst = rms, worst
    return sol


def bsde_residual(sol: BsdeSolution, data: DataFunctional, sigma, paths: PathEnsemble,
                  x=None) -> tuple:
    """Defect of the backward integral form at every grid time, evaluated at
    sample space points; returns (rms, worst-path max)."""
    if x is None:
        x = np.array([-1.0, 0.0, 0.7])
    x = np.atleast_1d(x)
    sig = _check_sigma(sigma, paths.dim)
    psi = [sol.psi_dense(l, x) for l in range(paths.dim)]  # d x (M, K+1, J)
    terminal = data.terminal_values(paths, x)  # (M, J)
    drift = np.einsum("l,lmkj->mkj", sig, np.asarray(psi))
    defect = backward_defect(sol.phi_dense(x), terminal, drift, paths.time_grid.dt,
                             psi, paths.increments)
    scale = 1.0 + np.abs(terminal).max()
    rms = float(np.sqrt(np.mean(defect**2)) / scale)
    worst = float(np.max(np.abs(defect)) / scale)
    return rms, worst


def solve_second_family(data: DataFunctional, sigma, paths: PathEnsemble) -> SecondFamilySolution:
    """Closed-form family (Y(.;tau), g(.;tau)) for forcing f(tau, x) built
    from library path factors, separably in tau.

    The tau-dependence of every library factor is polynomial or exponential,
    so Y(t; tau) = sum_p h(x) A_p(t, path) B_p(tau) with smooth B_p; the
    solver exploits this to fold tau into deterministic time integrals.
    """
    d = paths.dim
    sig = _check_sigma(sigma, d)
    grid = paths.time_grid
    W = paths.paths
    M = paths.num_paths
    ones = np.ones((M, len(grid)))
    one_fn = lambda tau: 1.0

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
            y_terms.append(
                TauSeries(h, 2.0 * sig[l] * X + ones, lambda tau: tau)
            )
            if sig[l] != 0.0:
                y_terms.append(
                    TauSeries(h, ones.copy(), lambda tau, s=sig[l]: s**2 * tau**2)
                )
            g_terms[l].append(TauSeries(h, 2.0 * X, one_fn))
            g_terms[l].append(
                TauSeries(h, ones.copy(), lambda tau, s=sig[l]: 2.0 * s * tau)
            )
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

    return SecondFamilySolution(
        y_terms=y_terms, g_terms=g_terms, time_grid=grid,
        num_paths=M, provenance="closed-form",
    )


# -- regression fallback ---------------------------------------------------

def _poly_basis(W_k: np.ndarray, degree: int = 3) -> np.ndarray:
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
    x: np.ndarray
    time_grid: TimeGrid
    condition_numbers: np.ndarray
    provenance: str = "regression"


def solve_bsde_regression(terminal: np.ndarray, sigma, paths: PathEnsemble,
                          x=None, degree: int = 3,
                          cond_limit: float = 1e10) -> RegressionSolution:
    """Least-squares Monte Carlo backward induction.

    terminal: per-path terminal values, shape (M,) or (M, J) for J space
    nodes sharing the same path ensemble.  At each step the conditional
    expectations are projected on polynomials in W_{t_k}:

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
        A = _poly_basis(W[:, k, :], degree if k > 0 else 0)
        gram = A.T @ A
        cond = np.linalg.cond(gram)
        conds[k] = cond
        if cond > cond_limit:
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

    return RegressionSolution(
        phi=phi, psi=psi,
        x=np.atleast_1d(x) if x is not None else np.zeros(J),
        time_grid=grid, condition_numbers=conds,
    )
