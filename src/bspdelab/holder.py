"""Holder-norm estimation for sampled random fields.

A field sample holds values on (path, time, space) axes together with a norm
family tag.  The families mirror the functional spaces the solver works in:

    L2       (E int_0^T |psi(t,x)|^2 dt)^{1/2}
    S2       (E sup_t |psi(t,x)|^2)^{1/2}
    L2Omega  (E |psi(x)|^2)^{1/2}, no time axis
    Linf     pathwise-uniform sup

Seminorms of integer order k sum sup-in-x family norms of the k-th spatial
derivatives; fractional parts take sups of difference quotients over grid
point pairs.  Everything here is an estimate from below (grid sups minorize
continuum sups), which is why the checkers report slack rather than assert
function-space membership.

Space dimension is restricted to n = 1: the pair enumeration and derivative
bookkeeping the acceptance scenarios need only exist on the line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnsupportedOrder
from .grid import MultiIndex, SpaceGrid, TimeGrid, fd_derivative, time_quadrature_weights

FAMILIES = ("L2", "S2", "L2Omega", "Linf")

# caps keeping pair enumeration and path averaging at desk scale
MAX_PAIR_PATHS = 128
EXHAUSTIVE_PAIR_LIMIT = 257
NEAR_PAIR_BAND = 8
FAR_PAIR_SAMPLE = 100_000


@dataclass(frozen=True)
class HolderIndex:
    m: int
    alpha: float

    def __post_init__(self):
        if self.m < 0:
            raise InvalidArgument("integer order m must be >= 0")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidArgument("alpha must lie strictly inside (0, 1)")


class FieldSample:
    """Sampled scalar field on (path, time, space) with cached spatial
    derivatives.

    ``values`` has shape (M, T, J); families without a time axis use T = 1.
    """

    def __init__(self, values, space_grid: SpaceGrid, family: str,
                 time_grid: TimeGrid | None = None):
        if family not in FAMILIES:
            raise InvalidArgument(f"unknown norm family {family!r}; choose from {FAMILIES}")
        if space_grid.dim != 1:
            raise InvalidArgument("holder estimation is implemented for n = 1 only")
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[2] != space_grid.points_per_axis:
            raise InvalidArgument("values must be (paths, times, space)")
        if not np.all(np.isfinite(values)):
            raise InvalidArgument("field sample contains non-finite values")
        if family in ("L2", "S2") and time_grid is None:
            raise InvalidArgument(f"family {family} needs a time grid")
        self.values = values
        self.space_grid = space_grid
        self.family = family
        self.time_grid = time_grid
        self._derivs = {0: (values, np.ones(space_grid.points_per_axis, dtype=bool))}

    # -- construction helpers ---------------------------------------------

    @classmethod
    def deterministic(cls, fn, space_grid: SpaceGrid, family: str = "Linf",
                      time_grid: TimeGrid | None = None):
        """Sample fn(t, x) (or fn(x) when no time grid) on a single path, in
        one call on the lattice x and the grid times t as a column."""
        x = space_grid.axis
        rows = 1 if time_grid is None else len(time_grid)
        vals = fn(x) if time_grid is None else fn(time_grid.nodes[:, None], x)
        return cls((np.asarray(vals, dtype=float) * np.ones((rows, len(x))))[None],
                   space_grid, family, time_grid)

    def attach_derivative(self, order: int, values):
        """Install an analytic derivative, valid everywhere (overrides finite differences)."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise InvalidArgument("derivative cache shape must match the field values")
        self._derivs[order] = (values, np.ones(self.space_grid.points_per_axis, dtype=bool))
        return self

    def derivative(self, order: int):
        """(values, valid-mask) of the order-th spatial derivative."""
        if order not in self._derivs:
            if order > 2:
                raise UnsupportedOrder("derivative caches stop at order 2")
            self._derivs[order] = fd_derivative(
                self.values, self.space_grid, MultiIndex((order,)))
        return self._derivs[order]

    @property
    def num_paths(self) -> int:
        return self.values.shape[0]

    def _path_subset(self):
        M = self.num_paths
        if M <= MAX_PAIR_PATHS:
            return slice(None)
        stride = M // MAX_PAIR_PATHS
        return slice(0, stride * MAX_PAIR_PATHS, stride)


def _time_weights(field: FieldSample):
    if field.family in ("L2",):
        if field.values.shape[1] == 1:
            return np.ones(1)
        return time_quadrature_weights(field.time_grid)
    return None


def _family_norms_per_x(field: FieldSample, vals: np.ndarray) -> np.ndarray:
    """Family norm at every space node; vals has shape (M, T, J)."""
    sq = vals**2
    if field.family == "L2":
        w = _time_weights(field)
        return np.sqrt(np.einsum("mtj,t->mj", sq, w).mean(axis=0))
    if field.family == "S2":
        return np.sqrt(sq.max(axis=1).mean(axis=0))
    if field.family == "L2Omega":
        return np.sqrt(sq[:, 0, :].mean(axis=0))
    return np.sqrt(sq.max(axis=(0, 1)))  # Linf


def estimate_seminorm(field: FieldSample, k: int) -> float:
    """[psi]_k: sup over x of the family norm of the k-th derivative."""
    vals, valid = field.derivative(k)
    norms = _family_norms_per_x(field, vals)
    return float(norms[valid].max())


def _pair_indices(J: int):
    """(i, j) pairs: exhaustive below the limit, two-scale sampled above."""
    if J <= EXHAUSTIVE_PAIR_LIMIT:
        i, j = np.triu_indices(J, k=1)
        return i, j
    near_i, near_j = [], []
    for off in range(1, NEAR_PAIR_BAND + 1):
        idx = np.arange(J - off)
        near_i.append(idx)
        near_j.append(idx + off)
    rng = np.random.default_rng(0)
    fi = rng.integers(0, J, FAR_PAIR_SAMPLE)
    fj = rng.integers(0, J, FAR_PAIR_SAMPLE)
    keep = fi < fj
    i = np.concatenate(near_i + [fi[keep]])
    j = np.concatenate(near_j + [fj[keep]])
    return i, j


def estimate_fractional_seminorm(field: FieldSample, m: int, alpha: float) -> float:
    """[psi]_{m+alpha}: sup over grid pairs of the difference quotient."""
    HolderIndex(m, alpha)
    vals, valid = field.derivative(m)
    sub = field._path_subset()
    vals = vals[sub]
    x = field.space_grid.axis[valid]
    vals = vals[:, :, valid]
    J = len(x)
    if J < 2:
        raise InvalidArgument("fractional seminorm needs at least two usable grid points")
    i, j = _pair_indices(J)
    dist = np.abs(x[i] - x[j]) ** alpha

    if field.family in ("L2", "L2Omega"):
        # Gram trick: |psi_x - psi_y|^2 = N_x + N_y - 2 <psi_x, psi_y>
        M = vals.shape[0]
        if field.family == "L2":
            w = _time_weights(field)
            V = vals * np.sqrt(w / M)[None, :, None]
        else:
            V = vals[:, :1] / np.sqrt(M)
        V = V.reshape(-1, J)
        gram = np.einsum("ri,rj->ij", V, V)
        n2 = np.diag(gram)
        d2 = np.maximum(n2[i] + n2[j] - 2.0 * gram[i, j], 0.0)
        return float(np.max(np.sqrt(d2) / dist))

    best = 0.0
    chunk = max(1, 10_000_000 // max(1, vals[:, :, 0].size))
    for start in range(0, len(i), chunk):
        ii, jj = i[start:start + chunk], j[start:start + chunk]
        sq = (vals[:, :, ii] - vals[:, :, jj]) ** 2
        if field.family == "S2":
            norms = np.sqrt(sq.max(axis=1).mean(axis=0))
        else:  # Linf
            norms = np.sqrt(sq.max(axis=(0, 1)))
        best = max(best, float(np.max(norms / dist[start:start + chunk])))
    return best


@dataclass
class HolderReport:
    seminorms: list
    fractional: float
    total: float


def estimate_norm(field: FieldSample, m: int, alpha: float) -> HolderReport:
    """Full ||psi||_{m+alpha} report: integer seminorms plus fractional part."""
    HolderIndex(m, alpha)
    semis = [estimate_seminorm(field, k) for k in range(m + 1)]
    frac = estimate_fractional_seminorm(field, m, alpha)
    return HolderReport(seminorms=semis, fractional=frac, total=float(sum(semis) + frac))


def _product_field(h: FieldSample, psi: FieldSample) -> FieldSample:
    if h.space_grid.points_per_axis != psi.space_grid.points_per_axis:
        raise InvalidArgument("product requires matching space grids")
    vals = h.values * psi.values  # broadcast over paths/times
    return FieldSample(vals, psi.space_grid, psi.family, psi.time_grid)


def check_product_inequalities(h: FieldSample, psi: FieldSample, alpha: float) -> list:
    """Slack report for the three product estimates linking [h psi] to the
    factors' seminorms; h is measured in the pathwise-uniform family."""
    if h.family != "Linf":
        raise InvalidArgument("the first factor must carry the Linf family tag")
    HolderIndex(0, alpha)
    # restrict to the pair-enumeration path subset up front so both sides of
    # every inequality are computed on the identical sample (the pointwise
    # triangle-inequality argument then holds exactly, slack >= 0)
    psi = FieldSample(psi.values[psi._path_subset()], psi.space_grid, psi.family,
                      psi.time_grid)
    prod = _product_field(h, psi)
    h0 = estimate_seminorm(h, 0)
    ha = estimate_fractional_seminorm(h, 0, alpha)
    p0 = estimate_seminorm(psi, 0)
    pa = estimate_fractional_seminorm(psi, 0, alpha)
    q0 = estimate_seminorm(prod, 0)
    qa = estimate_fractional_seminorm(prod, 0, alpha)

    checks = [
        ("frac_product", qa, h0 * pa + ha * p0),
        ("norm_product_a", q0 + qa, h0 * (p0 + pa) + ha * p0),
        ("norm_product_b", q0 + qa, h0 * pa + (h0 + ha) * p0),
    ]
    return [
        {"check": name, "lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "alpha": alpha}
        for name, lhs, rhs in checks
    ]


def check_interpolation(field: FieldSample, alpha: float, eps_values) -> list:
    """Smallest admissible C for each interpolation inequality

        [psi]_s <= eps [psi]_{2+alpha} + C [psi]_0,  s in {2, 1+alpha, 1, alpha},

    per eps, with a growth flag if C outruns the eps^(-2/alpha) envelope."""
    HolderIndex(0, alpha)
    top = estimate_fractional_seminorm(field, 2, alpha)
    base = estimate_seminorm(field, 0)
    lhs_list = [
        ("interp_2", estimate_seminorm(field, 2)),
        ("interp_1_alpha", estimate_fractional_seminorm(field, 1, alpha)),
        ("interp_1", estimate_seminorm(field, 1)),
        ("interp_alpha", estimate_fractional_seminorm(field, 0, alpha)),
    ]
    out = []
    for name, lhs in lhs_list:
        per_eps = []
        for eps in sorted(eps_values, reverse=True):
            need = lhs - eps * top
            if need <= 0.0:
                C = 0.0
            elif base > 0.0:
                C = need / base
            else:
                C = np.inf
            per_eps.append({"eps": eps, "C": C})
        flagged = False
        for lo, hi in zip(per_eps[1:], per_eps[:-1]):
            if lo["C"] > 0 and hi["C"] > 0:
                growth = lo["C"] / hi["C"]
                envelope = (hi["eps"] / lo["eps"]) ** (2.0 / alpha * 1.5)
                flagged = flagged or growth > envelope
        out.append({"check": name, "lhs": lhs, "top": top, "base": base,
                    "levels": per_eps, "flagged": flagged})
    return out
