"""Discretization substrate: time/space grids, multi-indices, trapezoid
quadrature and the central-difference stencils used as independent oracles.

Grids are uniform and immutable.  Uniformity keeps every kernel convolution
a Toeplitz-structured sum, which is what the solver's fast path relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InvalidArgument, UnsupportedOrder


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into K steps (K+1 nodes)."""

    horizon: float
    num_steps: int
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise InvalidArgument(f"time horizon must be positive, got {self.horizon}")
        if self.num_steps < 1:
            raise InvalidArgument(f"need at least one time step, got {self.num_steps}")
        object.__setattr__(
            self, "nodes", np.linspace(0.0, self.horizon, self.num_steps + 1)
        )

    @property
    def dt(self) -> float:
        return self.horizon / self.num_steps

    def __len__(self) -> int:
        return self.num_steps + 1

    def index_of(self, t: float) -> int:
        """Index of a node equal to t (up to rounding)."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.num_steps or abs(self.nodes[k] - t) > 1e-9 * max(1.0, self.horizon):
            raise InvalidArgument(f"t={t} is not a node of the time grid")
        return k


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform symmetric lattice on [-R, R]^n with the origin as a node.

    ``points_per_axis`` must be odd so that the lattice is symmetric about
    the origin and contains it.
    """

    dim: int
    radius: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgument("space dimension must be >= 1")
        if self.radius <= 0.0:
            raise InvalidArgument("box radius must be positive")
        if self.points_per_axis < 3 or self.points_per_axis % 2 == 0:
            raise InvalidArgument(
                "points_per_axis must be odd and >= 3 so the origin is a node"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.radius / (self.points_per_axis - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.points_per_axis)

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    def nodes(self) -> np.ndarray:
        """All lattice nodes, shape (J**n, n), row-major over axes."""
        ax = self.axis
        if self.dim == 1:
            return ax[:, None]
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def interior_mask(self, radius: float) -> np.ndarray:
        """Boolean mask (per axis shape) of nodes with sup-norm <= radius."""
        ax = np.abs(self.axis) <= radius + 1e-12
        if self.dim == 1:
            return ax
        mask = ax
        for _ in range(self.dim - 1):
            mask = np.logical_and.outer(mask, ax)
        return mask


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index of partial derivatives; order |gamma| = sum of entries."""

    components: tuple

    def __post_init__(self):
        if any(c < 0 or int(c) != c for c in self.components):
            raise InvalidArgument("multi-index components must be nonnegative integers")
        object.__setattr__(self, "components", tuple(int(c) for c in self.components))

    @property
    def order(self) -> int:
        return sum(self.components)

    def axes(self) -> tuple:
        """Differentiation axes with multiplicity, e.g. (2,1) -> (0,0,1)."""
        out = []
        for i, c in enumerate(self.components):
            out.extend([i] * c)
        return tuple(out)

    @staticmethod
    def all_of_order(dim: int, order: int):
        """All multi-indices of a given order in ``dim`` variables."""
        out = []
        for combo in product(range(order + 1), repeat=dim):
            if sum(combo) == order:
                out.append(MultiIndex(combo))
        return out


def quadrature_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights for a 1-d node vector (uniform or not).

    Weights sum to the interval length; endpoint weights are half the
    interior weight on a uniform grid.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise InvalidArgument("need a 1-d node vector with at least 2 nodes")
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def time_quadrature_weights(grid: TimeGrid) -> np.ndarray:
    return quadrature_weights(grid.nodes)


def space_quadrature_weights(grid: SpaceGrid) -> np.ndarray:
    """Tensor-product trapezoid weights over the full lattice, shape grid.shape."""
    w1 = quadrature_weights(grid.axis)
    w = w1
    for _ in range(grid.dim - 1):
        w = np.multiply.outer(w, w1)
    return w


def fd_derivative(field: np.ndarray, grid: SpaceGrid, gamma: MultiIndex):
    """Central-difference D^gamma of a sampled field, |gamma| <= 2.

    The field's trailing axes must match ``grid.shape``; leading axes
    (paths, times) pass through.  Returns ``(deriv, valid)`` where ``valid``
    is a per-axis-shape boolean mask; a boundary layer of width |gamma|
    along each differentiated axis is marked invalid (values there are
    one-sided and untrusted).

    Exact for polynomials of degree <= 2; O(h^2) otherwise.  This is the
    independent oracle against which analytic kernel-derivative and
    convolution-derivative formulas are checked.
    """
    if gamma.order > 2:
        raise UnsupportedOrder(f"central differences support |gamma| <= 2, got {gamma.order}")
    field = np.asarray(field, dtype=float)
    if field.shape[-grid.dim:] != grid.shape:
        raise InvalidArgument("field trailing shape does not match the space grid")
    h = grid.h
    lead = field.ndim - grid.dim
    out = field
    for ax_local, mult in enumerate(gamma.components):
        ax = lead + ax_local
        if mult == 1:
            out = (np.roll(out, -1, axis=ax) - np.roll(out, 1, axis=ax)) / (2.0 * h)
        elif mult == 2:
            out = (
                np.roll(out, -1, axis=ax) - 2.0 * out + np.roll(out, 1, axis=ax)
            ) / h**2
    valid = np.ones(grid.shape, dtype=bool)
    width = gamma.order
    for ax_local, mult in enumerate(gamma.components):
        if mult == 0:
            continue
        edge = np.zeros(grid.points_per_axis, dtype=bool)
        edge[:width] = True
        edge[-width:] = True
        if grid.dim == 1:
            valid &= ~edge
        else:
            sl = [None] * grid.dim
            sl[ax_local] = slice(None)
            valid &= ~edge[tuple(sl)]
    return out, valid
