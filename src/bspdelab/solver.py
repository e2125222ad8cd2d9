"""Backward-PDE solvers built on heat-potential convolution.

``solve(coeffs, paths, config)`` is the single entry point: it checks the
documented assumptions once and routes to one of three solvers that share
one engine:

  * solve_model               explicit representation, space-invariant a and sigma
  * solve_variable_linear     frozen-coefficient Picard for variable a, b, c
  * solve_semilinear          damped Picard for a Lipschitz driver f(t,x,q,u,v),
                              with a, b, c as in the frozen-coefficient route

``solve_model(coeffs, paths, config)`` reads the ensemble; the two Picard
routes take ``(coeffs, config)`` and reject stochastic data.  They run one
loop, ``_picard``, whose source takes every term of the data; a route keeps
only its checks, its default beta, its start iterate and its stopping test.

Space convolutions run on a uniform 1-d lattice, so every kernel application
is a Toeplitz matrix-vector product.  Only the Picard integrator's pair
table, applied at every iterate, keeps its kernel rows: one spectrum and one
mass row per distinct kernel (the bits of its covariance and damping).  The
terminal and forcing tables are applied once and compute their kernel rows
block by block inside that call.  Each source row is transformed once, and
each (t, s) pair costs one inverse FFT; the sum over pairs is bit for bit
the per-pair FFT convolution summed in pair order.  When the kernel width
drops below the lattice resolution the quadrature is replaced by the
two-term expansion R_t^s F = F + A F'' + O(A^2), which is what keeps the
short-time end of the time integrals honest.

Only n = 1 is wired here; the kernel module itself handles general n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.fft import irfft, rfft

from .errors import (
    AssumptionViolation,
    InvalidArgument,
    InvalidRoute,
    InvalidShift,
    UnsupportedOrder,
)
from .grid import MultiIndex, SpaceGrid, TimeGrid, fd_derivative, space_quadrature_weights
from .holder import FieldSample, estimate_norm
from .kernel import DiffusionCoefficient, HeatKernel, _gl
from .stochastic import (
    DataFunctional,
    PathEnsemble,
    SpaceFactor,
    backward_defect,
    product_dense,
    solve_bsde_closed,
    solve_second_family,
)

_D1 = MultiIndex((1,))
_PROBE_STEP = 0.5  # the step of q, u and v in the driver's Lipschitz probe


# -- problem data -----------------------------------------------------------

def _broadcast(values, t, x) -> np.ndarray:
    """Values of a function of the data, as floats on the broadcast of t and x."""
    return np.asarray(values, dtype=float) * np.ones(np.broadcast(t, x).shape)


@dataclass
class CoefficientSet:
    """Problem data (a, b, c, sigma, f, Phi) plus the bounds they must obey.

    Exactly one of ``diffusion`` (space-invariant a(t)) or ``a_fn`` (scalar
    a(t, x), n = 1) must be set.  ``forcing`` is a DataFunctional; a
    semilinear driver goes in ``driver`` with its Lipschitz constant.

    Every function of the data is called on arrays, once per sample:
    ``a_fn(t, x)``, ``b_fn(t, x)`` and ``c_fn(t, x)`` get arrays of t and of
    x, and ``driver(t, x, q, u, v)`` gets arrays of all five, that
    broadcast against each other; each returns values on that broadcast
    (or a scalar for all of it).
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
        """a on the broadcast of the times t against the points x; scalar a for n = 1."""
        a = self.diffusion(t)[..., 0, 0] if self.space_invariant else self.a_fn(t, x)
        return _broadcast(a, t, x)

    def sample(self, t, x):
        """(a, b, c) on the nodes t x x, each (len(t), len(x)); None for an absent b or c."""
        t = np.asarray(t, dtype=float)[:, None]
        return self.a_values(t, x), *(None if fn is None else _broadcast(fn(t, x), t, x)
                                      for fn in (self.b_fn, self.c_fn))

    def driver_rows(self, t, x, q, u, v):
        """f(t_k, x, q_k, u_k, v_k) on every row k, shaped like u (paths, len(t), len(x)).

        A scalar ``v`` is shared by every row.
        """
        t = np.asarray(t, dtype=float)[:, None]
        return np.asarray(self.driver(t, x, q, u, v), dtype=float) * np.ones_like(u)

    def is_deterministic(self) -> bool:
        sig = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if np.any(sig != 0.0):
            return False
        if not self.terminal.is_deterministic():
            return False
        if self.forcing is not None and not self.forcing.is_deterministic():
            return False
        return True

    def check_assumptions(self, time_grid: TimeGrid, space_grid: SpaceGrid):
        """Ellipticity / boundedness / Lipschitz checks at every (t_k, x_j) node
        of the lattice the solve reads, through its own ``sample`` and
        ``driver_rows``; the driver at values spread over [-3, 3] and at a step
        of q, of u and of v each.  Raises AssumptionViolation naming the first
        failing node, time-major; silent on success.
        """
        t, x = time_grid.nodes, space_grid.axis

        def first_failure(bad, message):
            if np.any(bad):
                k, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
                raise AssumptionViolation(message((k, j), f"(t={t[k]:.4g}, x={x[j]:.4g})"))

        a, b, c = self.sample(t, x)
        first_failure(~((self.lam - 1e-12 <= a) & (a <= self.Lam + 1e-12)),
                      lambda i, at: f"ellipticity violated at {at}: a={a[i]:.6g} "
                                    f"outside [{self.lam}, {self.Lam}]")
        for name, values in (("b", b), ("c", c)):
            if values is not None:
                first_failure(~np.isfinite(values),
                              lambda i, at: f"coefficient {name} is not finite at {at}")
        if self.driver is not None:
            if self.lipschitz <= 0.0:
                raise AssumptionViolation("semilinear driver needs a positive Lipschitz constant")
            # rows of the probe axis: the base values, then q, u and v stepped
            s = np.linspace(-3.0, 3.0, a.size).reshape(a.shape)
            q, u, v = s + _PROBE_STEP * np.eye(4, 3, k=-1).T[:, :, None, None]
            f = self.driver_rows(t, x, q, u, v)
            lhs = np.abs(f[1:] - f[0]).max(axis=0)
            rhs = self.lipschitz * _PROBE_STEP
            first_failure(lhs > rhs + 1e-9,
                          lambda i, at: f"driver violates its Lipschitz bound at {at}: "
                                        f"{lhs[i]:.4g} > {rhs:.4g}")


@dataclass
class SolverConfig:
    """Numerical knobs for every solve route."""

    time_grid: TimeGrid
    space_grid: SpaceGrid
    beta: float = None  # damping; None means route default (0 linear, 8 semilinear)
    max_iter: int = 40
    tol: float = 1e-6

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


_BUMP_STEP = 1e-4  # central-difference step of the bump derivatives, in units of theta


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

    def d1(self, x):
        xi = (np.asarray(x, dtype=float) - self.center) / self.radius
        return (self._profile(xi + _BUMP_STEP) - self._profile(xi - _BUMP_STEP)) \
            / (2.0 * _BUMP_STEP) / self.radius

    def d2(self, x):
        xi = (np.asarray(x, dtype=float) - self.center) / self.radius
        num = (self._profile(xi + _BUMP_STEP) - 2.0 * self._profile(xi)
               + self._profile(xi - _BUMP_STEP))
        return num / _BUMP_STEP**2 / self.radius**2


# -- the pair-sum engine ----------------------------------------------------
#
# All kernel sampling goes through one weighted pair-sum engine.  The terminal
# term, the Gauss-Legendre forcing integral and the trapezoid Picard source
# integral are three pair tables (k, t, s, w) for the same _PairConvolver.
# Each table keys its transformed pairs by the bits of (A, damp), one kernel
# per distinct key.  Pairs at one time gap share a kernel only when those
# bits agree: A is interp(s) - interp(t) on the covariance antiderivative
# table, so equal gaps at different t differ in the last bits, and
# variable_a_sin's Picard table has 97 transformed gaps but 295 kernels.
# The Picard table is applied at every iterate, so keep_kernels builds its
# spectra of orders 0 and 1 and its mass rows once, one row per kernel; the
# terminal and forcing tables are applied once, and apply computes each
# block's kernel rows inside the block, so their memory does not grow with
# the number of pairs.  A kept table gathers a block's kernel rows once per
# order, straight into the product buffer that the order then multiplies in
# place, so orders 1 and 2 gather the same rows twice: gathering each kind
# once into a buffer of its own, as a streamed block computes them, measured
# slower per Picard solve and raised a repeat solve's peak memory.  Each
# source row is transformed once per apply.  One pass runs the table in
# blocks of _PAIR_BLOCK pairs taken by in-row position, so a block's kernel
# rows, transforms and row sums stay in cache; pairs below the resolution
# threshold skip the transform, and only the requested orders are formed (a
# Picard iterate asks for the orders its source and stopping test read).  A
# run is one position's pairs with consecutive rows k and consecutive
# sources j, so it reads its sources and adds into its rows through slices.
# Every row still adds its pairs in pair order, so the result is
# bit-identical to convolving pair by pair and summing with np.add.at,
# whatever the block size.

_SMALL_FACTOR = 4.5  # A < 4.5 h^2 means kernel std < 3 h: switch to the expansion
_QUAD_NODES = 32  # Gauss-Legendre nodes of the forcing integral
# pairs per block of the pair pass; at J = 257 (fft_len 800) a block's
# scratch is a 205 KB product buffer, a 205 KB transform buffer and two
# 66 KB value buffers, 0.54 MB, plus 0.41 MB of kernel spectra in a table
# that computes its kernel rows per block
_PAIR_BLOCK = 32


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: an FFT length pocketfft factors cheaply."""
    best = 1
    while best < n:
        best *= 2
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _first_occurrence_labels(keys: np.ndarray):
    """(labels, first): each row of keys numbered by its first occurrence, and
    the index of each label's first row."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)], np.sort(first)


def _rows(table: np.ndarray, pick: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """table[pick] gathered by one np.take into the head of buf (mode "clip":
    the indices are in range, and "raise" would buffer the output)."""
    return np.take(table, pick, axis=0, out=buf[:len(pick)], mode="clip")


def _source(F: np.ndarray, j0: int, n: int) -> np.ndarray:
    """A run's source rows: a shared (J,) F as is, else rows j0:j0 + n."""
    return F if F.ndim == 1 else F[j0:j0 + n]


class _PairConvolver:
    """Weighted kernel convolutions on a uniform 1-d lattice, summed into rows.

    Pair p = (k_p, t_p, s_p, w_p, j_p) adds w_p D^o R^{s_p}_{t_p} F_{j_p} into
    row k_p.  Each pair is a Toeplitz row of 2J-1 kernel samples at lattice
    displacements.  A table applied once computes the spectra of each
    block's distinct kernels (the bits of covariance A and damping) inside
    apply; keep_kernels() builds one row per distinct kernel of every table
    at once and keeps them for every later apply.  Each source row is
    transformed once per apply, and each pair costs one inverse FFT.  Pairs
    whose accumulated covariance A is below the resolution threshold use the
    Taylor limit damp * (D^o F + A D^(o+2) F + ...) instead.

    Pairs are stored in pass order: sorted by in-row position, cut into blocks
    of at most _PAIR_BLOCK pairs, each block holding its transformed pairs
    first, with the kernel id of each.  A block is cut into runs of one
    position with consecutive k and j, and adds them position by position,
    so every row sums its pairs in pair order.
    """

    def __init__(self, kernel: HeatKernel, grid: SpaceGrid, rows: int, k, t, s, w, j=None):
        if grid.dim != 1:
            raise InvalidArgument("batched convolution is implemented for n = 1 only")
        k = np.asarray(k)
        if np.any(np.diff(k) < 0):
            raise InvalidArgument("pair rows k must be sorted")
        self.grid = grid
        self.rows = rows
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        A = kernel.covariance_pairs(t, s)[:, 0, 0]
        small = A < _SMALL_FACTOR * grid.h**2
        P = len(k)
        pos = np.arange(P) - np.searchsorted(k, k)
        sweep = np.argsort(pos, kind="stable")
        # lexsort is stable: each (block, small) group keeps the sweep order
        order = sweep[np.lexsort((small[sweep], np.arange(P) // _PAIR_BLOCK))]
        self.k = k[order]
        self.A = A[order]
        self.damp = np.exp(-kernel.beta * (s - t))[order]
        self.small = small[order]
        self.weights = np.asarray(w, dtype=float)[order, None]
        self.j = None if j is None else np.asarray(j)[order]
        pos = pos[order]
        # kernel row of each transformed pair (in pass order), and the pass
        # index of each distinct kernel's first pair
        big = np.flatnonzero(~self.small)
        kernel_of, first = _first_occurrence_labels(
            np.column_stack((self.A[big], self.damp[big])).view(np.uint64))
        self._kernel_pairs = big[first]
        # block (lo, mid, hi, pick, runs): pairs lo:mid are transformed, with
        # kernel ids pick; pairs mid:hi are small; each run (k0, j0, a, b)
        # adds buffer rows a:b into rows k0:k0 + b - a from sources
        # j0:j0 + b - a, in position order
        step = np.ones(P, dtype=bool)  # pair p continues the run of pair p - 1
        step[1:] = (np.diff(pos) == 0) & (np.diff(self.k) == 1)
        if self.j is not None:
            step[1:] &= np.diff(self.j) == 1
        j_of = np.zeros(P, dtype=int) if self.j is None else self.j  # shared sources ignore j0
        self._blocks = []
        f = 0
        for lo in range(0, P, _PAIR_BLOCK):
            hi = min(lo + _PAIR_BLOCK, P)
            mid = lo + int(np.count_nonzero(~self.small[lo:hi]))
            cuts = sorted({lo, mid, hi, *(np.flatnonzero(~step[lo + 1:hi]) + lo + 1).tolist()})
            runs = sorted(zip(cuts[:-1], cuts[1:]), key=lambda r: (pos[r[0]], r[0]))
            self._blocks.append((lo, mid, hi, kernel_of[f:f + mid - lo],
                                 [(int(self.k[a]), int(j_of[a]), a - lo, b - lo)
                                  for a, b in runs]))
            f += mid - lo
        self.num_transformed = f
        J = grid.points_per_axis
        self.fft_len = _next_fast_len(3 * J - 2)
        self.quad_w = space_quadrature_weights(grid)
        # per-table constants of the kernel and mass rows: the lattice
        # displacements and the spectrum of the quadrature weights
        self._z = (np.arange(-(J - 1), J) * grid.h)[None, :]
        self._ones = rfft(np.ones((1, J)) * self.quad_w, self.fft_len, axis=-1)
        self._kept = None

    @property
    def num_kernels(self) -> int:
        """Distinct kernels of the transformed pairs: rows of the spectra and mass tables."""
        return len(self._kernel_pairs)

    def _buffers(self):
        """Block work arrays of min(P, _PAIR_BLOCK) rows: products of source
        and kernel spectra, inverse transforms, values."""
        B, J = min(len(self.k), _PAIR_BLOCK), self.grid.points_per_axis
        return (np.empty((B, self.fft_len // 2 + 1), dtype=complex),
                np.empty((B, self.fft_len)), np.empty((B, J)))

    def keep_kernels(self):
        """Build the kernel rows every later apply reads: the spectra of
        orders 0 and 1 and the mass rows, one row per distinct kernel,
        _PAIR_BLOCK rows at a time.  A table applied once skips this and
        computes each block's rows inside the block."""
        N = self.num_kernels
        spectra = [np.empty((N, self.fft_len // 2 + 1), dtype=complex) for _ in (0, 1)]
        mass = np.empty((N, self.grid.points_per_axis))
        cbuf, rbuf, _vbuf = self._buffers()
        for lo in range(0, N, _PAIR_BLOCK):
            ids = slice(lo, lo + _PAIR_BLOCK)
            for order, spec in enumerate(spectra):
                self._kernel_rows(order, ids, spec[ids])
            self._mass_rows(spectra[1][ids], mass[ids], cbuf, rbuf)
        self._kept = (*spectra, mass)

    def _kernel_rows(self, order: int, ids, out: np.ndarray) -> np.ndarray:
        """Spectra of the damped kernel (order 0) or its x-derivative (1) of
        the distinct kernels ids (a slice or an index array), into out."""
        z = self._z
        p = self._kernel_pairs[ids]
        A = self.A[p, None]
        G = self.damp[p, None] * (4.0 * np.pi * A) ** -0.5 * np.exp(-0.25 * z**2 / A)
        if order == 1:
            G = -0.5 * (z / A) * G
        return rfft(G, self.fft_len, axis=-1, out=out)

    def _mass_rows(self, kern: np.ndarray, out: np.ndarray, cbuf, rbuf) -> np.ndarray:
        """The first-derivative kernel against 1, the subtracted term of
        orders 1 and 2, from order-1 spectra rows kern into out; cbuf and
        rbuf are scratch of at least len(kern) rows."""
        J, n = self.grid.points_per_axis, len(kern)
        np.multiply(self._ones, kern, out=cbuf[:n])
        irfft(cbuf[:n], self.fft_len, axis=-1, out=rbuf[:n])
        out[:] = rbuf[:n, J - 1:2 * J - 1]
        return out

    def apply(self, stack, orders) -> dict:
        """{o: (rows, J) sum over pairs of w_p D^o R^{s_p}_{t_p} F_{j_p}} for
        each requested order o in 0, 1, 2.

        ``stack`` is [F, F', ..., F^(6)] on the lattice.  Each entry is (J,),
        shared by every pair, or (R, J) source rows picked by ``j``.  Orders 1
        and 2 use the subtracted first-derivative kernel against stack[o - 1].
        A kept table gathers each block's kernel and mass rows by kernel id
        from the tables keep_kernels built; any other table computes them
        into block buffers, with the same bits, and keeps nothing.
        """
        if max(orders) > 2:
            raise UnsupportedOrder(f"convolution derivatives stop at order 2, got {max(orders)}")
        J = self.grid.points_per_axis
        stack = [np.asarray(d) for d in stack]
        if self.j is None and any(d.ndim > 1 for d in stack):
            raise InvalidArgument("(R, J) source rows need the pair sources j")
        # order o transforms stack[max(o - 1, 0)] against kernel table min(o, 1)
        spectra = {i: rfft(stack[i] * self.quad_w, self.fft_len, axis=-1)
                   for i in {max(o - 1, 0) for o in orders}}
        kinds = {min(o, 1) for o in orders}
        masses = max(orders) > 0
        cbuf, rbuf, vbuf = self._buffers()
        mbuf = np.empty_like(vbuf)
        # a streamed table computes a block's spectra of each kind once, for
        # every order that reads them; a kept table reads its own
        kern = None if self._kept is not None else {d: np.empty_like(cbuf) for d in kinds}
        out = {o: np.zeros((self.rows, J)) for o in orders}
        for lo, mid, hi, pick, runs in self._blocks:
            n = mid - lo
            vals = vbuf[:hi - lo]  # the small pairs' weighted values, rows n:
            w = self.weights[lo:hi]
            big = [r for r in runs if r[2] < n]
            small = [r for r in runs if r[2] >= n]
            if n and kern is not None:
                for d in kinds:
                    self._kernel_rows(d, pick, kern[d][:n])
                mb = self._mass_rows(kern[1][:n], mbuf[:n], cbuf, rbuf) if masses else None
            elif n and masses:
                mb = _rows(self._kept[2], pick, mbuf)
            for o in orders:
                i, d = max(o - 1, 0), min(o, 1)
                if n:
                    # source x kernel into the product buffer, where a kept
                    # table gathers its kernel rows
                    kb = kern[d] if kern is not None else _rows(self._kept[d], pick, cbuf)
                    for _k0, j0, a, b in big:
                        np.multiply(_source(spectra[i], j0, b - a), kb[a:b], out=cbuf[a:b])
                    irfft(cbuf[:n], self.fft_len, axis=-1, out=rbuf[:n])
                    conv = rbuf[:n, J - 1:2 * J - 1]
                    if o > 0:
                        for _k0, j0, a, b in big:
                            conv[a:b] -= _source(stack[i], j0, b - a) * mb[a:b]
                    conv *= w[:n]
                for _k0, j0, a, b in small:
                    # Gaussian moment expansion: R F = F + A F'' + (A^2 / 2) F'''' + ...
                    A = self.A[lo + a:lo + b, None]
                    limit = _source(stack[o], j0, b - a)
                    for extra, coef in ((2, A), (4, 0.5 * A**2)):
                        limit = limit + coef * _source(stack[o + extra], j0, b - a)
                    np.multiply(self.damp[lo + a:lo + b, None] * limit, w[a:b], out=vals[a:b])
                for k0, _j0, a, b in runs:
                    out[o][k0:k0 + b - a] += (conv if a < n else vals)[a:b]
        return out


def _difference_to_sixth(stack, grid: SpaceGrid):
    """Extend [F, ..., F^(m)] to F^(6) by repeated central differences."""
    while len(stack) < 7:
        stack.append(fd_derivative(stack[-1], grid, _D1)[0])
    return stack


def _space_factor_stack(h: SpaceFactor, grid: SpaceGrid):
    """[h, h', ..., h^(6)] on the lattice, analytic through the third derivative."""
    return _difference_to_sixth([np.asarray(f(grid.axis), dtype=float)
                                 for f in (h, h.d1, h.d2, h.d3)], grid)


# -- profile assembly: three pair tables ------------------------------------

def _terminal_profiles(kernel: HeatKernel, tgrid: TimeGrid, stack, grid: SpaceGrid):
    """(K+1, J) profiles of D^o R^T_{t_k} h for o = 0, 1, 2; exact row at t = T."""
    K = tgrid.num_steps
    t = tgrid.nodes[:-1]
    pairs = _PairConvolver(kernel, grid, K + 1, np.arange(K), t,
                           np.full_like(t, tgrid.horizon), np.ones(K))
    out = pairs.apply(stack, (0, 1, 2))
    for o in range(3):
        out[o][K] = stack[o]
    return out


def _forcing_profiles(kernel: HeatKernel, tgrid: TimeGrid, stack, tau_fn, grid: SpaceGrid):
    """(K+1, J) profiles of int_{t_k}^T tau_fn(s) D^o R^s_{t_k} h ds, o = 0..2.

    The o = 0 integrand is bounded, so plain Gauss-Legendre in s suffices;
    derivative orders substitute u = sqrt(s - t) so the transformed integrand
    stays bounded as s -> t.  Row K (t = T) is zero.
    """
    K = tgrid.num_steps
    nodes01, w01 = _gl(_QUAD_NODES)
    t_heads = tgrid.nodes[:K]
    lengths = tgrid.horizon - t_heads  # (K,)
    k = np.repeat(np.arange(K), _QUAD_NODES)
    t = np.repeat(t_heads, _QUAD_NODES)

    # plain substitution s = t + L u, weight L
    s_plain = t_heads[:, None] + lengths[:, None] * nodes01[None, :]
    wt_plain = lengths[:, None] * w01[None, :] * tau_fn(s_plain)
    # u = sqrt(s - t): s = t + (sqrt(L) u)^2 on u in [0, 1], weight 2 L u
    u = nodes01[None, :]
    s_sub = t_heads[:, None] + (np.sqrt(lengths)[:, None] * u) ** 2
    wt_sub = 2.0 * lengths[:, None] * u * w01[None, :] * tau_fn(s_sub)

    plain = _PairConvolver(kernel, grid, K + 1, k, t, s_plain.ravel(), wt_plain.ravel())
    sub = _PairConvolver(kernel, grid, K + 1, k, t, s_sub.ravel(), wt_sub.ravel())
    return {**plain.apply(stack, (0,)), **sub.apply(stack, (1, 2))}


class _GriddedIntegrator:
    """Trapezoid-in-time frozen solve for a gridded source, reusable pair table.

    Computes D^o of  R^T_t Phi + int_t^T R^s_t F(s) ds  at all grid times with
    s restricted to grid nodes (trapezoid weights on [t_k, T]).  The terminal
    profiles, the pair table and its kernel rows are built once; only solve()
    runs per iterate.
    """

    def __init__(self, kernel: HeatKernel, tgrid: TimeGrid, grid: SpaceGrid, phi_stack):
        self.grid = grid
        K = tgrid.num_steps
        idx_k, idx_j = np.triu_indices(K + 1)
        wt = np.full(idx_k.shape, tgrid.dt)
        wt[(idx_j == idx_k) | (idx_j == K)] = 0.5 * tgrid.dt
        wt[idx_k == K] = 0.0
        t = tgrid.nodes
        self.pairs = _PairConvolver(kernel, grid, K + 1, idx_k, t[idx_k], t[idx_j], wt,
                                    j=idx_j)
        self.terminal = _terminal_profiles(kernel, tgrid, phi_stack, grid)
        self.pairs.keep_kernels()

    def solve(self, F, orders):
        """Profiles dict order -> (K+1, J) of the requested orders for the
        (K+1, J) source F.

        The terminal row of the order-0 profile is the terminal data exactly,
        by construction.
        """
        conv = self.pairs.apply(_difference_to_sixth([F], self.grid), orders)
        for o in orders:
            conv[o] += self.terminal[o]  # IEEE addition commutes: the bits of terminal + conv
        return conv


# -- solution container -----------------------------------------------------

@dataclass
class FieldPart:
    """One separable piece of a solution: profiles(t, x) times a path series."""

    profiles: dict  # order -> (K+1, J)
    series: object  # a PathSeries (M, K+1), or one (1, K+1) row shared by every path


_DENSE_PATH_CAP = 1024  # most paths a dense evaluation may cover without path_idx


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
    provenance: str = ""
    info: dict = dataclass_field(default_factory=dict)

    @property
    def noise_dim(self) -> int:
        return len(self.v_parts)

    def _dense(self, parts, order: int, path_idx) -> np.ndarray:
        if path_idx is None and self.num_paths > _DENSE_PATH_CAP:
            raise InvalidArgument(
                f"a dense evaluation of all {self.num_paths} paths would build a "
                f"(path, time, space) cube; pass path_idx to evaluate a subset "
                f"or a chunk of at most {_DENSE_PATH_CAP} paths")
        return product_dense([(p.series, p.profiles[order]) for p in parts],
                             (self.num_paths, len(self.time_grid),
                              self.space_grid.points_per_axis),
                             path_idx)

    def u_dense(self, order: int = 0, path_idx=None) -> np.ndarray:
        return self._dense(self.u_parts, order, path_idx)

    def v_dense(self, l: int, order: int = 0, path_idx=None) -> np.ndarray:
        return self._dense(self.v_parts[l], order, path_idx)

    def restrict(self, columns: np.ndarray) -> "SolutionField":
        """The field on the lattice points ``columns`` (a symmetric contiguous
        boolean mask), every point of it trusted.

        Its dense evaluations equal ``self.u_dense(o, idx)[..., columns]``
        (and likewise v) in values and in memory layout, columns outermost,
        so a norm or mean over them adds in the same order; only the columns
        are evaluated.  Each part slices every order of its own profiles.
        """
        def cut(part):
            return FieldPart({o: p[:, columns] for o, p in part.profiles.items()}, part.series)

        return replace(
            self, space_grid=_masked_grid(self.space_grid, columns),
            u_parts=[cut(p) for p in self.u_parts],
            v_parts=[[cut(p) for p in parts] for parts in self.v_parts],
            trusted=np.ones(int(columns.sum()), dtype=bool))

    def to_csv(self, path, path_ids=None):
        """Columnar export: path_id, t, x, u, v_1..v_d.

        Each (path, time) block of lines is one %-format: the block's path
        and time prefix is put once in front of every line of the file's
        row templates, which hold x.
        """
        if path_ids is None:
            path_ids = list(range(min(self.num_paths, 8)))
        path_ids = list(path_ids)
        u = self.u_dense(0, path_ids)
        v = [self.v_dense(l, 0, path_ids) for l in range(self.noise_dim)]
        m = 1 + self.noise_dim
        values = ",%.17g" * m + "\r\n"
        rows = [f"{xj:.17g}{values}" for xj in self.space_grid.axis]
        flat = [None] * (len(rows) * m)  # one block's u, v_1, ..., v_d, line by line
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["path_id", "t", "x", "u"]
                              + [f"v_{l + 1}" for l in range(self.noise_dim)]) + "\r\n")
            for mi, pid in enumerate(path_ids):
                for k, tk in enumerate(self.time_grid.nodes):
                    prefix = f"{pid},{tk:.17g},"
                    for col, field in enumerate([u] + v):
                        flat[col::m] = field[mi, k].tolist()
                    fh.write((prefix + prefix.join(rows)) % tuple(flat))

    def summary_json(self, residual_rms: float, residual_worst: float) -> str:
        """The solve's summary, with the integral-form defect measured on it."""
        payload = {
            "provenance": self.provenance,
            "residual_rms": residual_rms,
            "residual_worst": residual_worst,
            "num_paths": self.num_paths,
            "noise_dim": self.noise_dim,
            "deriv_source": "analytic",
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
    return PathEnsemble.of_increments(np.zeros((1, tgrid.num_steps, d)), tgrid, seed=0)


_DEFECT_PATHS = 64  # paths the integral-form defect is measured on
_LOCALIZE_PATHS = 32  # paths the localized residual is measured on
_COVERING_CENTERS = 9  # bump centers of the covering inequality


class _Sample(NamedTuple):
    """What a certificate reads of a solve and its data on a lattice mask."""

    u: dict  # derivative order -> (Mp, K+1, Jm), the orders asked for
    v: list  # one (Mp, K+1, Jm) per noise component
    abc: tuple  # (a, b, c) on the nodes, each (K+1, Jm); None for an absent b or c
    f: np.ndarray  # forcing plus driver, (Mp, K+1, Jm); None without either
    terminal: np.ndarray  # Phi, (Mp, Jm)
    increments: np.ndarray  # Brownian increments (Mp, K, d); None for a deterministic solve


def _sample(sol: SolutionField, coeffs: CoefficientSet, paths, max_paths: int,
            mask, orders) -> _Sample:
    """The solve and its data on the lattice points ``mask`` (None: the
    whole lattice), read once; the solve is evaluated on those points and
    in the derivative ``orders`` only (a driver reads orders 0 and 1).

    Stochastic data is measured on its first max_paths paths; deterministic
    data (or no paths) on path 0 without increments, however many paths it
    was solved on, so the defect integrates it by trapezoid.
    """
    tgrid = sol.time_grid
    if mask is None:
        field, x = sol, sol.space_grid.axis
    else:
        field, x = sol.restrict(mask), sol.space_grid.axis[mask]
    pathwise = paths is not None and not coeffs.is_deterministic()
    if pathwise:
        path_idx = np.arange(min(paths.num_paths, max_paths))
        sub = paths.subset(path_idx)
    else:
        path_idx, sub = np.array([0]), _degenerate_paths(tgrid, coeffs.noise_dim)
    u = {o: field.u_dense(o, path_idx) for o in orders}
    v = [field.v_dense(l, 0, path_idx) for l in range(sol.noise_dim)]
    f = None
    if coeffs.forcing is not None:
        f = coeffs.forcing.dense(sub, x)
    if coeffs.driver is not None:
        g = coeffs.driver_rows(tgrid.nodes, x, u[1], u[0], v[0] if v else 0.0)
        f = g if f is None else f + g
    return _Sample(u, v, coeffs.sample(tgrid.nodes, x), f,
                   coeffs.terminal.terminal_values(sub, x),
                   sub.increments if pathwise else None)


# -- residual certification -------------------------------------------------

def integral_form_defect(sol: SolutionField, coeffs: CoefficientSet,
                         paths: PathEnsemble = None):
    """Defect of the backward integral form on the trusted region.

    Deterministic solves integrate the drift by trapezoid; stochastic solves
    use left-endpoint Riemann/Ito sums per path.  Returns (rms, worst) both
    normalized by 1 + max |Phi|.  Every measured path is evaluated at once,
    on the trusted columns only.
    """
    reads_du = coeffs.b_fn is not None or coeffs.driver is not None
    smp = _sample(sol, coeffs, paths, _DEFECT_PATHS, sol.trusted,
                  (0, 1, 2) if reads_du else (0, 2))
    sig = np.atleast_1d(np.asarray(coeffs.sigma, dtype=float))
    u, (a_tx, b_tx, c_tx) = smp.u, smp.abc
    drift = a_tx[None] * u[2]
    if b_tx is not None:
        drift += b_tx[None] * u[1]
    if c_tx is not None:
        drift += c_tx[None] * u[0]
    if smp.f is not None:
        drift = drift + smp.f
    for l, vl in enumerate(smp.v):
        if sig[l] != 0.0:
            drift = drift + sig[l] * vl
    defect = backward_defect(u[0], smp.terminal, drift, sol.time_grid.dt, smp.v,
                             smp.increments)
    scale = 1.0 + float(np.abs(smp.terminal).max(initial=0.0))
    worst = float(np.max(np.abs(defect)) / scale)
    rms = float(np.sqrt(np.mean(np.square(defect, out=defect))) / scale)
    return rms, worst


# -- representation route ---------------------------------------------------

def solve_model(coeffs: CoefficientSet, paths: PathEnsemble,
                config: SolverConfig) -> SolutionField:
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
    kernel = HeatKernel(coeffs.diffusion, horizon=tgrid.horizon)
    sigma = coeffs.sigma
    profiles = {}

    def part(term, tau_fn):
        """The term's series on profiles built once per (space factor, tau_fn):
        terminal profiles for tau_fn None, forcing profiles otherwise."""
        key = (id(term.space), id(tau_fn))
        if key not in profiles:
            stack = _space_factor_stack(term.space, grid)
            profiles[key] = (_terminal_profiles(kernel, tgrid, stack, grid) if tau_fn is None
                             else _forcing_profiles(kernel, tgrid, stack, tau_fn, grid))
        return FieldPart(profiles[key], term.series)

    bsde = solve_bsde_closed(coeffs.terminal, sigma, paths)
    u_parts = [part(t, None) for t in bsde.phi_terms]
    v_parts = [[part(t, None) for t in bsde.psi_terms[l]] for l in range(d)]
    if coeffs.forcing is not None:
        second = solve_second_family(coeffs.forcing, sigma, paths)
        u_parts += [part(t, t.tau_fn) for t in second.y_terms]
        for l in range(d):
            v_parts[l] += [part(t, t.tau_fn) for t in second.g_terms[l]]

    sol = SolutionField(
        space_grid=grid, time_grid=tgrid, u_parts=u_parts, v_parts=v_parts,
        num_paths=paths.num_paths,
        trusted=_trusted_mask(grid, coeffs.Lam, tgrid.horizon),
        provenance="representation",
        info={"iterations": 1},
    )
    return sol


# -- the router -------------------------------------------------------------

def solve(coeffs: CoefficientSet, paths: PathEnsemble, config: SolverConfig) -> SolutionField:
    """Check the documented assumptions once, then pick the route.

    A driver goes to damped Picard; space-invariant a with no b and no c to
    the explicit representation; anything else to frozen-reference Picard.
    ``paths`` may be None for deterministic data; only solve_model reads it.
    """
    coeffs.check_assumptions(config.time_grid, config.space_grid)
    if coeffs.driver is not None:
        return solve_semilinear(coeffs, config)
    if coeffs.space_invariant and coeffs.b_fn is None and coeffs.c_fn is None:
        return solve_model(coeffs, paths, config)
    return solve_variable_linear(coeffs, config)


def solve_deterministic_pde(coeffs: CoefficientSet, config: SolverConfig) -> SolutionField:
    """``solve`` without paths.  Kept only because the benchmark's trace
    harness wraps this name; new code calls ``solve``."""
    return solve(coeffs, None, config)


# -- Picard: one loop for both Picard routes --------------------------------

def _terminal_stack(coeffs: CoefficientSet, grid: SpaceGrid):
    """Derivative stack of a deterministic terminal condition; both Picard
    routes reject stochastic data before they call it."""
    out = [np.zeros(grid.points_per_axis) for _ in range(7)]
    for h, _p in coeffs.terminal.terms:
        st = _space_factor_stack(h, grid)
        for o in range(7):
            out[o] = out[o] + st[o]
    return out


def _frozen_diffusion(coeffs: CoefficientSet) -> DiffusionCoefficient:
    """a frozen at x = 0: the reference diffusion of the Picard kernel."""
    if coeffs.space_invariant:
        return coeffs.diffusion
    return DiffusionCoefficient(fn=lambda t: coeffs.a_values(t, 0.0)[..., None, None],
                                dim=1, lam=coeffs.lam, Lam=coeffs.Lam)


_NORM_ALPHA = 0.5  # Holder exponent of the convergence-test, covering and time-shift norms


def _masked_grid(grid: SpaceGrid, mask: np.ndarray) -> SpaceGrid:
    """Sub-grid over a symmetric contiguous mask (same spacing)."""
    kept = grid.axis[mask]
    return SpaceGrid(dim=1, radius=float(kept.max()), points_per_axis=int(mask.sum()))


def _norm_estimate(tgrid, grid, u_stack, mask):
    """The a priori norm ||u||_{2+alpha, L2} of an iterate on the trusted region.

    The truncated convolution box makes the boundary belt meaningless, so the
    estimate (and with it the convergence criterion) ignores it.
    """
    sub = _masked_grid(grid, mask)
    f = FieldSample(u_stack[0][None][..., mask], sub, "L2", tgrid)
    f.attach_derivative(1, u_stack[1][None][..., mask])
    f.attach_derivative(2, u_stack[2][None][..., mask])
    return estimate_norm(f, 2, _NORM_ALPHA).total


def _picard(coeffs: CoefficientSet, config: SolverConfig, beta: float, provenance: str,
            stop: Callable, stop_orders: tuple, zero_start: bool) -> SolutionField:
    """The fixed-point map of both Picard routes, iterated in the damped
    unknown w = e^{-beta (T - t)} u with the damping carried by the kernel.

    Each iterate is the heat potential, for a frozen at x = 0, of the terminal
    data and of one source that adds every term the data has, in this order:
    driver(t, x, Du, u, 0) e^{-beta (T - t)}, forcing, (a - abar) D^2 w,
    b Dw, c w; a term whose coefficient is absent or 0 everywhere is skipped.
    The zeroth iterate is the terminal profiles, or zeros with zero_start.
    Each iterate forms order 0 plus the orders its source and ``stop_orders``
    read; the last iterate's missing orders come from one more apply of its
    source.  ``stop(w, damp_t, mask, sup_change)`` is the change compared
    with tol, from the iterate (order -> (K+1, J)), the (K+1, 1) damping,
    the trusted mask and sup |w_n - w_{n-1}| on it.  At the cap a change
    that grew over the last two iterates raises AssumptionViolation.
    """
    tgrid, grid = config.time_grid, config.space_grid
    t, x, T = tgrid.nodes, grid.axis, tgrid.horizon
    abar = _frozen_diffusion(coeffs)
    integrator = _GriddedIntegrator(HeatKernel(abar, beta=beta, horizon=T), tgrid, grid,
                                    _terminal_stack(coeffs, grid))
    damp_t = np.exp(-beta * (T - t))[:, None]
    mask = _trusted_mask(grid, coeffs.Lam, T)
    f_tx = None
    if coeffs.forcing is not None:
        f_tx = coeffs.forcing.dense(_degenerate_paths(tgrid, 1), x)[0]
    a_tx, b_tx, c_tx = coeffs.sample(t, x)
    terms = [(m, o) for m, o in ((a_tx - abar(t)[:, 0, 0][:, None], 2), (b_tx, 1), (c_tx, 0))
             if m is not None and np.any(m != 0.0)]  # (coefficient, order of w it multiplies)
    driver_reads = (0, 1) if coeffs.driver is not None else ()  # u and Du
    orders = tuple(sorted({0, *driver_reads, *stop_orders, *(o for _, o in terms)}))

    def source(w):
        if coeffs.driver is None:
            F = np.zeros((len(t), len(x)))
        else:
            F = coeffs.driver_rows(t, x, (w[1] / damp_t)[None], (w[0] / damp_t)[None], 0.0)[0]
            F *= damp_t
        if f_tx is not None:
            F += damp_t * f_tx
        for m, o in terms:
            F += m * w[o]
        return F

    w = integrator.terminal
    if zero_start:
        w = {o: np.zeros_like(p) for o, p in w.items()}
    diffs, history = [], []
    converged = False
    for it in range(1, config.max_iter + 1):
        F = source(w)
        new = integrator.solve(F, orders)
        change = new[0] - w[0]
        np.abs(change, out=change)
        diffs.append(float(np.max(change[:, mask])))
        peak_inside = diffs[-1] == change.max()
        del change  # held through the next solve, it would raise the peak memory
        w = new
        entry = {"iteration": it, "sup_change": diffs[-1],
                 "rel_change": stop(w, damp_t, mask, diffs[-1])}
        if len(diffs) > 1 and diffs[-2] > 0:
            entry["contraction_factor"] = diffs[-1] / diffs[-2]
        history.append(entry)
        if entry["rel_change"] < config.tol:
            converged = True
            break

    ratios = [h["contraction_factor"] for h in history if "contraction_factor" in h]
    settled = ratios[1:] if len(ratios) > 1 else ratios
    factor = float(np.exp(np.mean(np.log(np.maximum(settled, 1e-300))))) if settled else np.nan
    info = {"iterations": len(history), "history": history, "converged": converged,
            "beta": beta, "contraction_factor": factor, "contraction_history": ratios}
    worst = max(ratios, default=np.nan)
    if worst >= 1.0 or not converged:
        # the belt outside the trusted region is spoilt by the truncated box
        peak = "inside" if peak_inside else "in the belt outside"
        info["advisory"] = (f"{'converged' if converged else 'iteration cap reached'} with "
                            f"contraction factors up to {worst:.3g} at beta={beta}; the "
                            f"last change is largest {peak} the trusted region")
    if not converged and len(diffs) >= 3 and diffs[-1] > diffs[-3]:
        raise AssumptionViolation(info["advisory"])
    missing = tuple(o for o in range(3) if o not in orders)
    if missing:
        w.update(integrator.solve(F, missing))  # from the last iterate's source
    return SolutionField(
        space_grid=grid, time_grid=tgrid,
        u_parts=[FieldPart({o: w[o] / damp_t for o in range(3)}, np.ones((1, len(t))))],
        v_parts=[[] for _ in range(coeffs.noise_dim)],
        num_paths=1, trusted=mask, provenance=provenance, info=info,
    )


def solve_variable_linear(coeffs: CoefficientSet, config: SolverConfig) -> SolutionField:
    """Frozen-reference Picard for variable a(t, x), drift b, and zeroth term c.

    Starts from the terminal profiles and stops when the a priori norm of u
    changes by less than tol relative to itself.  Sources are deterministic
    lattice fields, so this route takes no paths and rejects stochastic
    data (stochastic variable-coefficient problems are out of scope here).
    """
    if coeffs.driver is not None:
        raise InvalidRoute("semilinear drivers go through solve_semilinear")
    if not coeffs.is_deterministic():
        raise InvalidRoute(
            "variable-coefficient iteration is implemented for deterministic data only"
        )
    tgrid, grid = config.time_grid, config.space_grid
    norms = []

    def norm_change(w, damp_t, mask, _sup_change):
        norms.append(_norm_estimate(tgrid, grid, [w[o] / damp_t for o in range(3)], mask))
        return abs(norms[-1] - norms[-2]) / max(norms[-1], 1e-12) if len(norms) > 1 else np.inf

    beta = 0.0 if config.beta is None else config.beta
    return _picard(coeffs, config, beta, "frozen-picard", norm_change, (0, 1, 2),
                   zero_start=False)


def solve_semilinear(coeffs: CoefficientSet, config: SolverConfig) -> SolutionField:
    """Damped Picard iteration for a Lipschitz driver f(t, x, grad u, u, v).

    a may vary in x, and b and c may be present: the source carries
    (a - abar) D^2 w, b Dw and c w as in the frozen-reference route.  The
    kernel damping turns the Lipschitz bound into a contraction factor
    that shrinks like L (1 - e^{-beta T}) / beta, so raising beta tightens
    the loop.  Starts from zero and stops when sup |w_n - w_{n-1}| falls
    below tol max(1, sup |w_n|) on the trusted region.  Takes no paths, so
    stochastic data is rejected.
    """
    if coeffs.driver is None:
        raise InvalidRoute("solve_semilinear needs a driver; use the linear routes")
    if not coeffs.is_deterministic():
        raise InvalidRoute("semilinear iteration is implemented for deterministic data only")

    def sup_rule(w, _damp_t, mask, sup_change):
        return sup_change / max(1.0, float(np.max(np.abs(w[0][:, mask]))))

    beta = 8.0 if config.beta is None else config.beta
    return _picard(coeffs, config, beta, "semilinear-picard", sup_rule, (0,), zero_start=True)


# -- localization -----------------------------------------------------------

@dataclass
class LocalizedProblem:
    """The localized residual and the covering inequality at one bump."""

    residual_rms: float
    covering: dict


def localize(sol: SolutionField, coeffs: CoefficientSet, z: float, theta: float,
             paths: PathEnsemble = None) -> LocalizedProblem:
    """Multiply the solution by the bump at (z, theta) and rebuild its equation.

    The localized pair (u eta, v eta) satisfies the frozen-at-z equation with
    the source f^z_theta: the a-commutator, the b, c and forcing terms the
    data has, and the gradient and Hessian cutoff terms.  The rms residual of
    that equation is reported, to be compared with the parent's
    ``integral_form_defect``.  Also evaluates the covering inequality
    ||h|| <= 2 sup_z ||eta^z h|| + C ||h||_0 on the sample, reporting the
    smallest admissible C.
    """
    for o in (1, 2):
        if not all(o in p.profiles for p in sol.u_parts):
            raise InvalidArgument("localize needs derivative caches on the solution")
    x = sol.space_grid.axis
    bump = BumpField(center=z, radius=theta)
    eta, eta1, eta2 = bump(x), bump.d1(x), bump.d2(x)

    smp = _sample(sol, coeffs, paths, _LOCALIZE_PATHS, None, (0, 1, 2))
    (u0, u1, u2), v0 = (smp.u[o] for o in range(3)), smp.v
    sig = np.atleast_1d(np.asarray(coeffs.sigma, dtype=float))

    a_tx, b_tx, c_tx = smp.abc  # (K+1, J)
    a_tz = coeffs.a_values(sol.time_grid.nodes, z)
    f_loc = (a_tx - a_tz[:, None])[None] * u2 * eta
    if b_tx is not None:
        f_loc += b_tx[None] * u1 * eta
    if c_tx is not None:
        f_loc += c_tx[None] * u0 * eta
    if smp.f is not None:
        f_loc += smp.f * eta
    f_loc += -2.0 * a_tz[None, :, None] * u1 * eta1
    f_loc += -a_tz[None, :, None] * u0 * eta2
    u_loc = u0 * eta
    v_loc = [vl * eta for vl in v0]
    phi_loc = u0[:, -1] * eta

    # frozen-equation residual of (u eta, v eta) with the source f^z_theta
    w2 = u2 * eta + 2.0 * u1 * eta1 + u0 * eta2
    drift = a_tz[None, :, None] * w2 + f_loc
    for l, vl in enumerate(v_loc):
        if sig[l] != 0.0:
            drift = drift + sig[l] * vl
    defect = backward_defect(u_loc, phi_loc, drift, sol.time_grid.dt, v_loc,
                             smp.increments)[..., sol.trusted]
    scale = 1.0 + float(np.abs(phi_loc).max(initial=0.0))
    rms = float(np.sqrt(np.mean(defect**2)) / scale)

    return LocalizedProblem(residual_rms=rms, covering=covering_inequality(sol, theta, u0))


def covering_inequality(sol: SolutionField, theta: float, u0) -> dict:
    """Smallest C with ||u|| <= 2 sup_z ||eta^z u|| + C ||u||_0 on the sample
    ``u0`` of u on the whole lattice, (paths, K+1, J)."""
    grid, tgrid = sol.space_grid, sol.time_grid
    f = FieldSample(u0, grid, "L2", tgrid)
    report = estimate_norm(f, 0, _NORM_ALPHA)
    lhs, h0 = report.total, report.seminorms[0]
    span = grid.radius - 2.0 * theta
    centers = np.linspace(-max(span, 0.0), max(span, 0.0), _COVERING_CENTERS)
    masked_best = 0.0
    for z in centers:
        eta = BumpField(center=float(z), radius=theta)(grid.axis)
        g = FieldSample(u0 * eta, grid, "L2", tgrid)
        masked_best = max(masked_best, estimate_norm(g, 0, _NORM_ALPHA).total)
    C = 0.0 if h0 == 0.0 else max(0.0, (lhs - 2.0 * masked_best) / h0)
    slack = 2.0 * masked_best + C * h0 - lhs
    return {"C": C, "slack": slack}


# -- time continuity --------------------------------------------------------

def shift_steps(tgrid: TimeGrid, tau: float) -> int:
    """The number of grid steps a shift by tau spans; InvalidShift unless
    0 < tau < T and tau is a whole multiple of the step."""
    if tau <= 0.0 or tau >= tgrid.horizon:
        raise InvalidShift(f"shift must satisfy 0 < tau < T, got {tau}")
    r = tau / tgrid.dt
    if abs(r - round(r)) > 1e-9:
        raise InvalidShift(f"shift {tau} is not a multiple of the grid step {tgrid.dt}")
    return int(round(r))


def time_shift_norms(sol: SolutionField, taus) -> list:
    """Restricted-interval norms ||u(.) - u(. - tau)||_{1/2, L2, tau}, one per
    tau, over every path of the solution (at most 1024, the dense cap); every
    tau is checked before the trusted u is evaluated, once."""
    tgrid = sol.time_grid
    steps = [shift_steps(tgrid, tau) for tau in taus]
    field = sol.restrict(sol.trusted)
    u = field.u_dense(0)
    diffs = (FieldSample(u[:, r:, :] - u[:, :-r, :], field.space_grid, "L2",
                         TimeGrid(tgrid.horizon - tau, tgrid.num_steps - r))
             for tau, r in zip(taus, steps))
    return [estimate_norm(f, 0, _NORM_ALPHA).total for f in diffs]
