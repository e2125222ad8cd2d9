import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from bspdelab import solver
from bspdelab.errors import (
    AssumptionViolation,
    InvalidArgument,
    InvalidRoute,
    InvalidShift,
    UnsupportedOrder,
)
from bspdelab.grid import SpaceGrid, TimeGrid, space_quadrature_weights
from bspdelab.kernel import DiffusionCoefficient, HeatKernel
from bspdelab.scenarios import finite_difference_oracle, get_scenario
from bspdelab.stochastic import (
    BM,
    BM_SQUARED,
    EXP_MART,
    DataFunctional,
    PathFactor,
    SpaceFactor,
    backward_defect,
    sample_paths,
    solve_second_family,
)
from bspdelab.solver import (
    BumpField,
    CoefficientSet,
    FieldPart,
    SolutionField,
    SolverConfig,
    _DENSE_PATH_CAP,
    _PAIR_BLOCK,
    _SMALL_FACTOR,
    _GriddedIntegrator,
    _PairConvolver,
    _difference_to_sixth,
    _forcing_profiles,
    _next_fast_len,
    _space_factor_stack,
    integral_form_defect,
    localize,
    solve,
    solve_model,
    solve_semilinear,
    solve_variable_linear,
    time_shift_norms,
)
from bspdelab.verify import solution_norm_lhs

TG = TimeGrid(1.0, 50)
SG = SpaceGrid(1, 7.0, 129)
T = TG.horizon
X = SG.axis


def config(**kw):
    return SolverConfig(time_grid=TG, space_grid=SG, **kw)


def sine_problem(a=0.5, **kw):
    return CoefficientSet(
        terminal=DataFunctional.deterministic(SpaceFactor.sine()),
        diffusion=DiffusionCoefficient.isotropic(a), **kw,
    )


@pytest.fixture(scope="module")
def sine_solution():
    return solve(sine_problem(), None, config())


class TestCoefficientSet:
    def test_needs_exactly_one_diffusion_spec(self):
        phi = DataFunctional.deterministic(SpaceFactor.sine())
        with pytest.raises(InvalidArgument):
            CoefficientSet(terminal=phi)
        with pytest.raises(InvalidArgument):
            CoefficientSet(terminal=phi, diffusion=DiffusionCoefficient.isotropic(1.0),
                           a_fn=lambda t, x: 1.0)

    def test_degenerate_ellipticity_rejected(self):
        phi = DataFunctional.deterministic(SpaceFactor.sine())
        with pytest.raises(AssumptionViolation, match="ellipticity"):
            CoefficientSet(terminal=phi, a_fn=lambda t, x: np.abs(x), lam=0.0, Lam=1.0)

    def test_sampled_ellipticity_violation(self):
        phi = DataFunctional.deterministic(SpaceFactor.sine())
        co = CoefficientSet(terminal=phi, a_fn=lambda t, x: 1.0 + 2.0 * np.sin(x),
                            lam=0.5, Lam=3.0)
        with pytest.raises(AssumptionViolation):
            co.check_assumptions(TG, SG)

    def test_valid_data_passes(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
            b_fn=lambda t, x: np.cos(x), c_fn=lambda t, x: 0.5,
        )
        co.check_assumptions(TG, SG)

    @pytest.mark.parametrize("driver", [
        lambda t, x, q, u, v: u**2,
        lambda t, x, q, u, v: 3.0 * np.sin(u),
        lambda t, x, q, u, v: 2.0 * q,
        lambda t, x, q, u, v: 1.5 * v,
    ], ids=["u^2", "3sin_u", "2q", "1.5v"])
    def test_driver_lipschitz_checked(self, driver):
        co = sine_problem(driver=driver, lipschitz=1.0)
        with pytest.raises(AssumptionViolation, match="Lipschitz"):
            co.check_assumptions(TG, SG)

    def test_ellipticity_checked_at_every_lattice_node(self):
        # a dip of a below lam, narrower than the lattice spacing, centred on
        # one node the solve reads and 0.34 from any point a draw of 64 random
        # (t, x) points from default_rng(0) would probe
        x0 = X[50]
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()),
                            a_fn=lambda t, x: 1.0 - 0.9 * np.exp(-((x - x0) / 0.05) ** 2),
                            lam=0.5, Lam=1.0)
        with pytest.raises(AssumptionViolation) as err:
            co.check_assumptions(TG, SG)
        assert str(err.value).startswith(
            f"ellipticity violated at (t={TG.nodes[0]:.4g}, x={x0:.4g})")

    def test_inverted_bounds_rejected(self):
        phi = DataFunctional.deterministic(SpaceFactor.sine())
        with pytest.raises(AssumptionViolation, match="lam <= Lam"):
            CoefficientSet(terminal=phi, a_fn=lambda t, x: 1.0, lam=2.0, Lam=1.0)

    @pytest.mark.parametrize("bad", [
        dict(a_fn=lambda t, x: 1.0 + 2.0 * np.sin(x), lam=0.5, Lam=3.0),
        dict(diffusion=DiffusionCoefficient.isotropic(0.5),
             driver=lambda t, x, q, u, v: u**2, lipschitz=1.0),
    ], ids=["ellipticity", "lipschitz"])
    def test_solve_runs_the_checks(self, bad):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()), **bad)
        with pytest.raises(AssumptionViolation):
            solve(co, None, config())

    def test_sample_on_nodes(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + t * np.sin(x), lam=0.1, Lam=3.0,
            b_fn=lambda t, x: 2.0,
        )
        a, b, c = co.sample(TG.nodes, X)
        assert a.shape == b.shape == (len(TG), len(X))
        assert np.array_equal(a[3], 1.0 + TG.nodes[3] * np.sin(X))
        assert np.all(b == 2.0) and c is None

    def test_sample_and_driver_rows_match_a_call_per_row(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + 0.3 * t + 0.2 * np.sin(x), lam=0.5, Lam=1.6,
            b_fn=lambda t, x: np.cos(x + t), c_fn=lambda t, x: -0.5 * t * np.exp(-x**2),
            driver=lambda t, x, q, u, v: np.sin(q) * t - u * np.exp(-t) + 0.1 * v * x,
            lipschitz=1.5,
        )
        t = TG.nodes
        a, b, c = co.sample(t, X)
        # the per-row reference: one call per time row
        for got, fn in ((a, co.a_fn), (b, co.b_fn), (c, co.c_fn)):
            assert np.array_equal(got, np.stack([fn(tk, X) * np.ones_like(X) for tk in t]))
        q, u, v = np.random.default_rng(1).standard_normal((3, 4, len(t), len(X)))
        for vv in (v, 0.3):
            rows = np.stack([co.driver(tk, X, q[:, k], u[:, k],
                                       vv if np.ndim(vv) == 0 else vv[:, k])
                             for k, tk in enumerate(t)], axis=1)
            assert np.array_equal(co.driver_rows(t, X, q, u, vv), rows)

    @staticmethod
    def first_node(bad):
        """The (t, x) text of the first True node of a (K+1, J) mask, time-major."""
        k, j = np.argwhere(bad)[0]
        assert (k, j) != (0, 0)
        return f"(t={TG.nodes[k]:.4g}, x={X[j]:.4g})"

    @pytest.mark.parametrize("data, fails, message", [
        (dict(a_fn=lambda t, x: 1.0 + 2.0 * np.cos(x), lam=0.3, Lam=3.0),
         lambda t, x: 1.0 + 2.0 * np.cos(x) < 0.3, "ellipticity violated"),
        (dict(diffusion=DiffusionCoefficient.isotropic(1.0),
              b_fn=lambda t, x: np.where(x > 3.0, np.inf, 1.0)),
         lambda t, x: x > 3.0, "coefficient b is not finite"),
        (dict(diffusion=DiffusionCoefficient.isotropic(1.0),
              c_fn=lambda t, x: np.where(t > 0.5, np.nan, 0.0)),
         lambda t, x: t > 0.5, "coefficient c is not finite"),
    ], ids=["a", "b", "c"])
    def test_assumption_message_names_first_failing_point(self, data, fails, message):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()), **data)
        at = self.first_node(fails(TG.nodes[:, None], X) * np.ones((len(TG), len(X))))
        with pytest.raises(AssumptionViolation) as err:
            co.check_assumptions(TG, SG)
        assert str(err.value).startswith(f"{message} at {at}")

    def test_lipschitz_message_names_first_failing_point(self):
        co = sine_problem(driver=lambda t, x, q, u, v: np.where(x > 5.0, 5.0 * u, u),
                          lipschitz=1.0)
        # a step of u by 0.5 moves the driver by 2.5 where x > 5, by 0.5 elsewhere
        at = self.first_node(np.broadcast_to(X > 5.0, (len(TG), len(X))))
        with pytest.raises(AssumptionViolation) as err:
            co.check_assumptions(TG, SG)
        assert str(err.value).startswith(
            f"driver violates its Lipschitz bound at {at}: 2.5 > 0.5")

    def test_is_deterministic(self):
        assert sine_problem().is_deterministic()
        stoch = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            diffusion=DiffusionCoefficient.isotropic(0.5),
        )
        assert not stoch.is_deterministic()


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            config(tol=0.0)
        with pytest.raises(InvalidArgument):
            config(max_iter=0)
        with pytest.raises(InvalidArgument):
            config(beta=-1.0)


class TestBumpField:
    def test_plateau_support_and_range(self):
        b = BumpField(0.0, 1.0)
        xs = np.linspace(-3.0, 3.0, 1201)
        vals = b(xs)
        assert np.all(vals[np.abs(xs) <= 1.0] == 1.0)
        assert np.all(vals[np.abs(xs) >= 2.0] == 0.0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_c2_at_seams(self):
        # second differences stay bounded across both seams
        b = BumpField(0.3, 0.7)
        for seam in (0.3 + 0.7, 0.3 + 1.4, 0.3 - 0.7, 0.3 - 1.4):
            xs = seam + np.linspace(-0.02, 0.02, 81)
            h = xs[1] - xs[0]
            d2 = np.diff(b(xs), 2) / h**2
            assert np.all(np.isfinite(d2))
            assert np.abs(np.diff(b.d1(xs))).max() < 0.05  # derivative continuous

    def test_scaling_and_center(self):
        b = BumpField(2.0, 0.5)
        assert b(2.0) == 1.0
        assert b(2.4) == 1.0
        assert b(3.1) == 0.0
        assert 0.0 < b(2.7) < 1.0

    def test_invalid_radius(self):
        with pytest.raises(InvalidArgument):
            BumpField(0.0, 0.0)


class TestConvolve:
    """_PairConvolver on one pair (k=0, t=0, s) with analytic field stacks."""

    KERNEL = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=1.0)
    MASK = SG.interior_mask(1.0)

    def conv(self, h, order, s=0.5, kernel=None):
        pairs = _PairConvolver(kernel or self.KERNEL, SG, 1, [0], [0.0], [s], [1.0])
        return pairs.apply(_space_factor_stack(h, SG), (order,))[order][0]

    def test_unit_mass(self):
        out = self.conv(SpaceFactor.constant(1.0), 0)
        assert np.abs(out - 1.0)[self.MASK].max() < 1e-6

    def test_odd_moment_cancellation(self):
        out = self.conv(SpaceFactor.poly((0.0, 1.0)), 0)
        assert np.abs(out - X)[self.MASK].max() < 1e-6

    def test_second_moment(self):
        out = self.conv(SpaceFactor.poly((0.0, 0.0, 1.0)), 0)
        assert np.abs(out - (X**2 + 1.0))[self.MASK].max() < 1e-6

    def test_sine_decay(self):
        half = HeatKernel(DiffusionCoefficient.isotropic(0.5), horizon=1.0)
        out = self.conv(SpaceFactor.sine(), 0, s=0.6, kernel=half)
        assert np.abs(out - np.exp(-0.3) * np.sin(X))[self.MASK].max() < 1e-5

    def test_derivative_orders(self):
        out1 = self.conv(SpaceFactor.sine(), 1)
        assert np.abs(out1 - np.exp(-0.5) * np.cos(X))[self.MASK].max() < 1e-6
        out2 = self.conv(SpaceFactor.sine(), 2)
        assert np.abs(out2 + np.exp(-0.5) * np.sin(X))[self.MASK].max() < 1e-6

    def test_second_derivative_with_supplied_gradient(self):
        # order 2 convolves the supplied gradient stack[1] with the first-derivative kernel
        stack = _space_factor_stack(SpaceFactor.sine(), SG)
        stack[1] = np.cos(X)
        pairs = _PairConvolver(self.KERNEL, SG, 1, [0], [0.0], [0.5], [1.0])
        out = pairs.apply(stack, (2,))[2][0]
        assert np.abs(out + np.exp(-0.5) * np.sin(X))[self.MASK].max() < 1e-6

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrder):
            self.conv(SpaceFactor.sine(), 3)

    def test_pair_sources_scatter_into_weighted_rows(self):
        # pairs (k, t, s, w, F): (0, 0, 0.5, 1, sin), (1, 0.2, 0.6, 2, cos), (1, 0.5, 1, 3, sin)
        sin = _space_factor_stack(SpaceFactor.sine(), SG)
        cos = _space_factor_stack(SpaceFactor.sine(phase=0.5 * np.pi), SG)
        stack = [np.stack([a, b, c]) for a, b, c in zip(sin, cos, sin)]
        pairs = _PairConvolver(self.KERNEL, SG, 2, [0, 1, 1], [0.0, 0.2, 0.5],
                               [0.5, 0.6, 1.0], [1.0, 2.0, 3.0], j=np.arange(3))
        e1, e2 = np.exp(-0.5), np.exp(-0.4)
        expected = {
            0: [e1 * np.sin(X), 2.0 * e2 * np.cos(X) + 3.0 * e1 * np.sin(X)],
            1: [e1 * np.cos(X), -2.0 * e2 * np.sin(X) + 3.0 * e1 * np.cos(X)],
        }
        for order, rows in expected.items():
            out = pairs.apply(stack, (order,))[order]
            assert out.shape == (2, SG.points_per_axis)
            assert np.abs(out - np.stack(rows))[:, self.MASK].max() < 1e-6


class TestPairEngineBitIdentity:
    """_PairConvolver.apply equals per-pair fftconvolve plus np.add.at, bit for bit."""

    SG = SpaceGrid(1, 6.0, 65)
    TG = TimeGrid(1.0, 12)
    KERNEL = HeatKernel(DiffusionCoefficient.time_scaled(lambda t: 0.4 + 0.3 * np.sin(3.0 * t),
                                                         lam=0.1, Lam=0.7), beta=0.7)

    def reference(self, grid, rows, k, t, s, w, stack, order, kernel):
        J = grid.points_per_axis
        quad_w = space_quadrature_weights(grid)
        # kernel rows sampled over all pairs at once, as the engine does
        # (numpy's array and scalar pow differ in the last bit)
        A = kernel.covariance_pairs(t, s)[:, 0, 0]
        damp = np.exp(-kernel.beta * (s - t))
        small = A < _SMALL_FACTOR * grid.h**2
        A_safe = np.where(small, 1.0, A)[:, None]
        z = (np.arange(-(J - 1), J) * grid.h)[None, :]
        G = damp[:, None] * (4.0 * np.pi * A_safe) ** -0.5 * np.exp(-0.25 * z**2 / A_safe)
        if order > 0:
            G = -0.5 * (z / A_safe) * G
        out = np.zeros((rows, J))
        contrib = []
        for p in range(len(k)):
            F = [np.asarray(d)[p] if np.ndim(d) == 2 else np.asarray(d) for d in stack]
            if small[p]:
                lim = F[order] + A[p] * F[order + 2]
                vals = damp[p] * (lim + 0.5 * A[p] ** 2 * F[order + 4])
            else:
                def conv(src):
                    return fftconvolve(src * quad_w, G[p], mode="full")[J - 1:2 * J - 1]

                if order == 0:
                    vals = conv(F[0])
                else:
                    vals = conv(F[order - 1]) - F[order - 1] * conv(np.ones(J))
            contrib.append(w[p] * vals)
        np.add.at(out, k, np.array(contrib))
        return out

    def check(self, rows, k, t, s, w, stack, pair_stack=None, j=None, grid=None, kernel=None):
        """Both table modes against the reference; returns the kept table.

        A streamed table computes each block's kernel rows inside the block
        and holds none after apply; a kept table holds one row per kernel."""
        grid = self.SG if grid is None else grid
        kernel = self.KERNEL if kernel is None else kernel
        expected = [self.reference(grid, rows, k, t, s, w,
                                   stack if pair_stack is None else pair_stack, order, kernel)
                    for order in range(3)]
        for keep in (False, True):
            pairs = _PairConvolver(kernel, grid, rows, k, t, s, w, j=j)
            if keep:
                pairs.keep_kernels()
            every = pairs.apply(stack, (0, 1, 2))
            assert all(np.array_equal(every[o], expected[o]) for o in range(3))
            # a subset of the orders gives the same bits
            for orders in ((0,), (1, 2), (0, 1), (2,)):
                some = pairs.apply(stack, orders)
                assert sorted(some) == list(orders)
                assert all(np.array_equal(some[o], every[o]) for o in orders)
            if not keep:
                assert pairs._kept is None
        return pairs

    def picard_triangle(self, tgrid, grid, kernel=None):
        K, nodes = tgrid.num_steps, tgrid.nodes
        k, j = np.triu_indices(K + 1)
        w = np.full(k.shape, tgrid.dt)
        w[(j == k) | (j == K)] *= 0.5
        w[k == K] = 0.0
        rng = np.random.default_rng(0)
        F = (np.cos(nodes)[:, None] * np.sin(grid.axis)[None, :]
             + 0.1 * rng.standard_normal((K + 1, grid.points_per_axis)))
        stack = _difference_to_sixth([F], grid)
        return self.check(K + 1, k, nodes[k], nodes[j], w, stack,
                          pair_stack=[d[j] for d in stack], j=j, grid=grid, kernel=kernel)

    def test_picard_triangle_with_source_rows(self):
        pairs = self.picard_triangle(self.TG, self.SG)
        assert pairs.fft_len == 200
        assert 0 < pairs.small.sum() < pairs.small.size

    @pytest.mark.parametrize("J, fft_len", [(129, 400), (257, 800)])
    def test_picard_triangle_at_production_lengths(self, J, fft_len):
        pairs = self.picard_triangle(TimeGrid(1.0, 6), SpaceGrid(1, 6.0, J))
        assert pairs.fft_len == fft_len

    def test_shared_source_repeated_rows(self):
        # forcing-table shape: several s nodes per row, one shared (J,) source
        K, heads = self.TG.num_steps, self.TG.nodes[:-1]
        u = np.array([1e-4, 0.02, 0.3, 0.7, 0.95])
        k = np.repeat(np.arange(K), len(u))
        t = np.repeat(heads, len(u))
        s = (heads[:, None] + (1.0 - heads)[:, None] * u[None, :]).ravel()
        w = np.tile([0.1, 0.2, 0.4, 0.2, 0.1], K)
        stack = _space_factor_stack(SpaceFactor.sine(phase=0.3), self.SG)
        self.check(K + 1, k, t, s, w, stack)

    def test_per_pair_sources(self):
        rng = np.random.default_rng(1)
        k = np.array([0, 0, 1, 3, 3, 3])
        t = np.array([0.0, 0.1, 0.2, 0.4, 0.4, 0.5])
        s = np.array([0.5, 0.1001, 0.9, 0.6, 1.0, 0.8])
        w = rng.uniform(0.5, 2.0, len(k))
        stack = [rng.standard_normal((len(k), self.SG.points_per_axis)) for _ in range(7)]
        self.check(4, k, t, s, w, stack, j=np.arange(len(k)))

    def assert_multi_block(self, pairs):
        assert len(pairs._blocks) >= 3
        assert len(pairs.k) % _PAIR_BLOCK != 0

    def test_multi_block_picard_triangle(self):
        pairs = self.picard_triangle(TimeGrid(1.0, 30), self.SG)
        self.assert_multi_block(pairs)
        # some block holds transformed and small pairs both
        assert any(lo < mid < hi for lo, mid, hi, _f, _runs in pairs._blocks)
        # a time-scaled a repeats no kernel, so first-occurrence numbering
        # gives every block consecutive kernel ids
        assert pairs.num_kernels == pairs.num_transformed
        for lo, mid, _hi, pick, _runs in pairs._blocks:
            k0 = pick[0] if len(pick) else 0
            assert np.array_equal(pick, np.arange(k0, k0 + mid - lo))
        # each run is a slice of consecutive rows and consecutive sources
        for lo, _mid, _hi, _pick, runs in pairs._blocks:
            for k0, j0, a, b in runs:
                assert np.array_equal(pairs.k[lo + a:lo + b], np.arange(k0, k0 + b - a))
                assert np.array_equal(pairs.j[lo + a:lo + b], np.arange(j0, j0 + b - a))

    def test_multi_block_shared_source(self):
        # forcing-table shape: 13 rows of 37 s nodes, one shared (J,) source
        K = 13
        heads = TimeGrid(1.0, K).nodes[:-1]
        u = np.linspace(1e-4, 0.97, 37)
        k = np.repeat(np.arange(K), len(u))
        t = np.repeat(heads, len(u))
        s = (heads[:, None] + (1.0 - heads)[:, None] * u[None, :]).ravel()
        w = np.tile(np.linspace(0.1, 0.3, len(u)), K)
        stack = _space_factor_stack(SpaceFactor.sine(phase=0.3), self.SG)
        pairs = self.check(K + 1, k, t, s, w, stack)
        self.assert_multi_block(pairs)
        assert 0 < pairs.small.sum() < pairs.small.size

    def test_multi_block_per_pair_sources(self):
        rng = np.random.default_rng(2)
        P, rows = 300, 40
        k = np.sort(rng.integers(0, rows, P))
        t = rng.uniform(0.0, 0.8, P)
        s = t + rng.choice([0.0, 1e-3, 0.3, 1.0], P) * rng.uniform(0.5, 1.0, P)
        w = rng.uniform(0.5, 2.0, P)
        stack = [rng.standard_normal((P, self.SG.points_per_axis)) for _ in range(7)]
        pairs = self.check(rows, k, t, s, w, stack, j=np.arange(P))
        self.assert_multi_block(pairs)
        assert 0 < pairs.small.sum() < pairs.small.size

    def test_constant_a_table_repeats_kernels(self):
        # a constant a on a uniform grid: pairs at one time gap share a kernel
        kernel = HeatKernel(DiffusionCoefficient.isotropic(0.5), beta=0.7)
        pairs = self.picard_triangle(TimeGrid(1.0, 32), self.SG, kernel=kernel)
        self.assert_multi_block(pairs)
        assert pairs.num_kernels < pairs.num_transformed // 4
        assert any(len(np.unique(pick)) < len(pick) for _lo, _mid, _hi, pick, _runs in pairs._blocks)
        # the kept tables hold one spectrum row of each order and one mass row per kernel
        assert len(pairs._kept) == 3
        assert all(len(table) == pairs.num_kernels for table in pairs._kept)

    def test_kernels_keyed_by_damping_too(self):
        # s past the horizon clips the covariance: one A, two dampings, two kernels
        k, t, s = np.arange(4), np.full(4, 0.4), np.array([1.1, 1.4, 1.1, 1.4])
        stack = _space_factor_stack(SpaceFactor.sine(phase=0.3), self.SG)
        pairs = self.check(4, k, t, s, np.ones(4), stack)
        assert len(set(pairs.A.tolist())) == 1
        assert pairs.num_kernels == 2

    def test_row_sources_need_j(self):
        pairs = _PairConvolver(self.KERNEL, self.SG, 1, [0], [0.0], [0.5], [1.0])
        stack = [np.ones((1, self.SG.points_per_axis))] * 7
        with pytest.raises(InvalidArgument, match="j"):
            pairs.apply(stack, (0,))

    def test_unsorted_rows_rejected(self):
        with pytest.raises(InvalidArgument, match="sorted"):
            _PairConvolver(self.KERNEL, self.SG, 2, [1, 0], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0])


class TestPairBlockSize:
    """apply has the same bits at any _PAIR_BLOCK: every row adds its pairs
    in pass order, and no inverse FFT row depends on the rows batched with it."""

    BLOCKS = (1, 7, 32, 128)

    @staticmethod
    def picard_table():
        # variable_a_sin's production table: K = 100, J = 257, 295 kernels
        spec = get_scenario("variable_a_sin")
        cfg = spec.config()
        tg, grid = cfg.time_grid, cfg.space_grid
        kernel = HeatKernel(solver._frozen_diffusion(spec.build_coeffs()), horizon=tg.horizon)
        K, nodes = tg.num_steps, tg.nodes
        k, j = np.triu_indices(K + 1)
        w = np.full(k.shape, tg.dt)
        w[(j == k) | (j == K)] *= 0.5
        w[k == K] = 0.0
        F = np.cos(3.0 * nodes)[:, None] * np.sin(grid.axis)[None, :] + 0.01 * nodes[:, None]
        return (kernel, grid, K + 1, k, nodes[k], nodes[j], w), j, _difference_to_sixth([F], grid)

    @staticmethod
    def forcing_table():
        # forcing shape: 40 rows of 9 s nodes, one shared (J,) source
        tg, grid = TimeGrid(1.0, 40), SpaceGrid(1, 6.0, 129)
        K, heads = tg.num_steps, tg.nodes[:-1]
        u = np.linspace(1e-3, 0.98, 9)
        s = heads[:, None] + ((1.0 - heads)[:, None] * u[None, :]) ** 2
        kernel = HeatKernel(DiffusionCoefficient.time_scaled(lambda t: 0.5 + 0.2 * t,
                                                             lam=0.5, Lam=0.7))
        return ((kernel, grid, K + 1, np.repeat(np.arange(K), len(u)), np.repeat(heads, len(u)),
                 s.ravel(), np.tile(np.linspace(0.1, 0.3, len(u)), K)), None,
                _space_factor_stack(SpaceFactor.sine(phase=0.3), grid))

    @pytest.mark.parametrize("table", ["picard", "forcing"])
    def test_apply_is_independent_of_the_block_size(self, table, monkeypatch):
        args, j, stack = getattr(self, f"{table}_table")()
        first = None
        for block in self.BLOCKS:
            monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
            for keep in (False, True):
                pairs = _PairConvolver(*args, j=j)
                assert len(pairs._blocks) == -(-len(pairs.k) // block)
                if keep:
                    pairs.keep_kernels()
                got = pairs.apply(stack, (0, 1, 2))
                if first is None:
                    first = got
                assert all(np.array_equal(got[o], first[o]) for o in range(3)), (block, keep)
        # both tables mix transformed and small pairs; some block of the
        # Picard table reads one kernel row twice
        assert 0 < pairs.small.sum() < pairs.small.size
        if table == "picard":
            assert any(len(np.unique(b[3])) < len(b[3]) for b in pairs._blocks)


def picard_integrator(co, cfg, beta):
    """The gridded integrator a Picard solve of co builds: the damped kernel
    of a frozen at x = 0 and the terminal stack."""
    tgrid, grid = cfg.time_grid, cfg.space_grid
    kernel = HeatKernel(solver._frozen_diffusion(co), beta=beta, horizon=tgrid.horizon)
    return _GriddedIntegrator(kernel, tgrid, grid, solver._terminal_stack(co, grid))


def test_repeat_integrator_solve_allocates_little():
    # K = 100, J = 257: 5,151 pairs; a (P, J) array alone would take 10.6 MB.
    # A repeat solve peaks at about 3.75 MiB: its outputs, the source stack
    # and spectra, and one block's scratch
    tgrid, grid = TimeGrid(1.0, 100), SpaceGrid(1, 6.0, 257)
    kernel = HeatKernel(DiffusionCoefficient.isotropic(0.5), beta=8.0, horizon=1.0)
    integrator = _GriddedIntegrator(kernel, tgrid, grid,
                                    _space_factor_stack(SpaceFactor.sine(), grid))
    F = np.cos(tgrid.nodes)[:, None] * np.sin(grid.axis)[None, :]
    first = integrator.solve(F, (0, 1, 2))
    tracemalloc.start()
    try:
        again = integrator.solve(F, (0, 1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert all(np.array_equal(first[o], again[o]) for o in range(3))


def test_variable_a_sin_keeps_one_kernel_row_per_distinct_kernel():
    # K = 100, J = 257: 4,753 transformed pairs; a row per pair took 71 MB
    spec = get_scenario("variable_a_sin")
    integrator = picard_integrator(spec.build_coeffs(), spec.config(), 0.0)
    pairs = integrator.pairs
    integrator.solve(np.ones((101, 257)), (0, 1, 2))
    assert (pairs.num_transformed, pairs.num_kernels) == (4753, 295)
    assert len(pairs._kept) == 3 and all(len(table) == 295 for table in pairs._kept)
    assert sum(a.nbytes for a in pairs._kept) <= 8 * 2**20


def test_one_shot_forcing_tables_stream_their_kernel_rows():
    # constant_source's grid: K = 100, J = 257, two tables of 3,200 pairs;
    # tables that kept their 2,028 and 2,560 kernel rows peaked at 36 MB
    spec = get_scenario("constant_source")
    cfg = spec.config()
    tgrid, grid = cfg.time_grid, cfg.space_grid
    kernel = HeatKernel(spec.build_coeffs().diffusion, horizon=tgrid.horizon)
    stack = _space_factor_stack(SpaceFactor.constant(1.0), grid)
    tracemalloc.start()
    try:
        _forcing_profiles(kernel, tgrid, stack, np.ones_like, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_next_fast_len_matches_scipy():
    expected = [next_fast_len(n, real=True) for n in range(1, 4097)]
    assert [_next_fast_len(n) for n in range(1, 4097)] == expected


class TestModelRoute:
    def test_sine_decay_closed_form(self, sine_solution):
        t = TG.nodes
        exact = np.exp(-(T - t)[:, None] / 2.0) * np.sin(X)[None, :]
        err = np.abs(sine_solution.u_dense()[0] - exact)[:, sine_solution.trusted]
        assert err.max() < 1e-3

    def test_derivative_caches(self, sine_solution):
        t = TG.nodes
        exact1 = np.exp(-(T - t)[:, None] / 2.0) * np.cos(X)[None, :]
        err = np.abs(sine_solution.u_dense(1)[0] - exact1)[:, sine_solution.trusted]
        assert err.max() < 2e-3

    def test_terminal_exact(self, sine_solution):
        assert np.array_equal(sine_solution.u_dense()[0, -1], np.sin(X))

    def test_zero_data_gives_zero(self):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.constant(0.0)),
                            diffusion=DiffusionCoefficient.isotropic(1.0))
        sol = solve_model(co, None, config())
        assert np.abs(sol.u_dense()).max() == 0.0

    def test_quadratic_terminal(self):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 0, 1])),
                            diffusion=DiffusionCoefficient.isotropic(1.0))
        sol = solve_model(co, None, config())
        exact = X[None, :] ** 2 + 2.0 * (T - TG.nodes)[:, None]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3

    def test_constant_source(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.constant(0.0)),
            diffusion=DiffusionCoefficient.isotropic(1.0),
            forcing=DataFunctional.deterministic(SpaceFactor.constant(1.0)),
        )
        sol = solve_model(co, None, config())
        exact = (T - TG.nodes)[:, None] * np.ones_like(X)[None, :]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3

    def test_rejects_drift_terms(self):
        co = sine_problem(b_fn=lambda t, x: 1.0)
        with pytest.raises(InvalidRoute, match="solve_variable_linear"):
            solve_model(co, None, config())

    def test_rejects_stochastic_without_paths(self):
        co = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            diffusion=DiffusionCoefficient.isotropic(0.5),
        )
        with pytest.raises(InvalidRoute):
            solve_model(co, None, config())

    def test_stochastic_sine_terminal(self):
        paths = sample_paths(500, 1, TG, seed=21)
        co = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            diffusion=DiffusionCoefficient.isotropic(0.5), sigma=(0.0,),
        )
        sol = solve_model(co, paths, config())
        t = TG.nodes
        W = paths.paths[:, :, 0]
        u_exact = W[:, :, None] * np.exp(-(T - t)[None, :, None] / 2.0) * np.sin(X)[None, None, :]
        v_exact = np.exp(-(T - t)[:, None] / 2.0) * np.sin(X)[None, :]
        idx = np.arange(100)
        uerr = (sol.u_dense(0, idx) - u_exact[idx])[:, :, sol.trusted]
        verr = (sol.v_dense(0, 0, idx) - v_exact[None])[:, :, sol.trusted]
        assert np.sqrt((uerr**2).mean()) < 1e-3
        assert np.abs(verr).max() < 1e-3

    def test_linearity(self):
        a = DiffusionCoefficient.isotropic(1.0)
        phi1 = DataFunctional.deterministic(SpaceFactor.sine())
        phi2 = DataFunctional.deterministic(SpaceFactor.poly([0, 0, 1]))
        both = DataFunctional(terms=phi1.terms + phi2.terms)
        s1 = solve_model(CoefficientSet(terminal=phi1, diffusion=a), None, config())
        s2 = solve_model(CoefficientSet(terminal=phi2, diffusion=a), None, config())
        s12 = solve_model(CoefficientSet(terminal=both, diffusion=a), None, config())
        gap = np.abs(s12.u_dense()[0] - s1.u_dense()[0] - s2.u_dense()[0])
        assert gap.max() < 1e-10

    def test_scale_equivariance(self):
        a = DiffusionCoefficient.isotropic(1.0)
        base = solve_model(
            CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 0, 1])),
                           diffusion=a), None, config())
        scaled = solve_model(
            CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 0, 10.0])),
                           diffusion=a), None, config())
        gap = np.abs(scaled.u_dense()[0] - 10.0 * base.u_dense()[0])
        assert gap.max() < 1e-10


class TestDeterministicDispatch:
    def test_rejects_stochastic_data(self):
        co = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            diffusion=DiffusionCoefficient.isotropic(0.5),
        )
        with pytest.raises(InvalidRoute, match="stochastic"):
            solve(co, None, config())

    def test_v_identically_zero(self, sine_solution):
        assert sine_solution.noise_dim == 1
        assert np.abs(sine_solution.v_dense(0)).max() == 0.0

    def test_constant_zeroth_coefficient_mode(self):
        # a = 1, c = 1/2, terminal sin: amplitude solves g' = (1 - c) g backward
        co = sine_problem(a=1.0, c_fn=lambda t, x: 0.5)
        sol = solve(co, None, config())
        exact = np.exp((0.5 - 1.0) * (T - TG.nodes))[:, None] * np.sin(X)[None, :]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3


class TestVariableLinear:
    def test_space_invariant_converges_immediately(self):
        sol = solve(sine_problem(), None, config())
        assert sol.info["iterations"] == 1
        assert sol.provenance == "representation"

    def test_transport_with_decay(self):
        co = sine_problem(a=1.0, b_fn=lambda t, x: 1.0)
        sol = solve_variable_linear(co, config(tol=1e-7))
        exact = np.exp(-(T - TG.nodes))[:, None] * np.sin(X[None, :] + (T - TG.nodes)[:, None])
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3
        assert sol.info["converged"]

    def test_variable_diffusion_converges(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
        )
        sol = solve_variable_linear(co, config())
        assert sol.info["converged"]
        assert integral_form_defect(sol, co)[0] < 1e-3

    def test_divergence_report_on_tight_cap(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
        )
        sol = solve_variable_linear(co, config(max_iter=2))
        assert not sol.info["converged"]
        assert "contraction_history" in sol.info
        assert "beta=0.0; the last change is largest" in sol.info["advisory"]
        assert sol.info["advisory"].endswith("the trusted region")

    def test_rejects_stochastic_data(self):
        co = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
        )
        with pytest.raises(InvalidRoute):
            solve_variable_linear(co, config())


@pytest.mark.parametrize(
    "sid", ["heat_smoke", "heat_quadratic", "sin_decay", "abs_kink", "constant_source"])
def test_picard_route_agrees_with_the_representation_route(sid):
    # space-invariant a with no b and no c: solve takes the representation
    # route, and the frozen-reference Picard route must give the same field
    spec = get_scenario(sid)
    coeffs, cfg = spec.build_coeffs(), spec.config()
    picard, model = solve_variable_linear(coeffs, cfg), solve(coeffs, None, cfg)
    assert model.provenance == "representation"
    assert np.array_equal(picard.trusted, model.trusted)
    for o in range(3):
        diff = picard.u_dense(o) - model.u_dense(o)
        assert np.abs(diff[..., model.trusted]).max() <= 1e-12, o


class TestSemilinear:
    def test_mode_oracle(self):
        co = sine_problem(driver=lambda t, x, q, u, v: -u, lipschitz=1.0)
        sol = solve_semilinear(co, config())
        exact = np.exp(-1.5 * (T - TG.nodes))[:, None] * np.sin(X)[None, :]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3

    def test_source_only_driver_single_step(self):
        # a driver ignoring (q, u, v) must settle after one real update
        co = sine_problem(a=1.0,
                          driver=lambda t, x, q, u, v: np.zeros_like(x), lipschitz=1e-12)
        sol = solve_semilinear(co, config())
        assert sol.info["iterations"] <= 2
        exact = np.exp(-(T - TG.nodes))[:, None] * np.sin(X)[None, :]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3

    def test_contraction_factor_decreases_in_beta(self):
        factors = {}
        for beta in (0.0, 5.0, 20.0):
            co = sine_problem(driver=lambda t, x, q, u, v: 2.0 * u, lipschitz=2.0)
            sol = solve_semilinear(co, config(beta=beta, tol=1e-8))
            factors[beta] = sol.info["contraction_factor"]
        assert factors[0.0] > factors[5.0] > factors[20.0]

    def test_geometric_decay_of_differences(self):
        co = sine_problem(driver=lambda t, x, q, u, v: -u, lipschitz=1.0)
        sol = solve_semilinear(co, config(beta=8.0, tol=1e-10))
        sups = [h["sup_change"] for h in sol.info["history"]]
        # past the first transient, successive differences shrink geometrically
        ratios = [sups[i + 1] / sups[i] for i in range(1, len(sups) - 1)]
        assert ratios and max(ratios) < 1.0

    def test_requires_driver(self):
        with pytest.raises(InvalidRoute):
            solve_semilinear(sine_problem(), config())

    def test_variable_a_driver_matches_finite_differences(self):
        # a = 1 + 0.4 sin x under a driver of Lipschitz constant 1.2, on
        # variable_a_sin's grids (K = 100, J = 257)
        cfg = get_scenario("variable_a_sin").config()
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()),
                            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
                            driver=lambda t, x, q, u, v: -u + 0.2 * np.sin(q), lipschitz=1.2)
        sol = solve(co, None, cfg)
        assert sol.provenance == "semilinear-picard" and sol.info["converged"]
        fd = finite_difference_oracle(co, cfg.time_grid, cfg.space_grid)
        assert np.abs(sol.u_dense()[0] - fd)[:, sol.trusted].max() <= 1e-3

    def test_second_derivative_formed_once_from_last_source(self, monkeypatch):
        co = sine_problem(driver=lambda t, x, q, u, v: -u + 0.3 * np.sin(q), lipschitz=1.3)
        K = 20
        cfg = SolverConfig(time_grid=TimeGrid(1.0, K), space_grid=SpaceGrid(1, 7.0, 65))
        requests = []
        apply = _PairConvolver.apply

        def spy(self, stack, orders):
            requests.append((len(self.k), tuple(orders)))
            return apply(self, stack, orders)

        monkeypatch.setattr(_PairConvolver, "apply", spy)
        sol = solve_semilinear(co, cfg)
        monkeypatch.undo()
        picard = [orders for P, orders in requests if P == (K + 1) * (K + 2) // 2]
        assert len(picard) == sol.info["iterations"] + 1
        assert sum(2 in orders for orders in picard) == 1

        # the semilinear reference loop, forming all three orders every iterate
        profiles, iterations = reference_picard(co, cfg, 8.0, linear=False)
        assert iterations == sol.info["iterations"]
        for o in range(3):
            assert np.array_equal(sol.u_parts[0].profiles[o], profiles[o])


def reference_picard(co, cfg, beta, linear):
    """Reference copies of the two routes' Picard loops, written out apart:
    frozen-reference (linear: source of forcing, a - abar, b and c; norm
    stopping test) or semilinear (source of driver and forcing; sup rule).
    Forms all three orders every iterate, as the orders do not move each
    other's bits.  Returns (profiles of u, iterations)."""
    tgrid, grid = cfg.time_grid, cfg.space_grid
    t, x = tgrid.nodes, grid.axis
    integrator = picard_integrator(co, cfg, beta)
    damp_t = np.exp(-beta * (tgrid.horizon - t))
    mask = solver._trusted_mask(grid, co.Lam, tgrid.horizon)
    f_tx = None
    if co.forcing is not None:
        f_tx = co.forcing.dense(solver._degenerate_paths(tgrid, 1), x)[0]
    a_tx, b_tx, c_tx = co.sample(t, x)
    abar_t = solver._frozen_diffusion(co)(t)[:, 0, 0]
    prof = integrator.terminal if linear else {o: np.zeros((len(t), len(x))) for o in range(3)}
    norm_prev = None
    for it in range(1, cfg.max_iter + 1):
        if linear:
            F = np.zeros((len(t), len(x)))
            if f_tx is not None:
                F += damp_t[:, None] * f_tx
            F += (a_tx - abar_t[:, None]) * prof[2]
            if b_tx is not None:
                F += b_tx * prof[1]
            if c_tx is not None:
                F += c_tx * prof[0]
        else:
            F = co.driver_rows(t, x, (prof[1] / damp_t[:, None])[None],
                               (prof[0] / damp_t[:, None])[None], 0.0)[0] * damp_t[:, None]
            if f_tx is not None:
                F += damp_t[:, None] * f_tx
        new_prof = integrator.solve(F, (0, 1, 2))
        d_m = float(np.max(np.abs((new_prof[0] - prof[0])[:, mask])))
        prof = new_prof
        if linear:
            norm = solver._norm_estimate(tgrid, grid,
                                         [prof[o] / damp_t[:, None] for o in range(3)], mask)
            if norm_prev is not None and abs(norm - norm_prev) / max(norm, 1e-12) < cfg.tol:
                break
            norm_prev = norm
        elif d_m < cfg.tol * max(1.0, float(np.max(np.abs(prof[0][:, mask])))):
            break
    return {o: prof[o] / damp_t[:, None] for o in range(3)}, it


SMALL = SolverConfig(time_grid=TimeGrid(1.0, 20), space_grid=SpaceGrid(1, 7.0, 65))
FORCING = DataFunctional.deterministic(SpaceFactor.sine(2.0))


class TestOnePicardLoop:
    @pytest.mark.parametrize("case", ["transport", "variable_a_forcing",
                                      "semilinear_forcing", "beta_sweep_beta0"])
    def test_bit_identical_to_a_loop_per_route(self, case):
        sine = DataFunctional.deterministic(SpaceFactor.sine())
        co, beta = {
            "transport": (sine_problem(a=1.0, b_fn=lambda t, x: 1.0), 0.0),
            "variable_a_forcing": (CoefficientSet(terminal=sine, forcing=FORCING, lam=0.6,
                                                  Lam=1.4, a_fn=lambda t, x:
                                                  1.0 + 0.4 * np.sin(x)), 0.0),
            "semilinear_forcing": (sine_problem(forcing=FORCING, lipschitz=1.3,
                                                driver=lambda t, x, q, u, v:
                                                -u + 0.3 * np.sin(q)), 8.0),
            "beta_sweep_beta0": (get_scenario("beta_sweep").build_coeffs(), 0.0),
        }[case]
        linear = co.driver is None
        sol = solve(co, None, replace(SMALL, beta=beta))
        assert sol.provenance == ("frozen-picard" if linear else "semilinear-picard")
        profiles, iterations = reference_picard(co, SMALL, beta, linear)
        assert sol.info["iterations"] == iterations
        for o in range(3):
            assert np.array_equal(sol.u_parts[0].profiles[o], profiles[o]), o

    @pytest.mark.parametrize("term, exact", [
        ({"b_fn": lambda t, x: 1.0}, lambda lag, x: np.exp(-lag) * np.sin(x + lag)),
        ({"c_fn": lambda t, x: 0.5}, lambda lag, x: np.exp(-0.5 * lag) * np.sin(x)),
    ], ids=["b", "c"])
    def test_driver_problems_keep_their_b_and_c_terms(self, term, exact):
        # a = 1 on a sine terminal: b = 1 transports the mode, c = 1/2 slows
        # its decay, and the zero driver changes neither
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()),
                            diffusion=DiffusionCoefficient.isotropic(1.0),
                            driver=lambda t, x, q, u, v: 0.0 * u, lipschitz=1e-9, **term)
        cfg = SolverConfig(time_grid=TG, space_grid=SpaceGrid(1, 10.0, 129))
        sol = solve(co, None, cfg)
        assert sol.provenance == "semilinear-picard"
        u = exact((T - TG.nodes)[:, None], cfg.space_grid.axis[None, :])
        assert np.abs(sol.u_dense()[0] - u)[:, sol.trusted].max() < 1e-3

    @pytest.mark.parametrize("sid", ["variable_a_sin", "transport_decay", "semilinear_mode"])
    def test_each_iterate_forms_the_orders_it_reads(self, picard_run, sid):
        run = picard_run[sid]
        n = run.artifacts["solution"].info["iterations"]
        if sid == "semilinear_mode":
            # the driver reads u and Du, the sup rule u; D^2 u once, at the end
            assert run.applies == [(0, 1)] * n + [(2,)]
        else:
            # the norm rule reads all three orders, so no extra apply
            assert run.applies == [(0, 1, 2)] * n


class TestResidualCertification:
    def test_clean_solution_small_residual(self, sine_solution):
        assert integral_form_defect(sine_solution, sine_problem())[0] < 1e-4

    @pytest.mark.parametrize("co", [
        sine_problem(),
        CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()),
                       a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4),
        sine_problem(driver=lambda t, x, q, u, v: -u, lipschitz=1.0),
    ], ids=["representation", "frozen_picard", "semilinear_picard"])
    def test_solve_does_not_certify_itself(self, co, monkeypatch):
        # the caller certifies a solve once; no route measures its own defect
        calls = []
        monkeypatch.setattr(solver, "integral_form_defect",
                            lambda *a, **k: calls.append(a))
        solve(co, None, config())
        assert calls == []

    def test_injected_defect_is_flagged(self):
        co = sine_problem()
        sol = solve(co, None, config())
        rms0, _ = integral_form_defect(sol, co)
        sol.u_parts[0].profiles[0] = sol.u_parts[0].profiles[0].copy()
        sol.u_parts[0].profiles[0][10:20] += 0.1
        rms1, _ = integral_form_defect(sol, co)
        assert rms1 > 100.0 * max(rms0, 1e-9)
        assert rms1 > 1e-3


def unchunked_defect(sol, co, paths):
    """integral_form_defect with every measured path evaluated at once."""
    tg, mask = sol.time_grid, sol.trusted
    field, x = sol.restrict(mask), sol.space_grid.axis[mask]
    pathwise = paths is not None and not co.is_deterministic()
    idx = np.arange(min(paths.num_paths, 64)) if pathwise else np.array([0])
    sub = paths.subset(idx) if pathwise else solver._degenerate_paths(tg, co.noise_dim)
    u0, u1, u2 = (field.u_dense(o, idx) for o in range(3))
    v = [field.v_dense(l, 0, idx) for l in range(sol.noise_dim)]
    a, b, c = co.sample(tg.nodes, x)
    drift = a[None] * u2
    if b is not None:
        drift += b[None] * u1
    if c is not None:
        drift += c[None] * u0
    f = None if co.forcing is None else co.forcing.dense(sub, x)
    if co.driver is not None:
        g = co.driver_rows(tg.nodes, x, u1, u0, v[0] if v else 0.0)
        f = g if f is None else f + g
    if f is not None:
        drift = drift + f
    sig = np.atleast_1d(np.asarray(co.sigma, dtype=float))
    for l, vl in enumerate(v):
        if sig[l] != 0.0:
            drift = drift + sig[l] * vl
    phi = co.terminal.terminal_values(sub, x)
    defect = backward_defect(u0, phi, drift, tg.dt, v, sub.increments if pathwise else None)
    assert defect.flags.c_contiguous and len(defect) == len(idx)
    scale = 1.0 + float(np.abs(phi).max(initial=0.0))
    return float(np.sqrt(np.mean(defect**2)) / scale), float(np.max(np.abs(defect)) / scale)


class TestDefectIsOneEvaluation:
    """integral_form_defect has the bits of one evaluation of every measured path."""

    @pytest.mark.parametrize("num_paths", [None, 61])  # None: 64 of the catalog's 10,000
    def test_stochastic_sin_wt(self, num_paths):
        spec = get_scenario("stochastic_sinWT")
        co, paths = spec.build_coeffs(), spec.paths(num_paths=num_paths)
        sol = solve(co, paths, spec.config())
        assert integral_form_defect(sol, co, paths) == unchunked_defect(sol, co, paths)

    def test_deterministic(self):
        co = sine_problem(forcing=DataFunctional.deterministic(SpaceFactor.sine()),
                          driver=lambda t, x, q, u, v: -u, lipschitz=1.0)
        sol = solve(co, None, config())
        assert integral_form_defect(sol, co) == unchunked_defect(sol, co, None)

    def test_deterministic_data_on_several_paths_uses_the_trapezoid(self):
        # the paths add nothing to deterministic data, so neither may the defect
        co = sine_problem(forcing=DataFunctional.deterministic(SpaceFactor.sine()))
        paths = sample_paths(5, 1, TG, seed=3)
        sol = solve(co, paths, config())
        assert sol.num_paths == 5
        assert integral_form_defect(sol, co, paths) == integral_form_defect(sol, co)


class TestLocalize:
    def test_residual_within_parent_budget(self, sine_solution):
        loc = localize(sine_solution, sine_problem(), z=0.2, theta=0.4)
        parent_rms, _ = integral_form_defect(sine_solution, sine_problem())
        assert loc.residual_rms <= 10.0 * max(parent_rms, 1e-9)

    def test_covering_inequality_slack(self, sine_solution):
        loc = localize(sine_solution, sine_problem(), z=0.0, theta=0.5)
        assert loc.covering["slack"] >= -1e-9
        assert np.isfinite(loc.covering["C"])

    def test_commutators_vanish_on_plateau(self):
        # the cutoff source terms carry eta' and eta'', which are 0 where eta = 1
        bump = BumpField(0.0, 3.0)
        inside = X[np.abs(X) <= 2.9]
        assert np.abs(bump.d1(inside)).max() == 0.0
        assert np.abs(bump.d2(inside)).max() == 0.0

    def test_forcing_and_driver_both_enter_the_source(self):
        co = sine_problem(forcing=DataFunctional.deterministic(SpaceFactor.sine()),
                          driver=lambda t, x, q, u, v: -u, lipschitz=1.0)
        sol = solve(co, None, config())
        parent_rms, _ = integral_form_defect(sol, co)
        loc = localize(sol, co, z=0.0, theta=2.0)
        assert loc.residual_rms <= 10.0 * max(parent_rms, 1e-9)

    def test_one_path_stochastic_solve_uses_ito_sums(self):
        co = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            diffusion=DiffusionCoefficient.isotropic(0.5),
        )
        paths = sample_paths(1, 1, TG, seed=42)
        sol = solve(co, paths, config())
        parent_rms, _ = integral_form_defect(sol, co, paths)
        loc = localize(sol, co, z=0.0, theta=2.0, paths=paths)
        assert loc.residual_rms <= 10.0 * max(parent_rms, 1e-9)


def seven_term_localized_rms(sol, co, z, theta, paths):
    """localize's residual with its source summed from all seven terms: zero
    arrays stand in for a constant-in-x sigma and an absent b, c or forcing."""
    x = sol.space_grid.axis
    bump = BumpField(center=z, radius=theta)
    eta, eta1, eta2 = bump(x), bump.d1(x), bump.d2(x)
    pathwise = paths is not None and not co.is_deterministic()
    idx = np.arange(min(paths.num_paths, 32)) if pathwise else np.array([0])
    sub = paths.subset(idx) if pathwise else solver._degenerate_paths(sol.time_grid, co.noise_dim)
    u0, u1, u2 = (sol.u_dense(o, idx) for o in range(3))
    v0 = [sol.v_dense(l, 0, idx) for l in range(sol.noise_dim)]
    a_tx, b_tx, c_tx = co.sample(sol.time_grid.nodes, x)
    b_tx, c_tx = (np.zeros_like(a_tx) if m is None else m for m in (b_tx, c_tx))
    a_tz = co.a_values(sol.time_grid.nodes, z)
    f_tx = np.zeros_like(u0) if co.forcing is None else co.forcing.dense(sub, x)
    if co.driver is not None:
        g = co.driver_rows(sol.time_grid.nodes, x, u1, u0, v0[0] if v0 else 0.0)
        f_tx = g if co.forcing is None else f_tx + g
    terms = [
        (a_tx - a_tz[:, None])[None] * u2 * eta,
        np.zeros_like(u0),
        b_tx[None] * u1 * eta,
        c_tx[None] * u0 * eta,
        f_tx * eta,
        -2.0 * a_tz[None, :, None] * u1 * eta1,
        -a_tz[None, :, None] * u0 * eta2,
    ]
    f_loc = sum(terms)
    u_loc, v_loc, phi_loc = u0 * eta, [vl * eta for vl in v0], u0[:, -1] * eta
    w2 = u2 * eta + 2.0 * u1 * eta1 + u0 * eta2
    drift = a_tz[None, :, None] * w2 + f_loc
    sig = np.atleast_1d(np.asarray(co.sigma, dtype=float))
    for l, vl in enumerate(v_loc):
        if sig[l] != 0.0:
            drift = drift + sig[l] * vl
    defect = backward_defect(u_loc, phi_loc, drift, sol.time_grid.dt, v_loc,
                             sub.increments if pathwise else None)[..., sol.trusted]
    return float(np.sqrt(np.mean(defect**2)) / (1.0 + float(np.abs(phi_loc).max(initial=0.0))))


class TestLocalizedSourceSkipsAbsentTerms:
    """localize sums only the terms the data has, and keeps the bits of the
    seven-term sum."""

    @pytest.fixture(scope="class")
    def variable_abc(self):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()),
                            forcing=FORCING, lam=0.6, Lam=1.4,
                            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x),
                            b_fn=lambda t, x: np.cos(x), c_fn=lambda t, x: 0.5)
        return solve(co, None, SMALL), co, None

    @pytest.fixture(scope="class")
    def driver_forcing(self):
        co = sine_problem(forcing=FORCING, lipschitz=1.3,
                          driver=lambda t, x, q, u, v: -u + 0.3 * np.sin(q))
        return solve(co, None, SMALL), co, None

    @pytest.mark.parametrize("theta", [0.6, 2.0])
    @pytest.mark.parametrize("case", ["variable_abc", "driver_forcing"])
    def test_deterministic_data(self, request, case, theta):
        sol, co, paths = request.getfixturevalue(case)
        loc = localize(sol, co, z=0.0, theta=theta, paths=paths)
        assert loc.residual_rms == seven_term_localized_rms(sol, co, 0.0, theta, paths)

    def test_stochastic_data_under_sigma(self, stochastic_forced):
        sol, co, paths = stochastic_forced
        loc = localize(sol, co, z=0.0, theta=0.6, paths=paths)
        assert loc.residual_rms == seven_term_localized_rms(sol, co, 0.0, 0.6, paths)


class TestOneSample:
    @pytest.fixture
    def read_orders(self, monkeypatch):
        """The orders of every u_dense call, in call order."""
        orders = []
        dense = SolutionField.u_dense

        def spy(self, order=0, path_idx=None):
            orders.append(order)
            return dense(self, order, path_idx)

        monkeypatch.setattr(SolutionField, "u_dense", spy)
        return orders

    def test_certificates_read_u_once_per_order(self, sine_solution, read_orders):
        # with neither b nor a driver, the defect does not read Du
        integral_form_defect(sine_solution, sine_problem())
        assert sorted(read_orders) == [0, 2]
        read_orders.clear()
        localize(sine_solution, sine_problem(), z=0.0, theta=2.0)
        assert sorted(read_orders) == [0, 1, 2]

    @pytest.mark.parametrize("kw", [
        {"b_fn": lambda t, x: 0.5},
        {"driver": lambda t, x, q, u, v: -u, "lipschitz": 1.0},
    ], ids=["drift", "driver"])
    def test_defect_reads_du_for_a_drift_or_a_driver(self, sine_solution, read_orders, kw):
        integral_form_defect(sine_solution, sine_problem(**kw))
        assert sorted(read_orders) == [0, 1, 2]

    def test_forcing_profiles_take_arrays_of_tau(self):
        tg, grid = TimeGrid(1.0, 10), SpaceGrid(1, 7.0, 65)
        data = DataFunctional(terms=tuple((SpaceFactor.sine(), PathFactor(kind, 0, (0.5,)))
                                          for kind in (BM, BM_SQUARED, EXP_MART)))
        family = solve_second_family(data, (0.3,), sample_paths(4, 1, tg, seed=3))
        s, c = 0.3, 0.5 * 0.3
        # B(tau) of each piece as a call per scalar tau: BM, then BM^2, then EXP_MART
        one = lambda tau: 1.0
        reference = ([one, lambda tau: s * tau, one, lambda tau: tau,
                      lambda tau: s**2 * tau**2, lambda tau: np.exp(c * tau)],
                     [one, one, lambda tau: 2.0 * s * tau, lambda tau: np.exp(c * tau)])
        kernel = HeatKernel(DiffusionCoefficient.isotropic(0.5), horizon=1.0)
        stack = _space_factor_stack(SpaceFactor.sine(), grid)
        taus = np.random.default_rng(2).uniform(0.0, 5.0, 10_000)
        for pieces, refs in zip((family.y_terms, family.g_terms[0]), reference, strict=True):
            assert len(pieces) == len(refs)
            for piece, ref in zip(pieces, refs):
                assert np.array_equal(piece.tau_fn(taus), np.vectorize(ref)(taus))
                got = _forcing_profiles(kernel, tg, stack, piece.tau_fn, grid)
                per_tau = _forcing_profiles(kernel, tg, stack, np.vectorize(piece.tau_fn), grid)
                for o in range(3):
                    assert np.array_equal(got[o], per_tau[o])


class TestTimeShift:
    def test_rejects_zero_and_off_grid(self, sine_solution):
        with pytest.raises(InvalidShift):
            time_shift_norms(sine_solution, [0.0])
        with pytest.raises(InvalidShift):
            time_shift_norms(sine_solution, [TG.dt * 1.5])
        with pytest.raises(InvalidShift):
            time_shift_norms(sine_solution, [T + TG.dt])

    def test_time_constant_solution_shift_zero(self):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 1])),
                            diffusion=DiffusionCoefficient.isotropic(1.0))
        sol = solve(co, None, config())
        assert time_shift_norms(sol, [0.1])[0] < 1e-5

    def test_every_tau_checked_before_one_evaluation(self, sine_solution, monkeypatch):
        calls = []
        dense = SolutionField.u_dense
        monkeypatch.setattr(SolutionField, "u_dense",
                            lambda sol, *a, **k: calls.append(a) or dense(sol, *a, **k))
        with pytest.raises(InvalidShift):
            time_shift_norms(sine_solution, [0.2, 0.1, TG.dt * 1.5])
        assert calls == []
        norms = time_shift_norms(sine_solution, [0.2, 0.1, 0.04])
        assert len(calls) == 1
        assert norms == [time_shift_norms(sine_solution, [tau])[0] for tau in (0.2, 0.1, 0.04)]

    def test_sqrt_rate_trend(self, sine_solution):
        taus = (0.2, 0.1, 0.04)
        ratios = [norm / np.sqrt(tau)
                  for tau, norm in zip(taus, time_shift_norms(sine_solution, taus))]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 1.2 * a


class TestDenseEvaluation:
    @staticmethod
    def field(num_paths):
        series = np.linspace(0.0, 1.0, num_paths)[:, None] * np.ones(len(TG))
        part = FieldPart({0: np.ones((len(TG), len(X)))}, series)
        return SolutionField(space_grid=SG, time_grid=TG, u_parts=[part],
                             v_parts=[[part]], num_paths=num_paths,
                             trusted=np.ones(len(X), dtype=bool))

    def test_whole_ensemble_above_cap_raises(self):
        sol = self.field(_DENSE_PATH_CAP + 1)
        with pytest.raises(InvalidArgument, match="path_idx"):
            sol.u_dense(0)
        with pytest.raises(InvalidArgument, match="path_idx"):
            sol.v_dense(0, 0)

    def test_cap_and_path_idx_are_allowed(self):
        assert self.field(_DENSE_PATH_CAP).u_dense(0).shape[0] == _DENSE_PATH_CAP
        sol = self.field(_DENSE_PATH_CAP + 1)
        u = sol.u_dense(0, path_idx=np.arange(_DENSE_PATH_CAP - 2, _DENSE_PATH_CAP + 1))
        assert u.shape == (3, len(TG), len(X))
        assert np.array_equal(u[:, 0, 0], sol.u_parts[0].series[-3:, 0])


@pytest.fixture(scope="module")
def stochastic_forced():
    """Stochastic terminal and forcing data under sigma = 0.3: u and v each
    sum parts of both profile kinds, and some parts share a profile table."""
    co = CoefficientSet(
        terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
        forcing=DataFunctional(terms=((SpaceFactor.sine(2.0), PathFactor(BM_SQUARED)),)),
        diffusion=DiffusionCoefficient.isotropic(0.5), sigma=(0.3,),
    )
    paths = sample_paths(40, 1, TG, seed=5)
    return solve(co, paths, config()), co, paths


@pytest.fixture(scope="module")
def sine_problem_solution(sine_solution):
    return sine_solution, sine_problem(), None


class _SlicedCube:
    """A restricted field as the checks read it before ``restrict``: the
    dense cube over the whole lattice, then the columns."""

    def __init__(self, sol, columns):
        self.sol, self.columns = sol, columns
        self.space_grid = solver._masked_grid(sol.space_grid, columns)

    def u_dense(self, order=0, path_idx=None):
        return self.sol.u_dense(order, path_idx)[..., self.columns]

    def v_dense(self, l, order=0, path_idx=None):
        return self.sol.v_dense(l, order, path_idx)[..., self.columns]


class TestRestrict:
    @pytest.fixture(params=["stochastic", "deterministic"])
    def case(self, request, stochastic_forced, sine_solution):
        if request.param == "stochastic":
            return stochastic_forced[0], [None, np.array([7, 0, 31])]
        return sine_solution, [None, np.array([0])]

    def test_dense_equals_the_sliced_cube_in_values_and_strides(self, case):
        sol, path_picks = case
        mask = sol.trusted
        field = sol.restrict(mask)
        assert field.space_grid == solver._masked_grid(sol.space_grid, mask)
        assert field.trusted.all() and len(field.trusted) == mask.sum()
        for idx in path_picks:
            pairs = [(field.u_dense(o, idx), sol.u_dense(o, idx)[..., mask]) for o in range(3)]
            for l in range(sol.noise_dim):
                pairs.append((field.v_dense(l, 0, idx), sol.v_dense(l, 0, idx)[..., mask]))
            for got, ref in pairs:
                assert np.array_equal(got, ref)
                # an empty part list (the v of a deterministic solve) is zeros,
                # with no profile to take a layout from
                if got.any():
                    assert got.strides == ref.strides

    def test_certificates_equal_the_old_way(self, stochastic_forced, sine_problem_solution,
                                            monkeypatch):
        cases = [stochastic_forced, sine_problem_solution]

        def measure():
            return [(time_shift_norms(sol, [0.2]), solution_norm_lhs(sol, 0.5),
                     integral_form_defect(sol, co, paths)) for sol, co, paths in cases]

        new = measure()
        monkeypatch.setattr(SolutionField, "restrict", lambda sol, cols: _SlicedCube(sol, cols))
        assert new == measure()


def csv_writer_export(sol, path, path_ids=None):
    """Reference export: one csv.writer row per (path, time, space) node."""
    if path_ids is None:
        path_ids = list(range(min(sol.num_paths, 8)))
    path_ids = list(path_ids)
    u = sol.u_dense(0, path_ids)
    v = [sol.v_dense(l, 0, path_ids) for l in range(sol.noise_dim)]
    x, t = sol.space_grid.axis, sol.time_grid.nodes
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["path_id", "t", "x", "u"]
                    + [f"v_{l + 1}" for l in range(sol.noise_dim)])
        for mi, pid in enumerate(path_ids):
            for k in range(len(t)):
                for j in range(len(x)):
                    row = [pid, f"{t[k]:.17g}", f"{x[j]:.17g}", f"{u[mi, k, j]:.17g}"]
                    row += [f"{vl[mi, k, j]:.17g}" for vl in v]
                    wr.writerow(row)


class TestSolutionFieldExport:
    @staticmethod
    def field(noise_dim):
        rng = np.random.default_rng(noise_dim)
        tg, sg = TimeGrid(0.7, 6), SpaceGrid(1, 3.0, 9)

        def part(num_paths):
            profile = rng.standard_normal((len(tg), len(sg.axis))) * 10.0 ** rng.integers(
                -300, 300, size=(len(tg), len(sg.axis)))
            profile[0, :3] = [np.inf, -np.inf, np.nan]
            profile[1, 0] = 0.0
            return FieldPart({0: profile}, rng.standard_normal((num_paths, len(tg))))

        num_paths = 1 if noise_dim == 0 else 11
        return SolutionField(space_grid=sg, time_grid=tg,
                             u_parts=[part(1), part(num_paths)],
                             v_parts=[[part(num_paths)] for _ in range(noise_dim)],
                             num_paths=num_paths, trusted=np.ones(len(sg.axis), dtype=bool))

    @pytest.mark.parametrize("noise_dim", [0, 1, 2])
    @pytest.mark.parametrize("path_ids", [None, "explicit"])
    def test_csv_bytes_equal_csv_writer(self, noise_dim, path_ids, tmp_path):
        sol = self.field(noise_dim)
        if path_ids == "explicit":
            path_ids = np.array([0]) if sol.num_paths == 1 else np.array([7, 0, 10, 7])
        with np.errstate(invalid="ignore"):  # inf - inf in the product sum
            sol.to_csv(tmp_path / "fast.csv", path_ids)
            csv_writer_export(sol, tmp_path / "ref.csv", path_ids)
        ref = (tmp_path / "ref.csv").read_bytes()
        assert ref.count(b"\r\n") == 1 + len(sol.time_grid) * sol.space_grid.points_per_axis * (
            min(sol.num_paths, 8) if path_ids is None else len(path_ids))
        assert (tmp_path / "fast.csv").read_bytes() == ref

    def test_csv_columns(self, sine_solution, tmp_path):
        out = tmp_path / "field.csv"
        sine_solution.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,t,x,u,v_1"
        first = lines[1].split(",")
        assert len(first) == 5
        float(first[3])  # u parses

    def test_summary_json(self, sine_solution):
        rms, worst = integral_form_defect(sine_solution, sine_problem())
        payload = json.loads(sine_solution.summary_json(rms, worst))
        for key in ("provenance", "residual_rms", "residual_worst", "grid", "info"):
            assert key in payload
        assert payload["provenance"] == "representation"
        assert (payload["residual_rms"], payload["residual_worst"]) == (rms, worst)
