import itertools

import numpy as np
import pytest

from bspdelab import kernel as kernel_module
from bspdelab.errors import (
    AssumptionViolation,
    IllConditionedKernel,
    InvalidArgument,
    InvalidInterval,
    UnsupportedOrder,
)
from bspdelab.grid import MultiIndex, SpaceGrid, TimeGrid, space_quadrature_weights
from bspdelab.kernel import (
    _COV_NODES,
    _TABLE_SIZE,
    _lattice,
    _moment_integrand,
    _probe_points,
    _safe_ratio,
    DiffusionCoefficient,
    HeatKernel,
    probe_integral_estimates,
    probe_pointwise_bound,
    probe_sup_kernel_integrability,
    singular_time_quadrature,
)
from bspdelab.solver import CoefficientSet, _frozen_diffusion
from bspdelab.stochastic import DataFunctional, SpaceFactor
from bspdelab.verify import _IDENTITY_PROBES, _KERNEL_HORIZON, run_kernel_suite

ISO = DiffusionCoefficient.isotropic(1.0, 1)
ANISO = DiffusionCoefficient.constant(np.diag([1.0, 2.0]))
SCALED = DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=1, lam=1.0, Lam=2.0)
SINE = DataFunctional.deterministic(SpaceFactor.sine())
TGRID = TimeGrid(1.0, 10)
SGRID = SpaceGrid(1, 5.0, 33)


def standard_grid(dim, Lam, T=1.0, J=None):
    R = 1.0 + 6.0 * np.sqrt(2.0 * Lam * T)
    J = J or (513 if dim == 1 else 193)
    return SpaceGrid(dim, R, J)


class TestDiffusionCoefficient:
    def test_constant_matrix(self):
        assert np.allclose(ANISO(0.3), np.diag([1.0, 2.0]))
        assert ANISO.lam == 1.0 and ANISO.Lam == 2.0

    def test_ellipticity_check_passes(self):
        CoefficientSet(terminal=SINE, diffusion=SCALED).check_assumptions(TGRID, SGRID)

    def test_ellipticity_check_fails(self):
        bad = DiffusionCoefficient(fn=lambda t: np.eye(1), dim=1, lam=2.0, Lam=3.0)
        with pytest.raises(AssumptionViolation):
            CoefficientSet(terminal=SINE, diffusion=bad).check_assumptions(TGRID, SGRID)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(InvalidArgument):
            DiffusionCoefficient(fn=lambda t: np.eye(1), dim=1, lam=0.0, Lam=1.0)


class TestCovariance:
    def test_constant_integrand(self):
        k = HeatKernel(ISO, horizon=1.0)
        assert np.allclose(k.covariance(0.2, 0.7), 0.5 * np.eye(1))

    def test_linear_integrand(self):
        k = HeatKernel(DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=1,
                                                        lam=1.0, Lam=2.0), horizon=1.0)
        assert np.allclose(k.covariance(0.0, 1.0), 1.5 * np.eye(1), atol=1e-13)

    def test_time_scaled_needs_explicit_bounds(self):
        # the bounds hold over the caller's horizon, which a(t) alone does not know
        with pytest.raises(TypeError):
            DiffusionCoefficient.time_scaled(lambda t: 1.0 + t)

    def test_empty_interval(self):
        k = HeatKernel(ISO, horizon=1.0)
        assert np.allclose(k.covariance(0.4, 0.4), 0.0)

    def test_reversed_interval_rejected(self):
        k = HeatKernel(ISO, horizon=1.0)
        with pytest.raises(InvalidInterval):
            k.covariance(0.7, 0.2)

    def test_additivity(self):
        k = HeatKernel(SCALED, horizon=1.0)
        a1 = k.covariance(0.1, 0.4) + k.covariance(0.4, 0.9)
        assert np.allclose(a1, k.covariance(0.1, 0.9), atol=1e-13)

    def test_batch_matches_direct(self):
        k = HeatKernel(SCALED, horizon=1.0)
        t_arr = np.array([0.0, 0.13, 0.377, 0.5])
        batch = k.covariance_pairs(t_arr, np.full_like(t_arr, 0.9))
        for t, A in zip(t_arr, batch):
            assert np.allclose(A, k.covariance(t, 0.9), atol=1e-7)

    def test_horizon_is_required(self):
        with pytest.raises(TypeError):
            HeatKernel(DiffusionCoefficient.isotropic(1.0))

    def test_pair_endpoints_past_the_horizon_rejected(self):
        # A = 2 over [0, 2], which a table over [0, 1] cannot give
        k = HeatKernel(ISO, horizon=1.0)
        with pytest.raises(InvalidInterval, match="horizon"):
            k.covariance_pairs([0.0], [2.0])
        with pytest.raises(InvalidInterval, match="horizon"):
            k.covariance_pairs([-0.1], [0.5])

    def test_pair_endpoints_off_by_round_off_clipped(self):
        k = HeatKernel(ISO, horizon=1.0)
        A = k.covariance_pairs([-1e-13, 0.0], [1.0, 1.0 + 1e-13])
        assert np.array_equal(A, k.covariance_pairs([0.0, 0.0], [1.0, 1.0]))

    @pytest.mark.parametrize("diffusion", [
        ISO, SCALED, DiffusionCoefficient(
            fn=lambda t: np.moveaxis(np.array([[1.0 + t, 0.3 * t],
                                               [0.3 * t, 2.0 - t * t]]), (0, 1), (-2, -1)),
            dim=2, lam=0.1, Lam=3.0),
    ], ids=["constant", "time_scaled", "aniso2"])
    @pytest.mark.parametrize("horizon", [1.0, 0.7])
    def test_antiderivative_table_is_running_sum_of_covariances(self, diffusion, horizon):
        k = HeatKernel(diffusion, horizon=horizon)
        grid, vals = k._antiderivative_table()
        expected = np.zeros_like(vals)
        for i in range(len(grid) - 1):
            expected[i + 1] = expected[i] + k.covariance(grid[i], grid[i + 1])
        assert np.array_equal(grid, np.linspace(0.0, horizon, len(grid)))
        assert np.array_equal(vals, expected)


# a scalar, a 2x2 matrix and a time-varying a, in 1-D and 2-D
VECTOR_CASES = [DiffusionCoefficient.isotropic(1.0),
                DiffusionCoefficient.constant([[0.7, 0.1], [0.1, 1.3]]), SCALED,
                DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=2, lam=1.0, Lam=2.0)]
VECTOR_IDS = ["1.0*I", "2x2", "time_scaled", "time_scaled_2d"]
T_VEC = np.array([0.0, 0.13, 0.2, 0.5, 0.0])
S_VEC = np.array([1.0, 0.377, 0.7, 0.5 + 1e-9, 1e-4])


def gammas_up_to_three(dim):
    return [MultiIndex(g) for g in itertools.product(range(4), repeat=dim) if sum(g) <= 3]


class TestVectorEndpoints:
    """Vectors of both endpoints give the bits of one scalar call per interval."""

    @pytest.mark.parametrize("diffusion", VECTOR_CASES, ids=VECTOR_IDS)
    def test_covariance_rows_equal_scalar_calls(self, diffusion):
        k = HeatKernel(diffusion, horizon=1.0)
        rows = k.covariance(T_VEC, S_VEC)
        assert rows.shape == (len(T_VEC), k.dim, k.dim)
        for t, s, A in zip(T_VEC, S_VEC, rows):
            assert np.array_equal(A, k.covariance(t, s))
        for s, A in zip(S_VEC, k.covariance(0.0, S_VEC)):
            assert np.array_equal(A, k.covariance(0.0, s))

    @pytest.mark.parametrize("diffusion", VECTOR_CASES, ids=VECTOR_IDS)
    def test_derivative_rows_equal_scalar_calls(self, diffusion):
        k = HeatKernel(diffusion, beta=3.0, horizon=1.0)
        x = np.random.default_rng(3).uniform(-3.0, 3.0, size=(11, k.dim))
        s_vec = np.geomspace(1e-3, 1.0, 7)
        for gamma in gammas_up_to_three(k.dim):
            rows = k.derivative(0.0, s_vec, x, gamma)
            assert rows.shape == (len(s_vec), len(x))
            for s, row in zip(s_vec, rows):
                assert np.array_equal(row, k.derivative(0.0, s, x, gamma)), gamma

    @pytest.mark.parametrize("diffusion", VECTOR_CASES, ids=VECTOR_IDS)
    def test_call_is_the_zero_order_derivative(self, diffusion):
        k = HeatKernel(diffusion, beta=3.0, horizon=1.0)
        zero = MultiIndex((0,) * k.dim)
        x = np.random.default_rng(4).uniform(-3.0, 3.0, size=(11, k.dim))
        assert np.array_equal(k(0.1, 0.6, x), k.derivative(0.1, 0.6, x, zero))
        rows = k(T_VEC, S_VEC, x)
        assert np.array_equal(rows, k.derivative(T_VEC, S_VEC, x, zero))
        for t, s, row in zip(T_VEC, S_VEC, rows):
            assert np.array_equal(row, k(t, s, x))

    def test_reversed_interval_in_a_vector_rejected(self):
        k = HeatKernel(SCALED, horizon=1.0)
        with pytest.raises(InvalidInterval):
            k.covariance(np.array([0.1, 0.7]), np.array([0.5, 0.2]))
        with pytest.raises(InvalidInterval):
            k(np.array([0.1, 0.5]), np.array([0.5, 0.5]), [0.0])


def _gauss_legendre():
    x, w = np.polynomial.legendre.leggauss(_COV_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def loop_covariance(kernel, t, s):
    """The per-node Gauss-Legendre loop, one call of a(t) per node."""
    if s == t:
        return np.zeros((kernel.dim, kernel.dim))
    out = np.zeros((kernel.dim, kernel.dim))
    for u, w in zip(*_gauss_legendre()):
        out += w * kernel.diffusion(t + (s - t) * u)
    return (s - t) * out


def loop_table(kernel, a_at=None):
    """The antiderivative table with one np.stack of a(t) values per node,
    each from ``a_at(t)`` (the kernel's diffusion by default)."""
    a_at = a_at or kernel.diffusion
    grid = np.linspace(0.0, kernel.horizon, _TABLE_SIZE + 1)
    t, gap = grid[:-1], grid[1:] - grid[:-1]
    acc = np.zeros((_TABLE_SIZE, kernel.dim, kernel.dim))
    for u, w in zip(*_gauss_legendre()):
        acc += w * np.stack([a_at(r) for r in t + gap * u])
    vals = np.zeros((_TABLE_SIZE + 1, kernel.dim, kernel.dim))
    vals[1:] = np.cumsum(gap[:, None, None] * acc, axis=0)
    return grid, vals


# the last matrix's Gauss-Legendre sum differs from the matrix in its last bits
CONSTANTS = [DiffusionCoefficient.isotropic(1.0), DiffusionCoefficient.isotropic(0.5),
             ANISO, DiffusionCoefficient.constant([[0.7, 0.1], [0.1, 1.3]])]
CONSTANT_IDS = ["1.0*I", "0.5*I", "diag(1,2)", "generic"]


class TestConstantDiffusion:
    """A constant a gives the bits of the per-node loop."""

    @pytest.mark.parametrize("diffusion", CONSTANTS, ids=CONSTANT_IDS)
    @pytest.mark.parametrize("horizon", [1.0, 0.7, 4.0])
    def test_table_equals_node_loop(self, diffusion, horizon):
        k = HeatKernel(diffusion, horizon=horizon)
        grid, vals = k._antiderivative_table()
        ref_grid, ref_vals = loop_table(k)
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(vals, ref_vals)

    @pytest.mark.parametrize("diffusion", CONSTANTS, ids=CONSTANT_IDS)
    def test_covariance_equals_node_loop(self, diffusion):
        k = HeatKernel(diffusion, horizon=1.0)
        for t, s in [(0.0, 1.0), (0.2, 0.7), (0.13, 0.377), (0.0, 1e-9), (0.4, 0.4)]:
            A = k.covariance(t, s)
            assert A.shape == (k.dim, k.dim)
            assert np.array_equal(A, loop_covariance(k, t, s))


def frozen_reference(a_fn):
    """The frozen-at-0 diffusion of a space-dependent a_fn."""
    return _frozen_diffusion(CoefficientSet(terminal=SINE, a_fn=a_fn, lam=0.5, Lam=3.0))


def t_dependent_a(t, x):
    return 1.0 + 0.3 * t + 0.2 * np.sin(x)


class TestOneEvaluationOfA:
    """Every covariance call, the table's included, evaluates a(t) once."""

    @pytest.mark.parametrize("diffusion", [
        DiffusionCoefficient.isotropic(0.5), SCALED,
        DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=2, lam=1.0, Lam=2.0),
        frozen_reference(t_dependent_a),
    ], ids=["constant", "time_scaled", "time_scaled_2d", "frozen"])
    def test_one_call_of_a_per_covariance_call(self, monkeypatch, diffusion):
        calls = []
        call = DiffusionCoefficient.__call__

        def counted(self, t):
            calls.append(np.shape(t))
            return call(self, t)

        monkeypatch.setattr(DiffusionCoefficient, "__call__", counted)
        k = HeatKernel(diffusion, horizon=4.0)
        k.covariance(0.1, 0.9)
        k.covariance(T_VEC, S_VEC)
        k._antiderivative_table()
        k.covariance_pairs(T_VEC, S_VEC)
        assert calls == [(_COV_NODES,), (len(T_VEC), _COV_NODES),
                         (_TABLE_SIZE, _COV_NODES)]

    @pytest.mark.parametrize("horizon", [1.0, 4.0])
    def test_frozen_reference_table_equals_node_loop(self, horizon):
        k = HeatKernel(frozen_reference(t_dependent_a), horizon=horizon)
        grid, vals = k._antiderivative_table()
        ref_grid, ref_vals = loop_table(
            k, lambda r: np.array([[t_dependent_a(r, np.atleast_1d(0.0))[0]]]))
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(vals, ref_vals)

    def test_frozen_reference_values(self):
        a = frozen_reference(t_dependent_a)
        t = np.linspace(0.0, 1.0, 11)
        assert a(t).shape == (11, 1, 1)
        assert np.array_equal(a(t)[:, 0, 0], [t_dependent_a(tk, np.atleast_1d(0.0))[0]
                                              for tk in t])
        assert a(0.3).shape == (1, 1)


class TestEval:
    def test_standard_value_at_origin(self):
        k = HeatKernel(ISO, horizon=1.0)
        assert np.isclose(k(0.0, 0.25, [0.0]), np.pi**-0.5)

    def test_normalization(self):
        for a, dim in [(ISO, 1), (ANISO, 2), (SCALED, 1)]:
            k = HeatKernel(a, horizon=1.0)
            g = standard_grid(dim, a.Lam)
            w = space_quadrature_weights(g).ravel()
            for gap in (0.1, 1.0):
                mass = np.sum(w * k(0.0, gap, g.nodes()))
                assert abs(mass - 1.0) < 1e-6

    def test_damping_factor(self):
        k = HeatKernel(ISO, horizon=1.0)
        kb = k.with_beta(2.0)
        x = np.array([0.3])
        assert np.isclose(kb(0.0, 0.5, x), np.exp(-1.0) * k(0.0, 0.5, x))

    def test_degenerate_interval_rejected(self):
        k = HeatKernel(ISO, horizon=1.0)
        with pytest.raises(InvalidInterval):
            k(0.5, 0.5, [0.0])

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_nonpositive_1x1_covariance_rejected(self, a):
        k = HeatKernel(ISO, horizon=1.0)
        with pytest.raises(InvalidInterval):
            k._prep(np.array([[a]]))
        with pytest.raises(InvalidInterval):
            k._prep(np.array([[[1.0]], [[a]]]))

    def test_ill_conditioned_2x2_covariance_rejected(self):
        k = HeatKernel(ANISO, horizon=1.0)
        with pytest.raises(IllConditionedKernel):
            k._prep(np.diag([1.0, 1e-14]))
        with pytest.raises(IllConditionedKernel):
            k._prep(np.stack([np.eye(2), np.diag([1.0, 1e-14])]))

    def test_ill_conditioned_flagged(self):
        skew = DiffusionCoefficient(
            fn=lambda t: np.diag([1.0, 1e-14]), dim=2, lam=1e-14, Lam=1.0
        )
        k = HeatKernel(skew, horizon=1.0)
        with pytest.raises(IllConditionedKernel):
            k(0.0, 0.5, [0.0, 0.0])

    def test_symmetry(self):
        k = HeatKernel(ANISO, horizon=1.0)
        x = np.array([0.4, -0.7])
        assert np.isclose(k(0.0, 0.3, x), k(0.0, 0.3, -x))

    def test_positivity(self):
        k = HeatKernel(SCALED, horizon=1.0)
        g = standard_grid(1, 2.0, J=101)
        assert np.all(k(0.0, 0.5, g.nodes()) > 0.0)


class TestDerivatives:
    def test_odd_symmetry_at_origin(self):
        k = HeatKernel(ISO, horizon=1.0)
        assert k.derivative(0.0, 0.5, [0.0], MultiIndex((1,))) == 0.0

    def test_first_derivative_odd(self):
        k = HeatKernel(ISO, horizon=1.0)
        x = np.array([0.6])
        g1 = k.derivative(0.0, 0.5, x, MultiIndex((1,)))
        g2 = k.derivative(0.0, 0.5, -x, MultiIndex((1,)))
        assert np.isclose(g1, -g2)

    def test_zero_mean_derivatives(self):
        # every multi-index of order 1 and 2, per dimension
        gammas = {1: [(1,), (2,)], 2: [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}
        for a, dim in [(ISO, 1), (ANISO, 2), (SCALED, 1)]:
            k = HeatKernel(a, horizon=1.0)
            g = standard_grid(dim, a.Lam)
            w = space_quadrature_weights(g).ravel()
            for gamma in map(MultiIndex, gammas[dim]):
                for gap in (0.1, 1.0):
                    total = np.sum(w * k.derivative(0.0, gap, g.nodes(), gamma))
                    assert abs(total) < 1e-6, (dim, a.Lam, gamma, gap)

    def test_against_finite_differences(self):
        k = HeatKernel(SCALED, horizon=1.0)
        x0, eps = 0.45, 1e-5
        t, s = 0.1, 0.7
        d1 = k.derivative(t, s, [x0], MultiIndex((1,)))
        fd1 = (k(t, s, [x0 + eps]) - k(t, s, [x0 - eps])) / (2 * eps)
        assert np.isclose(d1, fd1, rtol=1e-8)
        d2 = k.derivative(t, s, [x0], MultiIndex((2,)))
        fd2 = (k(t, s, [x0 + eps]) - 2 * k(t, s, [x0]) + k(t, s, [x0 - eps])) / eps**2
        assert np.isclose(d2, fd2, rtol=1e-4)
        d3 = k.derivative(t, s, [x0], MultiIndex((3,)))
        fd3 = (
            k.derivative(t, s, [x0 + eps], MultiIndex((2,)))
            - k.derivative(t, s, [x0 - eps], MultiIndex((2,)))
        ) / (2 * eps)
        assert np.isclose(d3, fd3, rtol=1e-8)

    def test_mixed_derivative_2d(self):
        k = HeatKernel(ANISO, horizon=1.0)
        x0 = np.array([0.3, -0.4])
        eps = 1e-5
        d = k.derivative(0.0, 0.5, x0, MultiIndex((1, 1)))
        fd = (
            k(0.0, 0.5, x0 + [eps, eps])
            - k(0.0, 0.5, x0 + [eps, -eps])
            - k(0.0, 0.5, x0 + [-eps, eps])
            + k(0.0, 0.5, x0 + [-eps, -eps])
        ) / (4 * eps**2)
        assert np.isclose(d, fd, rtol=1e-4)

    def test_order_four_rejected(self):
        k = HeatKernel(ISO, horizon=1.0)
        with pytest.raises(UnsupportedOrder):
            k.derivative(0.0, 0.5, [0.1], MultiIndex((4,)))

    def test_fundamental_solution_identities(self):
        # forward: d/ds G = a(s) d2G; backward: d/dt G = -a(t) d2G
        rng = np.random.default_rng(7)
        k = HeatKernel(SCALED, horizon=1.0)
        eps = 1e-6
        for _ in range(100):
            t = rng.uniform(0.0, 0.4)
            s = rng.uniform(t + 0.2, 1.0)
            x = rng.uniform(-2.0, 2.0)
            d2 = k.derivative(t, s, [x], MultiIndex((2,)))
            ds = (k(t, s + eps, [x]) - k(t, s - eps, [x])) / (2 * eps)
            rhs = float(SCALED(s)[0, 0]) * d2
            assert abs(ds - rhs) < 1e-3 * max(abs(rhs), 1e-3)
            dt = (k(t + eps, s, [x]) - k(t - eps, s, [x])) / (2 * eps)
            rhs = -float(SCALED(t)[0, 0]) * d2
            assert abs(dt - rhs) < 1e-3 * max(abs(rhs), 1e-3)

    def test_chapman_kolmogorov(self):
        # grid convolution of G_{r,t} with G_{s,r} reproduces G_{s,t}
        k = HeatKernel(ISO, horizon=1.0)
        g = standard_grid(1, 1.0, J=1025)
        t, r, s = 0.0, 0.3, 0.8
        nodes = g.nodes().ravel()
        w = space_quadrature_weights(g)
        conv = np.sum(w[None, :] * k(r, s, (nodes[:, None] - nodes[None, :])[..., None])
                      * k(t, r, nodes[None, :, None]), axis=1)
        direct = k(t, s, nodes[:, None])
        assert np.max(np.abs(conv - direct)) < 1e-4


class TestSingularQuadrature:
    def test_smooth_integrand(self):
        val = singular_time_quadrature(lambda t, _gap: np.cos(t), 0.0, 1.0, 0.0, 48)
        assert np.isclose(val, np.sin(1.0), atol=1e-10)

    def test_power_singularity(self):
        # integral of (1 - t)^(-3/4) over [0, 1] is 4; the residual comes
        # from recomputing 1 - t near the endpoint, not from the quadrature
        val = singular_time_quadrature(lambda t, _gap: (1.0 - t) ** -0.75, 0.0, 1.0, -0.75, 48)
        assert np.isclose(val, 4.0, rtol=1e-5)

    def test_nonintegrable_rejected(self):
        with pytest.raises(InvalidArgument):
            singular_time_quadrature(lambda t, _gap: t, 0.0, 1.0, -1.0, 48)

    def test_fn_gets_the_node_vector_once(self):
        calls = []

        def fn(t, _gap):
            calls.append(t)
            return np.cos(t)

        singular_time_quadrature(fn, 0.2, 1.5, -0.5, num=20)
        nodes, _ = _gl_nodes(20)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 1.5 - ((1.3**0.5) * nodes) ** 2.0)

    def test_gaps_below_the_resolution_of_s_are_carried(self):
        # power -0.95: the first substituted gaps (s - t)^0.05 = v lie far
        # below half an ulp of s = 4, so those nodes t round to s
        calls = []

        def fn(t, gap):
            calls.append((t, gap))
            return gap ** -0.95

        val = singular_time_quadrature(fn, 0.0, 4.0, -0.95, 48)
        (t, gap), = calls
        nodes, _ = _gl_nodes(48)
        p = 1.0 + -0.95
        substituted = ((4.0**p) * nodes) ** (1.0 / p)
        assert np.array_equal(t, 4.0 - substituted)
        lost = t == 4.0
        assert lost.sum() >= 10
        assert np.array_equal(gap[lost], substituted[lost])
        assert np.array_equal(gap[~lost], 4.0 - t[~lost])
        assert np.isclose(val, 4.0**p / p, rtol=1e-2)


class TestPointwiseBoundProbe:
    def test_order_zero_constant(self):
        rep = probe_pointwise_bound(HeatKernel(ISO, horizon=1.0), MultiIndex((0,)))
        assert rep.empirical_C >= (4.0 * np.pi) ** -0.5 - 1e-12
        assert np.isfinite(rep.empirical_C)
        assert rep.stable

    def test_damping_shrinks_constant(self):
        k0 = HeatKernel(ISO, horizon=1.0)
        r0 = probe_pointwise_bound(k0, MultiIndex((2,)))
        r10 = probe_pointwise_bound(k0.with_beta(10.0), MultiIndex((2,)))
        assert r10.empirical_C <= r0.empirical_C + 1e-12


class TestIntegralProbes:
    @pytest.fixture(scope="class")
    def reports(self):
        k = HeatKernel(ISO, horizon=4.0)
        return probe_integral_estimates(k, MultiIndex((2,)), 0.5)

    def test_all_finite_and_stable(self, reports):
        for key, rep in reports.items():
            assert np.isfinite(rep.empirical_C), key
            assert rep.stable, key

    def test_small_ball_ratio_stability(self, reports):
        vals = [lv["value"] for lv in reports["small_ball"].levels]
        assert max(vals) / min(vals) < 1.25

    def test_beta_exponent(self, reports):
        ex = reports["beta_damped_moment"].extras
        assert abs(ex["fitted_exponent"] - ex["predicted_exponent"]) < 0.3

    def test_tail_vanishes_for_huge_ball(self):
        # exterior radius beyond the lattice leaves nothing to integrate
        k = HeatKernel(ISO, horizon=1.0)
        g = SpaceGrid(1, 8.0, 257)
        nodes = g.nodes()
        w = space_quadrature_weights(g).ravel()
        mask = np.linalg.norm(nodes, axis=-1) >= 100.0
        assert not np.any(mask)

    def test_lower_order_reports_present(self):
        k = HeatKernel(ISO, horizon=4.0)
        reps = probe_integral_estimates(k, MultiIndex((1,)), 0.25)
        assert "moment_bound" in reps and "beta_damped_moment" in reps
        assert "small_ball" not in reps

    def test_alpha_out_of_range(self):
        k = HeatKernel(ISO, horizon=1.0)
        with pytest.raises(InvalidArgument):
            probe_integral_estimates(k, MultiIndex((2,)), 1.5)


def _gl_nodes(num):
    x, w = np.polynomial.legendre.leggauss(num)
    return 0.5 * (x + 1.0), 0.5 * w


def loop_quadrature(fn, tau, s, power, num=48):
    """The singular time quadrature with one call of fn per node."""
    p = 1.0 + power
    v_max = (s - tau) ** p
    nodes, weights = _gl_nodes(num)
    v = v_max * nodes
    jac = (v_max / p) * v ** (1.0 / p - 1.0)
    vals = np.array([fn(t) for t in s - v ** (1.0 / p)])
    return float(np.tensordot(weights * jac, vals, axes=(0, 0)))


def loop_moment(kernel, s, unit_nodes, unit_weights, gamma, alpha):
    def m(t):
        scale = np.sqrt(s - t)
        x = unit_nodes * scale
        vals = np.abs(kernel.derivative(t, s, x, gamma))
        r = np.linalg.norm(x, axis=-1) ** alpha
        return float(np.sum(unit_weights * scale**kernel.dim * vals * r))
    return m


def loop_graded(kernel, s, x, xbar, gamma, scale):
    """One graded time integral: one table pass over the 120 gaps of one x."""
    u = np.geomspace(max(scale / 40.0, np.sqrt(s) * 1e-7), np.sqrt(s), 120)
    t_vals = s - u**2
    det, Ainv = kernel._prep(kernel.covariance_pairs(t_vals, np.full_like(t_vals, s)))

    def profile(y):
        yb = np.broadcast_to(y, t_vals.shape + (kernel.dim,))
        return kernel._derivative_given(det, Ainv, s - t_vals, yb, gamma)

    vals = profile(x) if xbar is None else profile(x) - profile(xbar)
    return float(np.trapezoid(np.abs(vals) * 2.0 * u, u))


def lattice(dim, radius, per_axis):
    g = SpaceGrid(dim, radius, per_axis)
    return g.nodes(), space_quadrature_weights(g).ravel()


def loop_integral_estimates(kernel, gamma, alpha):
    """probe_integral_estimates with a kernel call per quadrature node and a
    graded integral per lattice node: the values of each report level."""
    n, g, T = kernel.dim, gamma.order, kernel.horizon
    R = 1.0 + 6.0 * np.sqrt(2.0 * kernel.diffusion.Lam * T)
    J0 = 257 if n == 1 else 97
    pairs = [(0.0, T), (0.0, T / 2.0), (T / 4.0, T)]
    power = (alpha - g) / 2.0
    unit_R = 8.0 * np.sqrt(2.0 * kernel.diffusion.Lam)
    out = {}

    out["moment_bound"] = []
    for J in (J0, 2 * J0 - 1):
        nodes, weights = lattice(n, unit_R, J)
        out["moment_bound"].append(max(
            loop_quadrature(loop_moment(kernel, s, nodes, weights, gamma, alpha),
                            tau, s, power) for tau, s in pairs))

    if g == 2:
        out["tail_cancellation"] = []
        for J in (J0, 2 * J0 - 1):
            nodes, weights = lattice(n, R, J)
            rad = np.linalg.norm(nodes, axis=-1)
            best = 0.0
            for a_rad in (0.25, 0.5, 1.0, 2.0, 2.0 * R):
                mask = rad >= a_rad
                if not np.any(mask):
                    continue
                for tau, s in pairs:
                    def inner(t):
                        vals = kernel.derivative(t, s, nodes[mask], gamma)
                        return abs(float(np.sum(weights[mask] * vals)))
                    best = max(best, loop_quadrature(inner, tau, s, -0.5))
            out["tail_cancellation"].append(best)

        out["small_ball"] = []
        for eta in (0.5, 0.25, 0.125):
            nodes, weights = lattice(n, eta, 161 if n == 1 else 41)
            rad = np.linalg.norm(nodes, axis=-1)
            total = 0.0
            for x, w, r in zip(nodes, weights, rad):
                if r > eta + 1e-12 or r == 0.0:
                    continue
                t_int = max(loop_graded(kernel, s, x, None, gamma, r) for s in (T / 4.0, T))
                total += w * t_int * r**alpha
            out["small_ball"].append(total / eta**alpha)

        out["shifted_difference"] = []
        for sep in (0.125, 0.25):
            x0, xbar = np.zeros(n), np.zeros(n)
            xbar[0] = sep
            eta = 2.0 * sep
            nodes, weights = lattice(n, R, 321 if n == 1 else 49)
            total = 0.0
            for y, w in zip(nodes, weights):
                if np.linalg.norm(y - x0) <= eta:
                    continue
                t_int = loop_graded(kernel, T, x0 - y, xbar - y, gamma,
                                    np.linalg.norm(x0 - y))
                total += w * t_int * np.linalg.norm(xbar - y) ** alpha
            out["shifted_difference"].append(total / eta**alpha)

    nodes, weights = lattice(n, unit_R, J0)
    out["beta_damped_moment"] = [
        loop_quadrature(loop_moment(kernel.with_beta(b), T, nodes, weights, gamma, alpha),
                        0.0, T, power, num=64) * b ** (1.0 - (g - alpha) / 2.0)
        for b in (1.0, 4.0, 16.0, 64.0)]
    return out


class TestBatchedIntegralProbes:
    """The batched probes give the bits of a kernel call per node and gap."""

    @pytest.mark.parametrize("gamma, alpha", [((1,), 0.25), ((2,), 0.5)])
    def test_reports_equal_the_per_node_loops(self, gamma, alpha):
        k = HeatKernel(ISO, horizon=4.0)
        reports = probe_integral_estimates(k, MultiIndex(gamma), alpha)
        expected = loop_integral_estimates(k, MultiIndex(gamma), alpha)
        assert sorted(reports) == sorted(expected)
        for key, values in expected.items():
            assert [lv["value"] for lv in reports[key].levels] == values, key

    def test_prep_calls_are_batched(self, monkeypatch):
        preps, conds = [], []
        prep, cond = HeatKernel._prep, np.linalg.cond

        def counted_prep(self, A):
            preps.append(A.shape)
            return prep(self, A)

        def counted_cond(A, *args):
            conds.append(A.shape)
            return cond(A, *args)

        monkeypatch.setattr(HeatKernel, "_prep", counted_prep)
        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        probe_integral_estimates(HeatKernel(ISO, horizon=4.0), MultiIndex((2,)), 0.5)
        assert len(preps) <= 64
        assert conds == []


class TestSmallAlphaIntegralProbes:
    """gamma of order 2 with a small alpha: power (alpha - 2) / 2 is near -1,
    and the first substituted gaps fall below half an ulp of s."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_reports_are_finite_and_stable(self, alpha):
        k = HeatKernel(ISO, horizon=4.0)
        reports = probe_integral_estimates(k, MultiIndex((2,)), alpha)
        for key, rep in reports.items():
            assert np.isfinite(rep.empirical_C), key
            assert rep.stable, key
        ex = reports["beta_damped_moment"].extras
        assert abs(ex["fitted_exponent"] - ex["predicted_exponent"]) <= 0.01
        # the moment integrand of a constant a is self-similar, C gap^power,
        # so the largest bound, over (0, T), is C T^(alpha/2) / (alpha/2)
        J = 2 * 257 - 1
        nodes, weights = _lattice(1, 8.0 * np.sqrt(2.0), J)
        unit = _moment_integrand(k, 4.0, nodes, weights, MultiIndex((2,)), alpha)
        C = unit(np.array([3.0]), np.array([1.0]))[0]
        level = reports["moment_bound"].levels[-1]
        assert level["points"] == J
        assert np.isclose(level["value"], C * 4.0 ** (alpha / 2.0) / (alpha / 2.0), rtol=1e-2)


def loop_sup_probe(kernel, alpha, window):
    """The sup probe with one kernel call per time gap."""
    R = 1.0 + 6.0 * np.sqrt(2.0 * kernel.diffusion.Lam * kernel.horizon)
    nodes, weights = lattice(kernel.dim, R, 257 if kernel.dim == 1 else 97)
    rad = np.linalg.norm(nodes, axis=-1)
    sup_vals = np.zeros(len(nodes))
    for gap in np.geomspace(window * 1e-6, window, 240):
        np.maximum(sup_vals, kernel(0.0, gap, nodes), out=sup_vals)
    mask = rad > 0
    return float(np.sum(weights[mask] * sup_vals[mask] * rad[mask] ** (2.0 * alpha)))


def loop_pointwise(kernel, gamma):
    """The pointwise probe's level values, with one derivative call per time
    gap."""
    T, n, g = kernel.horizon, kernel.dim, gamma.order
    time_gaps = np.geomspace(T / 256.0, T, 9)
    levels = []
    for count in (25, 49):
        pts = _probe_points(n, 6.0, count)
        r2 = np.sum(pts**2, axis=-1)
        best = 0.0
        for gap in time_gaps:
            vals = np.abs(kernel.derivative(0.0, gap, pts, gamma))
            bound = gap ** (-(n + g) / 2.0) * np.exp(-0.125 * r2 / gap)
            best = max(best, float(np.max(_safe_ratio(vals, bound))))
        levels.append({"points": count, "value": best})
    return levels


PROBE_CASES = [DiffusionCoefficient.isotropic(1.0), DiffusionCoefficient.isotropic(1.0, 2),
               DiffusionCoefficient.constant([[0.7, 0.1], [0.1, 1.3]])]
PROBE_IDS = ["1d_iso", "2d_iso", "2x2_aniso"]


class TestProbesEqualPerGapLoops:
    """One vector call per probe gives the bits of a kernel call per gap."""

    @pytest.mark.parametrize("beta", [0.0, 10.0])
    @pytest.mark.parametrize("diffusion", PROBE_CASES, ids=PROBE_IDS)
    def test_sup_probe(self, diffusion, beta):
        k = HeatKernel(diffusion, beta=beta, horizon=1.0)
        value = probe_sup_kernel_integrability(k, 0.5, 0.25).value
        assert value == loop_sup_probe(k, 0.5, 0.25)

    @pytest.mark.parametrize("beta", [0.0, 10.0])
    @pytest.mark.parametrize("diffusion", PROBE_CASES, ids=PROBE_IDS)
    def test_pointwise_probe(self, diffusion, beta):
        k = HeatKernel(diffusion, beta=beta, horizon=1.0)
        gammas = [(order,) + (0,) * (k.dim - 1) for order in range(4)]
        for gamma in map(MultiIndex, gammas + ([(1, 1)] if k.dim == 2 else [])):
            rep = probe_pointwise_bound(k, gamma)
            levels = loop_pointwise(k, gamma)
            assert rep.levels == levels, gamma
            assert rep.empirical_C == levels[-1]["value"]


class TestKernelSuite:
    def test_derivative_identities_equal_a_scalar_loop(self):
        scaled = DiffusionCoefficient.time_scaled(lambda t: 1.0 + 0.5 * t,
                                                  dim=1, lam=1.0, Lam=1.5)
        k = HeatKernel(scaled, horizon=_KERNEL_HORIZON)
        # the suite's probe table is these draws, written out once
        rng = np.random.default_rng(0)
        eps = 1e-5
        probes, d2, ds, dt = [], [], [], []
        for _ in range(100):
            t = float(rng.uniform(0.0, 0.4))
            s = float(rng.uniform(t + 0.3, _KERNEL_HORIZON))
            x = float(rng.uniform(-2.0, 2.0))
            probes.append((t, s, x))
            d2.append(float(k.derivative(t, s, [x], MultiIndex((2,)))))
            ds.append(float((k(t, s + eps, [x]) - k(t, s - eps, [x])) / (2 * eps)))
            dt.append(float((k(t + eps, s, [x]) - k(t - eps, s, [x])) / (2 * eps)))
        assert tuple(probes) == _IDENTITY_PROBES
        # the suite's vector calls: one row per probe, one point per row
        tv, sv, xv = (np.array(col) for col in zip(*probes))
        xv = xv[:, None, None]
        assert np.array_equal(k.derivative(tv, sv, xv, MultiIndex((2,)))[:, 0], d2)
        assert np.array_equal((k(tv, sv + eps, xv) - k(tv, sv - eps, xv))[:, 0] / (2 * eps), ds)
        assert np.array_equal((k(tv + eps, sv, xv) - k(tv - eps, sv, xv))[:, 0] / (2 * eps), dt)

        worst = 0.0
        for (t, s, _), d2_i, ds_i, dt_i in zip(probes, d2, ds, dt):
            fwd = float(scaled(s)[0, 0]) * d2_i
            bwd = -float(scaled(t)[0, 0]) * d2_i
            scale = max(abs(fwd), 1e-3)
            worst = max(worst, abs(ds_i - fwd) / scale, abs(dt_i - bwd) / scale)
        (verdict,) = [v for v in run_kernel_suite()
                      if v.check_id == "kernel.derivative_identities"]
        assert verdict.measured == {"relative_error": worst}

    def test_covariance_calls_are_batched(self, monkeypatch):
        calls = []
        covariance = HeatKernel.covariance

        def counted(self, t, s):
            calls.append(np.shape(t))
            return covariance(self, t, s)

        monkeypatch.setattr(HeatKernel, "covariance", counted)
        run_kernel_suite()
        assert len(calls) <= 100


class TestSupKernelProbe:
    def test_finite_and_refinement_stable(self, monkeypatch):
        k = HeatKernel(ISO, horizon=1.0)
        a = probe_sup_kernel_integrability(k, 0.25, 0.125)
        monkeypatch.setattr(kernel_module, "_SUP_POINTS", (513, 97))
        fine = probe_sup_kernel_integrability(k, 0.25, 0.125)
        assert np.isfinite(a.value) and a.warning is None
        assert abs(fine.value - a.value) / a.value < 0.10

    def test_window_monotone(self):
        k = HeatKernel(ISO, horizon=1.0)
        vals = [
            probe_sup_kernel_integrability(k, 0.25, w).value
            for w in (0.01, 0.05, 0.125, 0.25)
        ]
        assert np.all(np.diff(vals) > 0)

    def test_out_of_scope_window_warns(self):
        k = HeatKernel(ISO, horizon=1.0)
        p = probe_sup_kernel_integrability(k, 0.25, 0.5)
        assert p.warning is not None
