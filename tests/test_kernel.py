import numpy as np
import pytest

from bspdelab.errors import IllConditionedKernel, InvalidArgument, InvalidInterval, UnsupportedOrder
from bspdelab.grid import MultiIndex, SpaceGrid, space_quadrature_weights
from bspdelab.kernel import (
    DiffusionCoefficient,
    HeatKernel,
    probe_integral_estimates,
    probe_pointwise_bound,
    probe_sup_kernel_integrability,
    singular_time_quadrature,
)

ISO = DiffusionCoefficient.isotropic(1.0, 1)
ANISO = DiffusionCoefficient.constant(np.diag([1.0, 2.0]))
SCALED = DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=1, lam=1.0, Lam=2.0)


def standard_grid(dim, Lam, T=1.0, J=None):
    R = 1.0 + 6.0 * np.sqrt(2.0 * Lam * T)
    J = J or (513 if dim == 1 else 193)
    return SpaceGrid(dim, R, J)


class TestDiffusionCoefficient:
    def test_constant_matrix(self):
        assert np.allclose(ANISO(0.3), np.diag([1.0, 2.0]))
        assert ANISO.lam == 1.0 and ANISO.Lam == 2.0

    def test_ellipticity_check_passes(self):
        assert SCALED.check_ellipticity(np.linspace(0, 1, 5))

    def test_ellipticity_check_fails(self):
        bad = DiffusionCoefficient(fn=lambda t: np.eye(1), dim=1, lam=2.0, Lam=3.0)
        with pytest.raises(InvalidArgument):
            bad.check_ellipticity([0.0])

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(InvalidArgument):
            DiffusionCoefficient(fn=lambda t: np.eye(1), dim=1, lam=0.0, Lam=1.0)


class TestCovariance:
    def test_constant_integrand(self):
        k = HeatKernel(ISO)
        assert np.allclose(k.covariance(0.2, 0.7), 0.5 * np.eye(1))

    def test_linear_integrand(self):
        k = HeatKernel(DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=1))
        assert np.allclose(k.covariance(0.0, 1.0), 1.5 * np.eye(1), atol=1e-13)

    def test_empty_interval(self):
        k = HeatKernel(ISO)
        assert np.allclose(k.covariance(0.4, 0.4), 0.0)

    def test_reversed_interval_rejected(self):
        k = HeatKernel(ISO)
        with pytest.raises(InvalidInterval):
            k.covariance(0.7, 0.2)

    def test_additivity(self):
        k = HeatKernel(SCALED)
        a1 = k.covariance(0.1, 0.4) + k.covariance(0.4, 0.9)
        assert np.allclose(a1, k.covariance(0.1, 0.9), atol=1e-13)

    def test_batch_matches_direct(self):
        k = HeatKernel(SCALED, horizon=1.0)
        t_arr = np.array([0.0, 0.13, 0.377, 0.5])
        batch = k.covariance_pairs(t_arr, np.full_like(t_arr, 0.9))
        for t, A in zip(t_arr, batch):
            assert np.allclose(A, k.covariance(t, 0.9), atol=1e-7)


class TestEval:
    def test_standard_value_at_origin(self):
        k = HeatKernel(ISO)
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
        k = HeatKernel(ISO)
        kb = k.with_beta(2.0)
        x = np.array([0.3])
        assert np.isclose(kb(0.0, 0.5, x), np.exp(-1.0) * k(0.0, 0.5, x))

    def test_degenerate_interval_rejected(self):
        k = HeatKernel(ISO)
        with pytest.raises(InvalidInterval):
            k(0.5, 0.5, [0.0])

    def test_ill_conditioned_flagged(self):
        skew = DiffusionCoefficient(
            fn=lambda t: np.diag([1.0, 1e-14]), dim=2, lam=1e-14, Lam=1.0
        )
        k = HeatKernel(skew)
        with pytest.raises(IllConditionedKernel):
            k(0.0, 0.5, [0.0, 0.0])

    def test_symmetry(self):
        k = HeatKernel(ANISO)
        x = np.array([0.4, -0.7])
        assert np.isclose(k(0.0, 0.3, x), k(0.0, 0.3, -x))

    def test_positivity(self):
        k = HeatKernel(SCALED)
        g = standard_grid(1, 2.0, J=101)
        assert np.all(k(0.0, 0.5, g.nodes()) > 0.0)


class TestDerivatives:
    def test_odd_symmetry_at_origin(self):
        k = HeatKernel(ISO)
        assert k.derivative(0.0, 0.5, [0.0], MultiIndex((1,))) == 0.0

    def test_first_derivative_odd(self):
        k = HeatKernel(ISO)
        x = np.array([0.6])
        g1 = k.derivative(0.0, 0.5, x, MultiIndex((1,)))
        g2 = k.derivative(0.0, 0.5, -x, MultiIndex((1,)))
        assert np.isclose(g1, -g2)

    def test_zero_mean_derivatives(self):
        for a, dim in [(ISO, 1), (ANISO, 2), (SCALED, 1)]:
            k = HeatKernel(a, horizon=1.0)
            g = standard_grid(dim, a.Lam)
            w = space_quadrature_weights(g).ravel()
            for order in (1, 2):
                for gamma in MultiIndex.all_of_order(dim, order):
                    for gap in (0.1, 1.0):
                        total = np.sum(w * k.derivative(0.0, gap, g.nodes(), gamma))
                        assert abs(total) < 1e-6, (a.label, gamma, gap)

    def test_against_finite_differences(self):
        k = HeatKernel(SCALED)
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
        k = HeatKernel(ANISO)
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
        k = HeatKernel(ISO)
        with pytest.raises(UnsupportedOrder):
            k.derivative(0.0, 0.5, [0.1], MultiIndex((4,)))

    def test_fundamental_solution_identities(self):
        # forward: d/ds G = a(s) d2G; backward: d/dt G = -a(t) d2G
        rng = np.random.default_rng(7)
        k = HeatKernel(SCALED)
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
        val = singular_time_quadrature(lambda t: np.cos(t), 0.0, 1.0, 0.0)
        assert np.isclose(val, np.sin(1.0), atol=1e-10)

    def test_power_singularity(self):
        # integral of (1 - t)^(-3/4) over [0, 1] is 4; the residual comes
        # from recomputing 1 - t near the endpoint, not from the quadrature
        val = singular_time_quadrature(lambda t: (1.0 - t) ** -0.75, 0.0, 1.0, -0.75)
        assert np.isclose(val, 4.0, rtol=1e-5)

    def test_nonintegrable_rejected(self):
        with pytest.raises(InvalidArgument):
            singular_time_quadrature(lambda t: t, 0.0, 1.0, -1.0)


class TestPointwiseBoundProbe:
    def test_order_zero_constant(self):
        rep = probe_pointwise_bound(HeatKernel(ISO, horizon=1.0), MultiIndex((0,)))
        assert rep.empirical_C >= (4.0 * np.pi) ** -0.5 - 1e-12
        assert np.isfinite(rep.empirical_C)
        assert rep.stable

    def test_boundary_rate_flagged_for_anisotropic(self):
        rep = probe_pointwise_bound(HeatKernel(ANISO, horizon=1.0), MultiIndex((0, 0)))
        assert not rep.extras["boundary_rate_usable"]

    def test_boundary_rate_fine_for_isotropic_plain(self):
        rep = probe_pointwise_bound(HeatKernel(ISO, horizon=1.0), MultiIndex((0,)))
        assert rep.extras["boundary_rate_usable"]

    def test_damping_shrinks_constant(self):
        k0 = HeatKernel(ISO, horizon=1.0)
        r0 = probe_pointwise_bound(k0, MultiIndex((2,)))
        r10 = probe_pointwise_bound(k0.with_beta(10.0), MultiIndex((2,)))
        assert r10.empirical_C <= r0.empirical_C + 1e-12

    def test_json_roundtrip(self):
        import json

        rep = probe_pointwise_bound(HeatKernel(ISO, horizon=1.0), MultiIndex((1,)))
        payload = json.loads(rep.to_json())
        assert payload["estimate_id"] == "pointwise_bound"
        assert payload["gamma"] == [1]
        assert payload["empirical_C"] == rep.empirical_C
        assert len(payload["levels"]) == 2


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


class TestSupKernelProbe:
    def test_finite_and_refinement_stable(self):
        k = HeatKernel(ISO, horizon=1.0)
        a = probe_sup_kernel_integrability(k, 0.25, 0.125)
        fine = probe_sup_kernel_integrability(
            k, 0.25, 0.125, grid=SpaceGrid(1, 1.0 + 6 * np.sqrt(2.0), 513)
        )
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
