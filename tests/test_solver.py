import json

import numpy as np
import pytest

from bspdelab.errors import (
    AssumptionViolation,
    InvalidArgument,
    InvalidRoute,
    InvalidShift,
    UnsupportedOrder,
)
from bspdelab.grid import MultiIndex, SpaceGrid, TimeGrid
from bspdelab.kernel import DiffusionCoefficient, HeatKernel
from bspdelab.stochastic import (
    BM,
    DataFunctional,
    PathFactor,
    SpaceFactor,
    sample_paths,
)
from bspdelab.solver import (
    BumpField,
    CoefficientSet,
    SolverConfig,
    convolve,
    integral_form_defect,
    localize,
    solve,
    solve_model,
    solve_semilinear,
    solve_variable_linear,
    time_shift_norm,
)

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

    def test_driver_lipschitz_checked(self):
        co = sine_problem(driver=lambda t, x, q, u, v: u**2, lipschitz=1.0)
        with pytest.raises(AssumptionViolation, match="Lipschitz"):
            co.check_assumptions(TG, SG)

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
    KERNEL = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=1.0)
    MASK = SG.interior_mask(1.0)

    def test_unit_mass(self):
        out = convolve(self.KERNEL, 0.0, 0.5, np.ones_like(X), SG, MultiIndex((0,)))
        assert np.abs(out - 1.0)[self.MASK].max() < 1e-6

    def test_odd_moment_cancellation(self):
        out = convolve(self.KERNEL, 0.0, 0.5, X, SG, MultiIndex((0,)))
        assert np.abs(out - X)[self.MASK].max() < 1e-6

    def test_second_moment(self):
        out = convolve(self.KERNEL, 0.0, 0.5, X**2, SG, MultiIndex((0,)))
        assert np.abs(out - (X**2 + 1.0))[self.MASK].max() < 1e-6

    def test_sine_decay(self):
        half = HeatKernel(DiffusionCoefficient.isotropic(0.5), horizon=1.0)
        out = convolve(half, 0.0, 0.6, np.sin(X), SG, MultiIndex((0,)))
        assert np.abs(out - np.exp(-0.3) * np.sin(X))[self.MASK].max() < 1e-5

    def test_derivative_orders(self):
        out1 = convolve(self.KERNEL, 0.0, 0.5, np.sin(X), SG, MultiIndex((1,)))
        assert np.abs(out1 - np.exp(-0.5) * np.cos(X))[self.MASK].max() < 1e-6
        out2 = convolve(self.KERNEL, 0.0, 0.5, np.sin(X), SG, MultiIndex((2,)))
        assert np.abs(out2 + np.exp(-0.5) * np.sin(X))[self.MASK].max() < 1e-6

    def test_second_derivative_with_supplied_gradient(self):
        out = convolve(self.KERNEL, 0.0, 0.5, np.sin(X), SG, MultiIndex((2,)),
                       field_d1=np.cos(X))
        assert np.abs(out + np.exp(-0.5) * np.sin(X))[self.MASK].max() < 1e-6

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrder):
            convolve(self.KERNEL, 0.0, 0.5, np.sin(X), SG, MultiIndex((3,)))

    def test_leading_axes_pass_through(self):
        fields = np.stack([np.sin(X), np.cos(X)])
        out = convolve(self.KERNEL, 0.0, 0.5, fields, SG, MultiIndex((0,)))
        assert out.shape == fields.shape
        assert np.abs(out[0] - np.exp(-0.5) * np.sin(X))[self.MASK].max() < 1e-6


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
        sol = solve_variable_linear(co, None, config(tol=1e-7))
        exact = np.exp(-(T - TG.nodes))[:, None] * np.sin(X[None, :] + (T - TG.nodes)[:, None])
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3
        assert sol.info["converged"]

    def test_variable_diffusion_converges(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
        )
        sol = solve_variable_linear(co, None, config())
        assert sol.info["converged"]
        assert sol.residual_rms < 1e-3

    def test_divergence_report_on_tight_cap(self):
        co = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
        )
        sol = solve_variable_linear(co, None, config(max_iter=2))
        assert not sol.info["converged"]
        report = sol.info["divergence_report"]
        assert "contraction_estimates" in report
        assert "beta" in report["advisory"]

    def test_rejects_stochastic_data(self):
        co = CoefficientSet(
            terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
            a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x), lam=0.6, Lam=1.4,
        )
        with pytest.raises(InvalidRoute):
            solve_variable_linear(co, sample_paths(10, 1, TG, seed=0), config())


class TestSemilinear:
    def test_mode_oracle(self):
        co = sine_problem(driver=lambda t, x, q, u, v: -u, lipschitz=1.0)
        sol = solve_semilinear(co, None, config())
        exact = np.exp(-1.5 * (T - TG.nodes))[:, None] * np.sin(X)[None, :]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3

    def test_source_only_driver_single_step(self):
        # a driver ignoring (q, u, v) must settle after one real update
        co = sine_problem(a=1.0,
                          driver=lambda t, x, q, u, v: np.zeros_like(x), lipschitz=1e-12)
        sol = solve_semilinear(co, None, config())
        assert sol.info["iterations"] <= 2
        exact = np.exp(-(T - TG.nodes))[:, None] * np.sin(X)[None, :]
        assert np.abs(sol.u_dense()[0] - exact)[:, sol.trusted].max() < 1e-3

    def test_contraction_factor_decreases_in_beta(self):
        factors = {}
        for beta in (0.0, 5.0, 20.0):
            co = sine_problem(driver=lambda t, x, q, u, v: 2.0 * u, lipschitz=2.0)
            sol = solve_semilinear(co, None, config(beta=beta, tol=1e-8))
            factors[beta] = sol.info["contraction_factor"]
        assert factors[0.0] > factors[5.0] > factors[20.0]

    def test_geometric_decay_of_differences(self):
        co = sine_problem(driver=lambda t, x, q, u, v: -u, lipschitz=1.0)
        sol = solve_semilinear(co, None, config(beta=8.0, tol=1e-10))
        sups = [h["sup_change"] for h in sol.info["history"]]
        # past the first transient, successive differences shrink geometrically
        ratios = [sups[i + 1] / sups[i] for i in range(1, len(sups) - 1)]
        assert ratios and max(ratios) < 1.0

    def test_requires_driver(self):
        with pytest.raises(InvalidRoute):
            solve_semilinear(sine_problem(), None, config())


class TestResidualCertification:
    def test_clean_solution_small_residual(self, sine_solution):
        assert sine_solution.residual_rms < 1e-4

    def test_injected_defect_is_flagged(self):
        co = sine_problem()
        sol = solve(co, None, config())
        rms0, _ = integral_form_defect(sol, co)
        sol.u_parts[0].profiles[0] = sol.u_parts[0].profiles[0].copy()
        sol.u_parts[0].profiles[0][10:20] += 0.1
        rms1, _ = integral_form_defect(sol, co)
        assert rms1 > 100.0 * max(rms0, 1e-9)
        assert rms1 > 1e-3


class TestLocalize:
    def test_residual_within_parent_budget(self, sine_solution):
        loc = localize(sine_solution, sine_problem(), z=0.2, theta=0.4)
        assert loc.residual_rms <= 10.0 * max(loc.parent_residual_rms, 1e-9)

    def test_covering_inequality_slack(self, sine_solution):
        loc = localize(sine_solution, sine_problem(), z=0.0, theta=0.5)
        assert loc.covering["slack"] >= -1e-9
        assert np.isfinite(loc.covering["C"])

    def test_commutators_vanish_on_plateau(self, sine_solution):
        loc = localize(sine_solution, sine_problem(), z=0.0, theta=3.0)
        inside = np.abs(X) <= 2.9
        assert np.abs(loc.source_terms["gradient_cutoff"][..., inside]).max() == 0.0
        assert np.abs(loc.source_terms["hessian_cutoff"][..., inside]).max() == 0.0

    def test_seven_source_terms(self, sine_solution):
        loc = localize(sine_solution, sine_problem(), z=0.1, theta=0.6)
        assert len(loc.source_terms) == 7
        total = sum(loc.source_terms.values())
        assert np.allclose(total, loc.f_loc)


class TestTimeShift:
    def test_rejects_zero_and_off_grid(self, sine_solution):
        with pytest.raises(InvalidShift):
            time_shift_norm(sine_solution, 0.0)
        with pytest.raises(InvalidShift):
            time_shift_norm(sine_solution, TG.dt * 1.5)
        with pytest.raises(InvalidShift):
            time_shift_norm(sine_solution, T + TG.dt)

    def test_time_constant_solution_shift_zero(self):
        co = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 1])),
                            diffusion=DiffusionCoefficient.isotropic(1.0))
        sol = solve(co, None, config())
        assert time_shift_norm(sol, 0.1) < 1e-5

    def test_sqrt_rate_trend(self, sine_solution):
        ratios = [time_shift_norm(sine_solution, tau) / np.sqrt(tau)
                  for tau in (0.2, 0.1, 0.04)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 1.2 * a


class TestSolutionFieldExport:
    def test_csv_columns(self, sine_solution, tmp_path):
        out = tmp_path / "field.csv"
        sine_solution.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,t,x,u,v_1"
        first = lines[1].split(",")
        assert len(first) == 5
        float(first[3])  # u parses

    def test_summary_json(self, sine_solution):
        payload = json.loads(sine_solution.summary_json())
        for key in ("provenance", "residual_rms", "residual_worst", "grid", "info"):
            assert key in payload
        assert payload["provenance"] == "representation"
