import json

import numpy as np
import pytest

from bspdelab.errors import InvalidArgument
from bspdelab.scenarios import get_scenario
from bspdelab.verify import (
    Verdict,
    VerdictBundle,
    data_norm_rhs,
    run_apriori_study,
    run_convergence_study,
    run_kernel_suite,
    run_oracle_check,
    run_residual_check,
    run_scenario,
    run_time_shift_study,
    scaled_coefficients,
    solution_norm_lhs,
)


@pytest.fixture(scope="module")
def smoke():
    spec = get_scenario("heat_smoke")
    sol, coeffs, paths = spec.solve()
    return spec, sol, coeffs, paths


def _verdict(check_id="x", status="pass", provenance="closed form"):
    return Verdict(check_id=check_id, status=status, measured={"v": 1.0},
                   tolerance={"v": 2.0}, provenance=provenance)


class TestVerdictSchema:
    def test_status_restricted(self):
        with pytest.raises(InvalidArgument):
            _verdict(status="maybe")

    def test_untagged_expectation_refused(self):
        with pytest.raises(InvalidArgument):
            _verdict(provenance="   ")

    def test_advisory_counts_as_not_failed(self):
        assert _verdict(status="advisory").passed
        assert not _verdict(status="fail").passed

    def test_to_dict_round_trips_through_json(self):
        d = _verdict().to_dict()
        assert json.loads(json.dumps(d)) == d

    def test_booleans_stay_json_booleans(self):
        v = Verdict(check_id="x", status="pass", provenance="closed form",
                    measured={"stable": True, "flag": np.bool_(False), "n": np.int64(3)},
                    tolerance={})
        assert json.dumps(v.to_dict()["measured"], sort_keys=True) \
            == '{"flag": false, "n": 3, "stable": true}'


class TestVerdictBundle:
    def test_sorted_by_check_id(self):
        b = VerdictBundle()
        b.add(_verdict("b"))
        b.add(_verdict("a"))
        assert [v.check_id for v in b.sorted()] == ["a", "b"]

    def test_json_is_byte_stable(self):
        def build():
            b = VerdictBundle()
            b.add(_verdict("z"))
            b.add(_verdict("a", status="advisory"))
            return b.to_json()
        assert build() == build()

    def test_failures_drive_all_passed(self):
        b = VerdictBundle()
        b.add(_verdict("a"))
        assert b.all_passed
        b.add(_verdict("b", status="fail"))
        assert not b.all_passed
        assert len(b.failures) == 1

    def test_table_reports_counts(self):
        b = VerdictBundle()
        b.add(_verdict("a"))
        b.add(_verdict("b", status="fail"))
        assert "1 pass, 1 fail, 0 advisory" in b.table()


class TestResidualCheck:
    def test_clean_solution_passes(self, smoke):
        spec, sol, coeffs, paths = smoke
        v = run_residual_check(sol, coeffs, spec.residual_tolerance)
        assert v.status == "pass"
        assert v.measured["rms"] <= spec.residual_tolerance

    def test_corrupted_solution_fails(self, smoke):
        spec, sol, coeffs, paths = smoke
        sol2, _, _ = spec.solve()
        sol2.u_parts[0].profiles[0][5:10] += 0.1
        v = run_residual_check(sol2, coeffs, spec.residual_tolerance)
        assert v.status == "fail"

    def test_tight_tolerance_fails_honestly(self, smoke):
        spec, sol, coeffs, paths = smoke
        v = run_residual_check(sol, coeffs, 1e-12)
        assert v.status == "fail"


class TestOracleCheck:
    def test_pass_and_measured_sup(self, smoke):
        spec, sol, coeffs, paths = smoke
        v = run_oracle_check(spec, sol, paths)
        assert v.status == "pass"
        assert 0.0 < v.measured["sup"] < spec.sup_tolerance

    def test_provenance_comes_from_catalog(self, smoke):
        spec, sol, coeffs, paths = smoke
        v = run_oracle_check(spec, sol, paths)
        assert v.provenance == spec.provenance


class TestAprioriStudy:
    @pytest.fixture(scope="class")
    def bundle(self):
        return run_apriori_study(scenario_ids=("sin_decay",),
                                 steps=(20, 40), points=(65, 129))

    def test_ratio_spread_within_bound(self, bundle):
        v = [x for x in bundle.verdicts if "ratio_spread" in x.check_id][0]
        assert v.status == "pass"
        assert v.measured["spread"] <= 1.3

    def test_scaling_equivariance(self, bundle):
        v = [x for x in bundle.verdicts if "equivariance" in x.check_id][0]
        assert v.status == "pass"
        assert v.measured["max_relative_deviation"] <= 1e-10

    def test_scaled_coefficients_scale_data(self):
        spec = get_scenario("sin_decay")
        c10 = scaled_coefficients(spec.build_coeffs(), 10.0)
        from bspdelab.solver import _degenerate_paths
        from bspdelab.grid import TimeGrid
        p = _degenerate_paths(TimeGrid(1.0, 4), 1)
        x = np.array([0.3, 1.1])
        assert np.allclose(c10.terminal.terminal_values(p, x),
                           10.0 * np.sin(x))


class TestKernelSuite:
    @pytest.fixture(scope="class")
    def bundle(self):
        return run_kernel_suite()

    def test_everything_passes(self, bundle):
        assert bundle.all_passed, bundle.table()

    def test_covers_the_probe_families(self, bundle):
        ids = {v.check_id for v in bundle.verdicts}
        assert "kernel.semigroup" in ids
        assert "kernel.beta_exponent" in ids
        assert any(i.startswith("kernel.normalization") for i in ids)
        assert any(i.startswith("kernel.pointwise_bound") for i in ids)


class TestConvergenceStudies:
    def test_h_axis_order_two(self):
        v = run_convergence_study("abs_kink", "h")
        assert v.status == "pass"
        assert abs(v.measured["fitted_order"] - 2.0) <= 0.3
        assert len(v.details["rows"]) == 3

    def test_dt_axis(self):
        v = run_convergence_study("sin_decay", "dt")
        assert v.status == "pass"

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidArgument):
            run_convergence_study("sin_decay", "q")


class TestTimeShiftStudy:
    def test_sqrt_rate_on_sin_decay(self):
        b = run_time_shift_study(scenario_ids=("sin_decay",))
        assert b.all_passed
        rows = b.verdicts[0].details["rows"]
        assert [r["tau"] for r in rows] == [0.2, 0.1, 0.05, 0.025]


class TestNormHelpers:
    def test_lhs_components_nonnegative(self, smoke):
        spec, sol, coeffs, paths = smoke
        lhs = solution_norm_lhs(sol, 0.5)
        assert lhs["total"] >= lhs["u_high"] > 0
        assert lhs["v"] == 0.0

    def test_rhs_dominated_by_terminal_here(self, smoke):
        spec, sol, coeffs, paths = smoke
        rhs = data_norm_rhs(coeffs, sol, paths, 0.5)
        assert rhs["forcing"] == 0.0
        assert rhs["total"] == rhs["terminal"] > 0


class TestRunScenario:
    def test_smoke_bundle_and_artifacts(self):
        spec = get_scenario("heat_smoke")
        bundle, artifacts = run_scenario(spec)
        assert bundle.all_passed
        assert "solution" in artifacts

    def test_beta_sweep_rows(self):
        spec = get_scenario("beta_sweep")
        bundle, artifacts = run_scenario(spec)
        rows = artifacts["contraction_vs_beta"]
        assert [r["beta"] for r in rows] == [0.0, 5.0, 20.0]
        assert set(rows[0]) == {"beta", "contraction_factor", "iterations"}
