import dataclasses
import json
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bspdelab
from bspdelab import scenarios, solver, verify
from bspdelab.errors import InvalidArgument
from bspdelab.grid import SpaceGrid, TimeGrid, space_quadrature_weights
from bspdelab.holder import FieldSample, estimate_norm
from bspdelab.kernel import DiffusionCoefficient, HeatKernel
from bspdelab.scenarios import get_scenario
from bspdelab.solver import _masked_grid, shift_steps
from bspdelab.stochastic import SpaceFactor, TauSeries, series_rows
from bspdelab.verify import (
    STATUSES,
    Verdict,
    data_norm_rhs,
    run_apriori_study,
    run_convergence_study,
    run_kernel_suite,
    run_oracle_check,
    run_residual_check,
    run_scenario,
    run_time_shift_study,
    scaled_coefficients,
    shift_grid,
    solution_norm_lhs,
    table,
    to_json,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
        assert STATUSES == ("pass", "fail")
        for status in ("maybe", "advisory"):
            with pytest.raises(InvalidArgument):
                _verdict(status=status)

    def test_untagged_expectation_refused(self):
        with pytest.raises(InvalidArgument):
            _verdict(provenance="   ")

    def test_to_dict_round_trips_through_json(self):
        d = _verdict().to_dict()
        assert json.loads(json.dumps(d)) == d

    def test_booleans_stay_json_booleans(self):
        v = Verdict(check_id="x", status="pass", provenance="closed form",
                    measured={"stable": True, "flag": np.bool_(False), "n": np.int64(3)},
                    tolerance={})
        assert json.dumps(v.to_dict()["measured"], sort_keys=True) \
            == '{"flag": false, "n": 3, "stable": true}'


class TestVerdictList:
    def test_sorted_by_check_id(self):
        verdicts = [_verdict("b"), _verdict("a")]
        assert [d["check_id"] for d in json.loads(to_json(verdicts))] == ["a", "b"]
        assert [line.split()[0] for line in table(verdicts).splitlines()[1:3]] == ["a", "b"]

    def test_json_is_byte_stable(self):
        def build():
            return to_json([_verdict("z"), _verdict("a", status="fail")])
        assert build() == build()
        assert build().endswith("]\n")

    def test_table_reports_counts(self):
        assert table([_verdict("a")]).splitlines()[-1] == "1 pass, 0 fail"
        out = table([_verdict("a"), _verdict("b", status="fail")])
        assert out.splitlines()[-1] == "1 pass, 1 fail"


class TestResidualCheck:
    def test_clean_solution_passes(self, smoke):
        spec, sol, coeffs, paths = smoke
        v = run_residual_check(sol, coeffs, spec.residual_tolerance, paths,
                               check_id=f"residual.{spec.scenario_id}")
        assert v.status == "pass"
        assert v.measured["rms"] <= spec.residual_tolerance

    def test_corrupted_solution_fails(self, smoke):
        spec, sol, coeffs, paths = smoke
        sol2, _, _ = spec.solve()
        sol2.u_parts[0].profiles[0][5:10] += 0.1
        v = run_residual_check(sol2, coeffs, spec.residual_tolerance, paths,
                               check_id=f"residual.{spec.scenario_id}")
        assert v.status == "fail"

    def test_tight_tolerance_fails_honestly(self, smoke):
        spec, sol, coeffs, paths = smoke
        v = run_residual_check(sol, coeffs, 1e-12, paths,
                               check_id=f"residual.{spec.scenario_id}")
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

    @pytest.mark.parametrize("sid, check", [("sin_decay", "oracle"),
                                            ("abs_kink", "convergence.h")])
    def test_deterministic_scenario_above_dense_cap_runs(self, sid, check):
        # a num_paths override gives a deterministic solve more paths than a
        # dense evaluation may cover; the oracle check and the h-study read
        # path 0 only, so the run still passes
        spec = dataclasses.replace(get_scenario(sid), num_paths=1025)
        verdicts, _ = run_scenario(spec, seed=None)
        assert f"{check}.{sid}" in {v.check_id for v in verdicts}
        assert all(v.status == "pass" for v in verdicts)


@pytest.fixture(scope="module")
def stochastic_1100():
    # more paths than the dense-evaluation cap and the 512-path oracle sample
    spec = get_scenario("stochastic_sinWT")
    sol, coeffs, paths = spec.solve(num_paths=1100)
    return spec, sol, paths


def _full_cube_measured(spec, sol, paths):
    """The oracle comparison as it was before the oracle took a path subset:
    the oracle cube over every path, then the first 512 paths at once."""
    u_exact, v_exact = spec.oracle(spec, sol, paths)
    assert u_exact.shape[0] == paths.num_paths
    mask = sol.trusted
    tsel = sol.time_grid.nodes <= spec.extras.get("t_max", np.inf) + 1e-12
    idx = np.arange(min(sol.num_paths, 512))
    u = sol.u_dense(0, path_idx=idx)
    diff = u[:, tsel][..., mask] - u_exact[idx][:, tsel][..., mask]
    v = sol.v_dense(0, 0, path_idx=idx)
    vd = v[:, tsel][..., mask] - v_exact[None, tsel][..., mask]
    return {"rms": float(np.sqrt(np.mean(diff**2))),
            "v_rms": float(np.sqrt(np.mean(vd**2)))}


class TestStochasticOracleCheck:
    @pytest.mark.parametrize("extras", [{}, {"t_max": 0.5}], ids=["all_t", "t_max"])
    def test_chunked_subset_check_is_bit_identical(self, stochastic_1100, extras):
        spec, sol, paths = stochastic_1100
        spec = dataclasses.replace(spec, extras=extras)
        built = []

        def oracle(spec, sol, paths):
            built.append(paths.num_paths)
            return get_scenario("stochastic_sinWT").oracle(spec, sol, paths)

        v = run_oracle_check(dataclasses.replace(spec, oracle=oracle), sol, paths)
        assert built == [16] * 32
        assert v.measured == _full_cube_measured(spec, sol, paths)
        assert v.status == "pass"

    def test_scenario_peak_rss_is_bounded(self, sinwt_peak_rss_mb):
        # the default 10^4-path scenario; 87 MB while every path was drawn
        assert sinwt_peak_rss_mb <= 80.0

    def test_peak_rss_does_not_grow_with_the_declared_paths(self, sinwt_peak_rss_mb):
        # no check reads more than 512 paths, so 10^5 declared paths cost
        # what 10^4 do; drawing them all took 270 MB against 87 MB
        assert _child_peak_rss_mb("stochastic_sinWT", num_paths=100_000) \
            <= 1.1 * sinwt_peak_rss_mb


@pytest.fixture(scope="module")
def sinwt_peak_rss_mb():
    return _child_peak_rss_mb("stochastic_sinWT")


def _child_peak_rss_mb(scenario_id: str, num_paths: int = None) -> float:
    """Peak resident set, in MB, of run_scenario(scenario_id) in a child
    process, at the scenario's own path count unless ``num_paths`` is
    given; the scenario must pass.

    os.wait4 reports the child's peak resident set (ru_maxrss, KiB on
    Linux).  On Linux a child's peak starts at the resident set of the
    process that spawned it, so a small launcher spawns it rather than this
    test process, which holds ensembles of its own.
    """
    spec = f"get_scenario({scenario_id!r})"
    if num_paths is not None:
        spec = f"dataclasses.replace({spec}, num_paths={num_paths})"
    scenario = ("import dataclasses; "
                "from bspdelab.scenarios import get_scenario; "
                "from bspdelab.verify import run_scenario; "
                f"verdicts, _ = run_scenario({spec}, seed=None); "
                "assert all(v.status == 'pass' for v in verdicts)")
    launcher = ("import os, subprocess, sys; "
                f"proc = subprocess.Popen([sys.executable, '-c', {scenario!r}]); "
                "_, status, usage = os.wait4(proc.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    src = str(Path(bspdelab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", launcher], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, maxrss_kib = map(int, out.split())
    assert code == 0
    return maxrss_kib / 1024.0


class TestAprioriStudy:
    @pytest.fixture(scope="class")
    def verdicts(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_APRIORI_STEPS", (20, 40))
            mp.setattr(verify, "_APRIORI_POINTS", (65, 129))
            return run_apriori_study([get_scenario("sin_decay")])

    def test_ratio_spread_within_bound(self, verdicts):
        v = [x for x in verdicts if "ratio_spread" in x.check_id][0]
        assert v.status == "pass"
        assert v.measured["spread"] <= 1.3

    def test_scaling_equivariance(self, verdicts):
        v = [x for x in verdicts if "equivariance" in x.check_id][0]
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
    def verdicts(self):
        return run_kernel_suite()

    def test_everything_passes(self, verdicts):
        assert all(v.status == "pass" for v in verdicts), table(verdicts)

    def test_covers_the_probe_families(self, verdicts):
        ids = {v.check_id for v in verdicts}
        assert "kernel.semigroup" in ids
        assert "kernel.beta_exponent" in ids
        assert any(i.startswith("kernel.normalization") for i in ids)
        assert any(i.startswith("kernel.pointwise_bound") for i in ids)

    def test_semigroup_row_chunks_match_the_full_broadcast(self, verdicts):
        # the two-hop sum as one (1025, 1025) broadcast, as it was before it
        # ran in row chunks
        iso = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=1.0)
        g = SpaceGrid(1, 8.0, 1025)
        nodes = g.nodes().ravel()
        w = space_quadrature_weights(g)
        t, r, s = 0.0, 0.3, 0.8
        conv = np.sum(
            w[None, :] * iso(r, s, (nodes[:, None] - nodes[None, :])[..., None])
            * iso(t, r, nodes[None, :, None]), axis=1)
        err = float(np.max(np.abs(conv - iso(t, s, nodes[:, None]))))
        semigroup = next(v for v in verdicts if v.check_id == "kernel.semigroup")
        assert semigroup.measured["sup_error"] == err

    def test_peak_memory_is_bounded(self):
        # the full-broadcast semigroup probe peaked at 33 MB under tracemalloc
        tracemalloc.start()
        try:
            run_kernel_suite()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class TestConvergenceStudies:
    def test_h_axis_order_two(self):
        v = run_convergence_study(get_scenario("abs_kink"), "h")
        assert v.status == "pass"
        assert abs(v.measured["fitted_order"] - 2.0) <= 0.3
        assert len(v.details["rows"]) == 3

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidArgument):
            run_convergence_study(get_scenario("sin_decay"), "q")


class TestTimeShiftStudy:
    def test_sqrt_rate_on_sin_decay(self):
        verdicts = run_time_shift_study([get_scenario("sin_decay")])
        assert all(v.status == "pass" for v in verdicts)
        rows = verdicts[0].details["rows"]
        assert [r["tau"] for r in rows] == [0.2, 0.1, 0.05, 0.025]

    def test_stochastic_spec_solves_the_64_paths_it_measures(self, monkeypatch):
        spec = get_scenario("stochastic_sinWT")
        drawn = []
        real = scenarios.sample_paths

        def sample_paths(M, *a, **k):
            drawn.append(M)
            return real(M, *a, **k)

        monkeypatch.setattr(scenarios, "sample_paths", sample_paths)
        rows = run_time_shift_study([spec])[0].details["rows"]
        assert drawn == [64]
        # the same norms on the first 64 paths of the whole ensemble's solve
        sol, _, _ = spec.solve(time_grid=shift_grid(spec))
        assert sol.num_paths == 10_000
        tgrid, mask = sol.time_grid, sol.trusted
        u = sol.u_dense(0, np.arange(64))[..., mask]
        for row in rows:
            r = shift_steps(tgrid, row["tau"])
            f = FieldSample(u[:, r:] - u[:, :-r], _masked_grid(sol.space_grid, mask),
                            "L2", TimeGrid(tgrid.horizon - row["tau"], tgrid.num_steps - r))
            assert row["shift_norm"] == estimate_norm(f, 0, 0.5).total


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
        verdicts, artifacts = run_scenario(spec, seed=None)
        assert all(v.status == "pass" for v in verdicts)
        assert "solution" in artifacts

    def test_solve_is_certified_once(self, monkeypatch):
        calls = []
        real = solver.integral_form_defect

        def counted(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(solver, "integral_form_defect", counted)
        monkeypatch.setattr(verify, "integral_form_defect", counted)
        verdicts, artifacts = run_scenario(get_scenario("sin_decay"), seed=None)
        assert len(calls) == 1
        residual = [v for v in verdicts if v.check_id == "residual.sin_decay"]
        assert len(residual) == 1
        assert artifacts["summary"] == residual[0].measured

    @pytest.mark.parametrize("sid", ["heat_smoke", "abs_kink"])
    def test_missing_oracle_is_refused(self, sid):
        # heat_smoke reads its oracle in the oracle check, abs_kink in the
        # oracle check and the h study
        spec = dataclasses.replace(get_scenario(sid), oracle=None)
        with pytest.raises(InvalidArgument, match=f"scenario {sid} "):
            run_scenario(spec, seed=None)

    def test_solve_without_residual_check_is_certified(self):
        verdicts, artifacts = run_scenario(get_scenario("abs_kink"), seed=None)
        assert not [v for v in verdicts if v.check_id.startswith("residual.")]
        assert np.isfinite(artifacts["summary"]["rms"])
        assert np.isfinite(artifacts["summary"]["worst"])

    @pytest.mark.parametrize("corrupt, status", [(False, "pass"), (True, "fail")],
                             ids=["clean", "corrupted_phi"])
    def test_residual_verdict_catches_a_broken_closed_form(self, monkeypatch,
                                                           corrupt, status):
        # the closed-form BSDE has no certificate of its own: the scenario's
        # residual verdict is what catches a wrong phi series
        real = solver.solve_bsde_closed

        def solve_bsde_closed(data, sigma, paths):
            sol = real(data, sigma, paths)
            if corrupt:
                sol.phi_terms.append(TauSeries(
                    SpaceFactor.constant(1.0),
                    0.1 * np.ones_like(series_rows(sol.phi_terms[0].series, None)),
                    lambda tau: np.ones_like(tau, dtype=float)))
            return sol

        monkeypatch.setattr(solver, "solve_bsde_closed", solve_bsde_closed)
        spec = dataclasses.replace(get_scenario("stochastic_sinWT"), num_paths=200,
                                   checks=("residual",))
        [residual], _ = run_scenario(spec, seed=None)
        assert residual.check_id == "residual.stochastic_sinWT"
        assert residual.status == status

    def test_beta_sweep_rows(self):
        spec = get_scenario("beta_sweep")
        _, artifacts = run_scenario(spec, seed=None)
        rows = artifacts["contraction_vs_beta"]
        assert [r["beta"] for r in rows] == [0.0, 5.0, 20.0]
        assert set(rows[0]) == {"beta", "contraction_factor", "iterations"}

    def test_study_runs_on_the_overridden_spec(self):
        base = get_scenario("beta_sweep")
        spec = dataclasses.replace(base, num_steps=20, points_per_axis=65)
        _, artifacts = run_scenario(spec, seed=None)
        rows = artifacts["contraction_vs_beta"]
        assert rows == run_convergence_study(spec, "beta").details["rows"]
        assert rows != run_convergence_study(base, "beta").details["rows"]

    def test_apriori_study_solves_with_the_spec_beta(self, monkeypatch):
        betas = []
        solve = scenarios.solve

        def spy(coeffs, paths, config):
            betas.append(config.beta)
            return solve(coeffs, paths, config)

        monkeypatch.setattr(scenarios, "solve", spy)
        spec = dataclasses.replace(get_scenario("transport_decay"), beta=1.0)
        monkeypatch.setattr(verify, "_APRIORI_STEPS", (20,))
        monkeypatch.setattr(verify, "_APRIORI_POINTS", (65,))
        run_apriori_study([spec])
        assert betas == [1.0, 1.0]  # the unscaled and the scaled problem

    def test_beta_study_solves_through_the_spec_once_per_beta(self, monkeypatch):
        betas = []
        spec_solve = scenarios.ScenarioSpec.solve

        def spy(spec, *args, **kwargs):
            betas.append(kwargs["beta"])
            return spec_solve(spec, *args, **kwargs)

        monkeypatch.setattr(scenarios.ScenarioSpec, "solve", spy)
        spec = dataclasses.replace(get_scenario("beta_sweep"),
                                   num_steps=20, points_per_axis=65)
        run_convergence_study(spec, "beta")
        assert betas == [0.0, 5.0, 20.0]

    @pytest.mark.parametrize("scenario_id", ["constant_source", "kernel_suite"])
    def test_one_shot_scenario_peak_rss_is_bounded(self, scenario_id):
        # kept one-shot pair tables and the full-broadcast semigroup probe
        # took 75 and 71 MB
        assert _child_peak_rss_mb(scenario_id) <= 60.0

    def test_unknown_check_raises(self):
        spec = dataclasses.replace(get_scenario("kernel_suite"),
                                   checks=("kernel", "no_such_check"))
        with pytest.raises(InvalidArgument, match="no_such_check"):
            run_scenario(spec, seed=None)


class TestCallsPerSample:
    """Each function of the problem data is called on arrays, once per sample."""

    @staticmethod
    def counted(sid, field):
        """The catalog spec with a call counter on one coefficient function,
        and no oracle check (the finite-difference oracle steps on its own)."""
        spec, calls = get_scenario(sid), []

        def build():
            co = spec.build_coeffs()
            fn = getattr(co, field)

            def spy(*args):
                calls.append(args)
                return fn(*args)

            return dataclasses.replace(co, **{field: spy})

        checks = tuple(c for c in spec.checks if c != "oracle")
        return dataclasses.replace(spec, build_coeffs=build, checks=checks), calls

    # transport_decay: assumptions, solve, defect; semilinear_mode: one for
    # the Lipschitz probe, one per Picard iterate, defect; variable_a_sin:
    # assumptions, solve (with two for the frozen reference), defect, localize
    # (with one for a at the bump center)
    @pytest.mark.parametrize("sid, field, count", [
        ("transport_decay", "b_fn", 3),
        ("semilinear_mode", "driver", 9),
        ("variable_a_sin", "a_fn", 7),
    ])
    def test_coefficient_calls_per_run_scenario(self, sid, field, count):
        spec, calls = self.counted(sid, field)
        _, artifacts = run_scenario(spec, seed=None)
        assert len(calls) == count
        if field == "driver":
            assert count == 2 + artifacts["solution"].info["iterations"]

    def test_b_and_c_called_once_per_certificate(self):
        calls = {"b": 0, "c": 0}

        def counted(name, fn):
            def spy(t, x):
                calls[name] += 1
                return fn(t, x)
            return spy

        co = solver.CoefficientSet(
            terminal=scenarios.DataFunctional.deterministic(SpaceFactor.sine()),
            diffusion=scenarios.DiffusionCoefficient.isotropic(1.0),
            b_fn=counted("b", lambda t, x: 0.5 * np.cos(t + x)),
            c_fn=counted("c", lambda t, x: -0.5 - 0.2 * t))
        cfg = solver.SolverConfig(time_grid=TimeGrid(1.0, 20),
                                  space_grid=scenarios.SpaceGrid(1, 10.0, 65))
        sol = solver.solve(co, None, cfg)
        assert calls == {"b": 2, "c": 2}  # the assumption check and the solve
        solver.integral_form_defect(sol, co, paths=None)
        solver.localize(sol, co, z=0.0, theta=2.0, paths=None)
        assert calls == {"b": 4, "c": 4}

    def test_tau_factor_called_once_per_quadrature(self, monkeypatch):
        calls = {}
        closed = solver.solve_bsde_closed
        spec = get_scenario("constant_source")
        coeffs = spec.build_coeffs()

        def spied(data, sigma, paths):
            fam = closed(data, sigma, paths)
            if data is not coeffs.forcing:
                return fam  # the terminal member reads each B once, at T: no quadrature
            spies = {}  # one spy per distinct B, so shared ones stay shared
            for piece in fam.phi_terms + [p for g in fam.psi_terms for p in g]:
                fn = piece.tau_fn
                if id(fn) not in spies:
                    def spy(tau, fn=fn, key=len(spies)):
                        calls[key] = calls.get(key, 0) + 1
                        return fn(tau)
                    spies[id(fn)] = spy
                piece.tau_fn = spies[id(fn)]
            return fam

        monkeypatch.setattr(solver, "solve_bsde_closed", spied)
        run_scenario(dataclasses.replace(spec, build_coeffs=lambda: coeffs), seed=None)
        # the plain and the substituted quadrature of the one forcing piece
        assert calls == {0: 2}


class TestDemo:
    def test_certification_demo_runs(self, capsys):
        # the demo prints the kernel suite's, the a priori study's and the
        # time-shift study's tables, each ending in its counts
        runpy.run_path(str(DEMOS / "certification_demo.py"))["main"]()
        counts = re.findall(r"^(\d+) pass, (\d+) fail$", capsys.readouterr().out, re.M)
        assert len(counts) == 3
        assert all(int(passed) > 0 and failed == "0" for passed, failed in counts)

    def test_heat_convolution_demo_runs(self, capsys):
        # the demo prints each closed-form scenario's sup error and residual,
        # then the abs_kink refinement order
        runpy.run_path(str(DEMOS / "heat_convolution_demo.py"))["main"]()
        out = capsys.readouterr().out
        rows = re.findall(r"^(\w+)\s+sup error (\S+)\s+residual rms (\S+)", out, re.M)
        assert [sid for sid, _, _ in rows] == ["heat_quadratic", "sin_decay",
                                              "transport_decay", "constant_source"]
        for sid, err, rms in rows:
            spec = get_scenario(sid)
            assert float(err) <= spec.sup_tolerance and float(rms) <= spec.residual_tolerance
        (order,) = re.findall(r"^abs_kink spatial order (\S+)", out, re.M)
        assert abs(float(order) - 2.0) <= 0.3

    def test_picard_contraction_demo_runs(self, capsys):
        # the demo prints variable_a_sin's error against finite differences,
        # then the contraction factor at each damping of the beta sweep
        runpy.run_path(str(DEMOS / "picard_contraction_demo.py"))["main"]()
        out = capsys.readouterr().out
        (err,) = re.findall(r"sup error vs finite differences (\S+)", out)
        assert float(err) <= 1e-2
        sweep = [(float(b), float(f))
                 for b, f in re.findall(r"beta\s+(\S+): contraction factor (\S+)", out)]
        assert len(sweep) >= 2 and [b for b, _ in sweep] == sorted(b for b, _ in sweep)
        assert all(lo > hi for (_, lo), (_, hi) in zip(sweep, sweep[1:]))
