"""End-to-end acceptance checks with closed-form and independent oracles.

Each test pins one headline claim of the package at its stated tolerance:
kernel mass and identities, solver-vs-oracle errors, residual certification,
norm-ratio stability, inequality slacks, time continuity, variable and
semilinear coefficients, and Monte Carlo cross-validation.
"""

import time

import numpy as np
import pytest

from bspdelab.grid import MultiIndex, SpaceGrid, TimeGrid, space_quadrature_weights
from bspdelab.holder import (
    FieldSample,
    check_interpolation,
    check_product_inequalities,
)
from bspdelab.kernel import (
    DiffusionCoefficient,
    HeatKernel,
    probe_integral_estimates,
    probe_pointwise_bound,
)
from bspdelab.scenarios import get_scenario
from bspdelab.solver import BumpField, _masked_grid, covering_inequality
from bspdelab.stochastic import (
    BM,
    BM_SQUARED,
    DataFunctional,
    PathFactor,
    SpaceFactor,
    sample_paths,
    solve_bsde_closed,
    solve_bsde_regression,
)
from bspdelab.verify import run_apriori_study, run_residual_check, to_json


def _suite_kernels():
    return [
        (DiffusionCoefficient.isotropic(1.0), 1),
        (DiffusionCoefficient.isotropic(1.0, dim=2), 2),
        (DiffusionCoefficient.time_scaled(lambda t: 1.0 + t, dim=1,
                                          lam=1.0, Lam=2.0), 1),
        (DiffusionCoefficient.constant(np.diag([1.0, 2.0])), 2),
    ]


def test_criterion_1_kernel_normalization():
    t0 = time.time()
    for diff, dim in _suite_kernels():
        k = HeatKernel(diff, horizon=1.0)
        R = 6.5 * np.sqrt(2.0 * diff.Lam) + 1.0
        g = SpaceGrid(dim, R, 513 if dim == 1 else 161)
        w = space_quadrature_weights(g).ravel()
        nodes = g.nodes()
        gammas = [(1,), (2,)] if dim == 1 else [(1, 0), (0, 1), (1, 1), (2, 0)]
        for gap in (0.1, 1.0):
            assert abs(np.sum(w * k(0.0, gap, nodes)) - 1.0) <= 1e-6
            for gc in gammas:
                m = np.sum(w * k.derivative(0.0, gap, nodes, MultiIndex(gc)))
                assert abs(m) <= 1e-6, (gc, gap)
    assert time.time() - t0 < 10.0


def test_criterion_2_fundamental_solution_identities():
    t0 = time.time()
    scaled = DiffusionCoefficient.time_scaled(lambda t: 1.0 + 0.5 * t,
                                              dim=1, lam=1.0, Lam=1.5)
    k = HeatKernel(scaled, horizon=1.0)
    rng = np.random.default_rng(0)
    eps = 1e-5
    for _ in range(100):
        t = float(rng.uniform(0.0, 0.4))
        s = float(rng.uniform(t + 0.3, 1.0))
        x = float(rng.uniform(-2.0, 2.0))
        d2 = float(k.derivative(t, s, [x], MultiIndex((2,))))
        ds = float((k(t, s + eps, [x]) - k(t, s - eps, [x])) / (2 * eps))
        dt = float((k(t + eps, s, [x]) - k(t - eps, s, [x])) / (2 * eps))
        fwd = float(scaled(s)[0, 0]) * d2
        bwd = -float(scaled(t)[0, 0]) * d2
        assert abs(ds - fwd) < 1e-3 * max(abs(fwd), 1e-3)
        assert abs(dt - bwd) < 1e-3 * max(abs(bwd), 1e-3)
    assert time.time() - t0 < 5.0


def test_criterion_3_kernel_estimate_suite():
    t0 = time.time()
    iso = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=1.0)
    for order in range(4):
        rep = probe_pointwise_bound(iso, MultiIndex((order,)))
        assert np.isfinite(rep.empirical_C)
        assert rep.stable  # refinement levels within 30%
    klong = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=4.0)
    for gamma, alpha in [((1,), 0.25), ((2,), 0.5)]:
        reports = probe_integral_estimates(klong, MultiIndex(gamma), alpha)
        for key, rep in reports.items():
            assert np.isfinite(rep.empirical_C), key
            assert rep.stable, key
        ex = reports["beta_damped_moment"].extras
        expected = -1.0 + (sum(gamma) - alpha) / 2.0
        assert abs(ex["predicted_exponent"] - expected) < 1e-12
        assert abs(ex["fitted_exponent"] - ex["predicted_exponent"]) <= 0.3
    assert time.time() - t0 < 120.0


@pytest.mark.parametrize("sid", ["heat_quadratic", "sin_decay",
                                 "transport_decay", "constant_source"])
def test_criterion_4_deterministic_closed_forms(sid, picard_run, certify_run):
    run = {**picard_run, **certify_run}[sid]
    sol = run.artifacts["solution"]
    assert len(sol.time_grid) == 101
    assert sol.space_grid.points_per_axis == 257
    # the oracle verdict's sup is max |u - u_exact| over every time and the trusted points
    assert run.verdict(f"oracle.{sid}").measured["sup"] <= 1e-3
    assert run.seconds < 60.0


def test_criterion_5_stochastic_model_vs_closed_form():
    t0 = time.time()
    spec = get_scenario("stochastic_sinWT")
    sol, coeffs, paths = spec.solve()
    assert paths.num_paths == 10_000
    idx = np.arange(1000)
    u_exact, v_exact = spec.oracle(spec, sol, paths.subset(idx))
    m = sol.trusted
    du = sol.u_dense(0, path_idx=idx)[..., m] - u_exact[..., m]
    dv = sol.v_dense(0, 0, path_idx=idx)[..., m] - v_exact[None, :, m]
    dt, h = sol.time_grid.dt, sol.space_grid.h
    scale = float(np.sqrt(np.mean(u_exact[..., m] ** 2)))
    allowance = 2.0 * (dt + h**2) * max(scale, 1.0)
    se_u = float(np.std(np.sqrt(np.mean(du**2, axis=(1, 2))))) / np.sqrt(len(idx))
    assert np.sqrt(np.mean(du**2)) <= 3.0 * se_u + allowance
    assert np.sqrt(np.mean(dv**2)) <= allowance
    assert time.time() - t0 < 180.0


def test_criterion_6_residual_certification(picard_run, certify_run):
    # the residual checks of the closed-form and Picard scenarios, as run_scenario ran them
    runs = {**picard_run, **certify_run}
    for sid in ("heat_quadratic", "sin_decay", "constant_source",
                "transport_decay", "semilinear_mode"):
        v = runs[sid].verdict(f"residual.{sid}")
        assert v.status == "pass", (sid, v.measured)
    # harness self-test: an injected defect must be caught
    spec = get_scenario("sin_decay")
    sol, coeffs, _ = spec.solve()
    sol.u_parts[0].profiles[0][10:20] += 0.1
    v = run_residual_check(sol, coeffs, spec.residual_tolerance, paths=None,
                           check_id=f"residual.{spec.scenario_id}")
    assert v.status == "fail"


LINEAR_SCENARIOS = ("heat_smoke", "heat_quadratic", "sin_decay",
                    "constant_source", "transport_decay", "variable_a_sin",
                    "abs_kink", "stochastic_sinWT")


def test_criterion_7_apriori_ratio_stability():
    verdicts = run_apriori_study([get_scenario(sid) for sid in LINEAR_SCENARIOS])
    for v in sorted(verdicts, key=lambda x: x.check_id):
        if "ratio_spread" in v.check_id:
            assert np.isfinite(v.measured["max_ratio"]), v.check_id
            assert v.measured["spread"] <= 1.3, (v.check_id, v.measured)
        else:
            assert v.measured["max_relative_deviation"] <= 1e-10, \
                (v.check_id, v.measured)
        assert v.status == "pass"


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_criterion_8_interpolation_and_product_inequalities(alpha):
    for sid, take in [("sin_decay", 0), ("stochastic_sinWT", 64)]:
        spec = get_scenario(sid)
        sol, coeffs, paths = spec.solve(num_paths=take or None)
        mask = sol.trusted
        sub = _masked_grid(sol.space_grid, mask)
        u = sol.u_dense(0)[..., mask]
        psi = FieldSample(u, sub, "L2Omega")
        bump = BumpField(0.3, 0.4)
        hv = np.broadcast_to(bump(sub.axis)[None, None, :], u.shape).copy()
        h = FieldSample(hv, sub, "Linf")
        for c in check_product_inequalities(h, psi, alpha):
            assert c["slack"] >= -1e-9, (sid, c)
        for c in check_interpolation(FieldSample(u, sub, "L2Omega"),
                                     alpha, (0.1, 0.5)):
            assert not c["flagged"], (sid, c)
            assert all(np.isfinite(level["C"]) for level in c["levels"])


def test_criterion_9_time_continuity(ensemble_run):
    # time_shift_sweep runs the time-shift study of sin_decay and stochastic_sinWT
    verdicts = ensemble_run["time_shift_sweep"].verdicts
    assert [v.check_id for v in verdicts] == [
        "time_shift.sqrt_rate.sin_decay", "time_shift.sqrt_rate.stochastic_sinWT"]
    for v in verdicts:
        assert v.status == "pass", (v.check_id, v.measured)
        ratios = v.measured["ratios"]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a * 1.2


def test_criterion_10_variable_coefficients(picard_run):
    run = picard_run["variable_a_sin"]
    sol = run.artifacts["solution"]
    assert sol.info["converged"]
    # the oracle verdict's sup is max |u - u_exact| over every time and the trusted points
    assert run.verdict("oracle.variable_a_sin").measured["sup"] <= 1e-2
    cov = covering_inequality(sol, theta=2.0, u0=sol.u_dense(0))
    assert cov["slack"] >= -1e-9


def test_criterion_11_semilinear(picard_run):
    run = picard_run["semilinear_mode"]
    assert run.verdict("oracle.semilinear_mode").measured["sup"] <= 1e-3

    # successive differences decay geometrically
    diffs = [h["sup_change"] for h in run.artifacts["solution"].info["history"][1:]]
    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
    assert np.exp(np.mean(np.log(ratios))) < 1.0

    v = picard_run["beta_sweep"].verdict("convergence.beta.beta_sweep")
    factors = v.measured["factors"]
    assert v.status == "pass"
    assert factors[0] > factors[1] > factors[2]


@pytest.mark.parametrize("workload", ["picard", "ensemble", "certify"])
def test_workload_matches_the_benchmark_reference(workload, request, workload_references,
                                                  benchmark_harness):
    # every verdict's status and measured values, at the harness's round-off rule
    reference = workload_references[workload]
    runs = request.getfixturevalue(f"{workload}_run")
    verdicts = {sid: to_json(run.verdicts).encode() for sid, run in runs.items()}
    log = []
    expected, failed = benchmark_harness.check_verdicts(
        reference, verdicts, reference["seed"], log)
    assert expected == sum(len(ref) for ref in reference["scenarios"].values()) > 0
    assert failed == 0, log


def test_criterion_12_regression_cross_validation():
    grid = TimeGrid(1.0, 50)
    paths = sample_paths(10_000, 1, grid, seed=42)
    x = np.array([-1.0, 0.0, 1.0])
    basis_size = 4
    cases = {
        "W_T": DataFunctional(terms=((SpaceFactor.constant(1.0),
                                      PathFactor(BM)),)),
        "W_T^2": DataFunctional(terms=((SpaceFactor.constant(1.0),
                                        PathFactor(BM_SQUARED)),)),
        "sin(x)W_T": DataFunctional(terms=((SpaceFactor.sine(),
                                            PathFactor(BM)),)),
    }
    for name, df in cases.items():
        term = df.terminal_values(paths, x)
        reg = solve_bsde_regression(term, [0.0], paths)
        closed = solve_bsde_closed(df, [0.0], paths)
        phi_exact = closed.phi_dense(x, paths.time_grid.horizon)
        for k in (5, 25, 45):
            # sampling scale of the fitted conditional expectation: the
            # martingale residual times sqrt(basis / ensemble size)
            sigma = float(np.max(np.std(term[:, :] - phi_exact[:, k, :],
                                        axis=0)))
            se = sigma * np.sqrt(basis_size / paths.num_paths)
            err = float(np.sqrt(np.mean((reg.phi[:, k, :]
                                         - phi_exact[:, k, :]) ** 2)))
            assert err <= 3.0 * se, (name, k, err, se)
