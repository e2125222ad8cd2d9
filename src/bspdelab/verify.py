"""Certification harness: verdicts, norm-ratio studies, kernel probe suites.

Every check produces a Verdict whose ``provenance`` field records where the
expected value comes from (a closed form, an independent discretization, an
exact identity).  The schema refuses verdicts without one, so no expectation
can enter a report untagged.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .grid import MultiIndex, SpaceGrid, TimeGrid, space_quadrature_weights
from .holder import FieldSample, estimate_norm
from .kernel import (
    DiffusionCoefficient,
    HeatKernel,
    probe_integral_estimates,
    probe_pointwise_bound,
    probe_sup_kernel_integrability,
)
from .solver import _jsonable, _masked_grid, integral_form_defect, time_shift_norm
from .stochastic import (
    DataFunctional,
    SpaceFactor,
    solve_bsde_closed,
    solve_bsde_regression,
)

STATUSES = ("pass", "fail", "advisory")


@dataclass
class Verdict:
    """One certified measurement with its tolerance and expectation source."""

    check_id: str
    status: str
    measured: dict
    tolerance: dict
    provenance: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InvalidArgument(f"verdict status must be one of {STATUSES}")
        if not str(self.provenance).strip():
            raise InvalidArgument(
                "every verdict must state where its expected value comes from"
            )

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "measured": _jsonable(self.measured),
            "tolerance": _jsonable(self.tolerance),
            "provenance": self.provenance,
            "details": _jsonable(self.details),
        }


@dataclass
class VerdictBundle:
    """Ordered, serializable collection of verdicts for one run."""

    verdicts: list = field(default_factory=list)

    def add(self, verdict: Verdict):
        self.verdicts.append(verdict)
        return verdict

    def extend(self, other):
        for v in other.verdicts if isinstance(other, VerdictBundle) else other:
            self.verdicts.append(v)
        return self

    def sorted(self):
        return sorted(self.verdicts, key=lambda v: v.check_id)

    @property
    def failures(self):
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps([v.to_dict() for v in self.sorted()],
                          sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        width = max([len(v.check_id) for v in self.verdicts] + [8])
        lines = [f"{'check':<{width}}  status    measured"]
        for v in self.sorted():
            meas = ", ".join(f"{k}={_fmt(val)}" for k, val in
                             sorted(_jsonable(v.measured).items()))
            lines.append(f"{v.check_id:<{width}}  {v.status:<8}  {meas}")
        counts = {s: sum(1 for v in self.verdicts if v.status == s) for s in STATUSES}
        lines.append(
            f"{counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['advisory']} advisory"
        )
        return "\n".join(lines)


def _fmt(val):
    if isinstance(val, float):
        return f"{val:.4g}"
    return str(val)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# -- residual certification -------------------------------------------------

def run_residual_check(solution, coeffs, tolerance: float, paths=None,
                       check_id: str = None) -> Verdict:
    """Certify the integral-form defect of a solution against its data."""
    rms, worst = integral_form_defect(solution, coeffs, paths=paths)
    cid = check_id or f"residual.{coeffs.label or 'unnamed'}"
    return Verdict(
        check_id=cid,
        status=_status(rms <= tolerance),
        measured={"rms": rms, "worst": worst},
        tolerance={"rms": tolerance},
        provenance="discrete time integral of the equation the solver was fed",
    )


def run_oracle_check(spec, solution, paths) -> Verdict:
    """Compare a solved field with the scenario's independent oracle."""
    if spec.oracle is None:
        return Verdict(
            check_id=f"oracle.{spec.scenario_id}", status="advisory",
            measured={"note": "no oracle registered"}, tolerance={},
            provenance="scenario catalog", details={},
        )
    u_exact, v_exact = spec.oracle(spec, solution, paths)
    mask = solution.trusted
    tsel = np.ones(len(solution.time_grid), dtype=bool)
    if "t_max" in spec.extras:
        tsel = solution.time_grid.nodes <= spec.extras["t_max"] + 1e-12
    if u_exact.ndim == 2:
        u = solution.u_dense(0)
        diff = u[:, tsel][..., mask] - u_exact[None, tsel][..., mask]
        measured = {"sup": float(np.max(np.abs(diff)))}
        ok = measured["sup"] <= spec.sup_tolerance
    else:
        idx = np.arange(min(solution.num_paths, 512))
        u = solution.u_dense(0, path_idx=idx)
        diff = u[:, tsel][..., mask] - u_exact[idx][:, tsel][..., mask]
        measured = {"rms": float(np.sqrt(np.mean(diff**2)))}
        if v_exact is not None:
            v = solution.v_dense(0, 0, path_idx=idx)
            vd = v[:, tsel][..., mask] - v_exact[None, tsel][..., mask]
            measured["v_rms"] = float(np.sqrt(np.mean(vd**2)))
        ok = all(m <= spec.sup_tolerance for m in measured.values())
    return Verdict(
        check_id=f"oracle.{spec.scenario_id}",
        status=_status(ok),
        measured=measured,
        tolerance={"sup": spec.sup_tolerance},
        provenance=spec.provenance,
        details={"trusted_points": int(mask.sum())},
    )


# -- a priori norm-ratio study ---------------------------------------------

def solution_norm_lhs(sol, alpha: float, max_paths: int = 128) -> dict:
    """The three-norm sum measured on the trusted region of a solution."""
    mask = sol.trusted
    sub = _masked_grid(sol.space_grid, mask)
    idx = None
    if sol.num_paths > max_paths:
        idx = np.linspace(0, sol.num_paths - 1, max_paths).astype(int)
    u0 = sol.u_dense(0, path_idx=idx)[..., mask]
    u1 = sol.u_dense(1, path_idx=idx)[..., mask]
    u2 = sol.u_dense(2, path_idx=idx)[..., mask]
    low = estimate_norm(FieldSample(u0, sub, "S2", sol.time_grid), 0, alpha).total
    fh = FieldSample(u0, sub, "L2", sol.time_grid)
    fh.attach_derivative(1, u1)
    fh.attach_derivative(2, u2)
    high = estimate_norm(fh, 2, alpha).total
    v0 = sol.v_dense(0, 0, path_idx=idx)[..., mask]
    v_norm = estimate_norm(FieldSample(v0, sub, "L2", sol.time_grid), 0, alpha).total
    return {"u_low": low, "u_high": high, "v": v_norm,
            "total": low + high + v_norm}


def data_norm_rhs(coeffs, sol, paths, alpha: float, max_paths: int = 128) -> dict:
    """Norms of the problem data on the same trusted region."""
    mask = sol.trusted
    sub = _masked_grid(sol.space_grid, mask)
    x = sol.space_grid.axis[mask]
    from .solver import _degenerate_paths

    p = paths if paths is not None else _degenerate_paths(sol.time_grid, 1)
    if p.num_paths > max_paths:
        raise InvalidArgument("subsample the ensemble before measuring data norms")
    phi = coeffs.terminal.terminal_values(p, x)[:, None, :]
    f_phi = FieldSample(phi, sub, "L2Omega")
    n_phi = estimate_norm(f_phi, 1, alpha).total
    n_f = 0.0
    if coeffs.forcing is not None:
        fv = coeffs.forcing.dense(p, x)
        n_f = estimate_norm(FieldSample(fv, sub, "L2", sol.time_grid), 0, alpha).total
    return {"terminal": n_phi, "forcing": n_f, "total": n_phi + n_f}


def _scale_factor(h: SpaceFactor, kappa: float) -> SpaceFactor:
    d3 = None
    if h.d3 is not None:
        d3 = lambda x, f=h.d3: kappa * f(x)
    return SpaceFactor(
        label=f"{kappa}*{h.label}",
        fn=lambda x, f=h.fn: kappa * f(x),
        d1=lambda x, f=h.d1: kappa * f(x),
        d2=lambda x, f=h.d2: kappa * f(x),
        d3=d3,
    )


def scaled_coefficients(coeffs, kappa: float):
    """The same problem with terminal and forcing data multiplied by kappa."""
    term = DataFunctional(terms=tuple(
        (_scale_factor(h, kappa), p) for h, p in coeffs.terminal.terms
    ))
    forcing = coeffs.forcing
    if forcing is not None:
        forcing = DataFunctional(terms=tuple(
            (_scale_factor(h, kappa), p) for h, p in forcing.terms
        ))
    return dataclasses.replace(coeffs, terminal=term, forcing=forcing,
                               label=f"{coeffs.label}~x{kappa}")


def run_apriori_study(scenario_ids=("sin_decay", "heat_quadratic"),
                      steps=(50, 100), points=(129, 257),
                      scalings=(1.0, 10.0), alpha: float = 0.5,
                      ratio_spread: float = 1.3,
                      equivariance_tol: float = 1e-10,
                      max_paths: int = 128) -> VerdictBundle:
    """Norm ratio LHS/RHS across grid refinement and data scaling.

    A stable ratio across the lattice is the empirical counterpart of the
    a priori bound: the solution norms are controlled by the data norms with
    a constant that does not blow up under refinement.  Linearity of the
    solve makes the ratio exactly invariant under data scaling, which is the
    equivariance check.
    """
    from .scenarios import get_scenario
    from .solver import SolverConfig, solve

    bundle = VerdictBundle()
    for sid in scenario_ids:
        spec = get_scenario(sid)
        base = spec.build_coeffs()
        ratios = {}
        lin_dev = 0.0
        for K in steps:
            for J in points:
                cfg = SolverConfig(time_grid=TimeGrid(spec.horizon, K),
                                   space_grid=SpaceGrid(1, spec.radius, J))
                paths = None
                if spec.num_paths:
                    paths = spec.paths(num_paths=min(spec.num_paths, max_paths),
                                       time_grid=cfg.time_grid)
                sols = {}
                for kappa in scalings:
                    coeffs = base if kappa == 1.0 else scaled_coefficients(base, kappa)
                    sol = sols[kappa] = solve(coeffs, paths, cfg)
                    lhs = solution_norm_lhs(sol, alpha, max_paths)["total"]
                    rhs = data_norm_rhs(coeffs, sol, paths, alpha, max_paths)["total"]
                    ratios[(K, J, kappa)] = lhs / rhs
                base_sol = sols[scalings[0]]
                mask = base_sol.trusted
                for kappa in scalings[1:]:
                    rel = kappa / scalings[0]
                    fields = [(sols[kappa].u_dense(o)[..., mask],
                               base_sol.u_dense(o)[..., mask])
                              for o in range(3)]
                    scale = max(max(float(np.max(np.abs(ua)))
                                    for ua, ub in fields), 1e-300)
                    for ua, ub in fields:
                        lin_dev = max(lin_dev, float(
                            np.max(np.abs(ua - rel * ub)) / scale))
        vals = list(ratios.values())
        spread = max(vals) / min(vals)
        bundle.add(Verdict(
            check_id=f"apriori.ratio_spread.{sid}",
            status=_status(spread <= ratio_spread),
            measured={"spread": spread, "min_ratio": min(vals),
                      "max_ratio": max(vals)},
            tolerance={"spread": ratio_spread},
            provenance="refinement lattice over steps x points x scaling",
            details={"ratios": {f"K{K}_J{J}_k{int(k)}": r
                                for (K, J, k), r in ratios.items()}},
        ))
        if len(scalings) >= 2:
            k0, k1 = scalings[0], scalings[-1]
            ratio_dev = max(
                abs(ratios[(K, J, k1)] / ratios[(K, J, k0)] - 1.0)
                for K in steps for J in points
            )
            bundle.add(Verdict(
                check_id=f"apriori.scaling_equivariance.{sid}",
                status=_status(lin_dev <= equivariance_tol),
                measured={"max_relative_deviation": lin_dev},
                tolerance={"max_relative_deviation": equivariance_tol},
                provenance="linearity of the solve in the data",
                details={"ratio_deviation": ratio_dev},
            ))
    return bundle


# -- kernel suite -----------------------------------------------------------

def _suite_diffusions():
    return [
        ("iso1", DiffusionCoefficient.isotropic(1.0)),
        ("scaled1", DiffusionCoefficient.time_scaled(
            lambda t: 1.0 + t, dim=1, lam=1.0, Lam=2.0)),
        ("aniso2", DiffusionCoefficient.constant(np.diag([1.0, 2.0]))),
    ]


def _mass_grid(dim: int, Lam: float, horizon: float) -> SpaceGrid:
    R = 6.5 * np.sqrt(2.0 * Lam * horizon) + 1.0
    return SpaceGrid(dim, R, 513 if dim == 1 else 161)


def run_kernel_suite(horizon: float = 1.0, mass_tol: float = 1e-6,
                     identity_tol: float = 1e-3, ck_tol: float = 1e-4,
                     exponent_window: float = 0.3,
                     seed: int = 0) -> VerdictBundle:
    """Normalization, derivative identities, semigroup property, and the
    empirical constants of the kernel estimates."""
    bundle = VerdictBundle()
    rng = np.random.default_rng(seed)

    for label, diff in _suite_diffusions():
        k = HeatKernel(diff, horizon=horizon)
        g = _mass_grid(diff.dim, diff.Lam, horizon)
        w = space_quadrature_weights(g).ravel()
        nodes = g.nodes()
        worst = 0.0
        for gap in (0.1, horizon):
            worst = max(worst, abs(float(np.sum(w * k(0.0, gap, nodes))) - 1.0))
        bundle.add(Verdict(
            check_id=f"kernel.normalization.{label}",
            status=_status(worst <= mass_tol),
            measured={"mass_error": worst}, tolerance={"mass_error": mass_tol},
            provenance="a probability density integrates to one",
        ))
        gammas = [(1,), (2,)] if diff.dim == 1 else [(1, 0), (1, 1), (2, 0)]
        worst_d = 0.0
        for gcomp in gammas:
            for gap in (0.1, horizon):
                m = float(np.sum(w * k.derivative(0.0, gap, nodes, MultiIndex(gcomp))))
                worst_d = max(worst_d, abs(m))
        bundle.add(Verdict(
            check_id=f"kernel.derivative_mass.{label}",
            status=_status(worst_d <= mass_tol),
            measured={"mass_error": worst_d}, tolerance={"mass_error": mass_tol},
            provenance="derivatives of a unit-mass density integrate to zero",
        ))

    # forward and backward derivative identities against finite differences
    scaled = DiffusionCoefficient.time_scaled(lambda t: 1.0 + 0.5 * t,
                                              dim=1, lam=1.0, Lam=1.5)
    k = HeatKernel(scaled, horizon=horizon)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 0.4))
        s = float(rng.uniform(t + 0.3, horizon))
        x = float(rng.uniform(-2.0, 2.0))
        d2 = float(k.derivative(t, s, [x], MultiIndex((2,))))
        ds = float((k(t, s + eps, [x]) - k(t, s - eps, [x])) / (2 * eps))
        dt = float((k(t + eps, s, [x]) - k(t - eps, s, [x])) / (2 * eps))
        fwd = float(scaled(s)[0, 0]) * d2
        bwd = -float(scaled(t)[0, 0]) * d2
        scale = max(abs(fwd), 1e-3)
        worst = max(worst, abs(ds - fwd) / scale, abs(dt - bwd) / scale)
    bundle.add(Verdict(
        check_id="kernel.derivative_identities",
        status=_status(worst <= identity_tol),
        measured={"relative_error": worst},
        tolerance={"relative_error": identity_tol},
        provenance="central finite differences in t and s at random probes",
    ))

    # semigroup property: convolving two short hops reproduces the long hop
    iso = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=horizon)
    g = SpaceGrid(1, 8.0, 1025)
    nodes = g.nodes().ravel()
    w = space_quadrature_weights(g)
    t, r, s = 0.0, 0.3, 0.8
    conv = np.sum(
        w[None, :] * iso(r, s, (nodes[:, None] - nodes[None, :])[..., None])
        * iso(t, r, nodes[None, :, None]), axis=1)
    direct = iso(t, s, nodes[:, None])
    err = float(np.max(np.abs(conv - direct)))
    bundle.add(Verdict(
        check_id="kernel.semigroup",
        status=_status(err <= ck_tol),
        measured={"sup_error": err}, tolerance={"sup_error": ck_tol},
        provenance="two-step composition of the transition density",
    ))

    # pointwise Gaussian-envelope constants for derivative orders 0..3
    for order in range(4):
        rep = probe_pointwise_bound(iso, MultiIndex((order,)))
        bundle.add(Verdict(
            check_id=f"kernel.pointwise_bound.d{order}",
            status=_status(bool(np.isfinite(rep.empirical_C)) and rep.stable),
            measured={"empirical_C": float(rep.empirical_C),
                      "stable": bool(rep.stable)},
            tolerance={"level_ratio": 1.3},
            provenance="probe lattice refinement of the envelope ratio",
        ))

    # integral-estimate constants and the damping exponent fit
    klong = HeatKernel(DiffusionCoefficient.isotropic(1.0), horizon=4.0)
    reports = probe_integral_estimates(klong, MultiIndex((2,)), 0.5)
    all_ok = all(np.isfinite(rep.empirical_C) and rep.stable
                 for rep in reports.values())
    bundle.add(Verdict(
        check_id="kernel.integral_estimates",
        status=_status(all_ok),
        measured={key: float(rep.empirical_C) for key, rep in reports.items()},
        tolerance={"level_ratio": 1.3},
        provenance="grid refinement of each integral probe",
    ))
    ex = reports["beta_damped_moment"].extras
    dev = abs(ex["fitted_exponent"] - ex["predicted_exponent"])
    bundle.add(Verdict(
        check_id="kernel.beta_exponent",
        status=_status(dev <= exponent_window),
        measured={"fitted": float(ex["fitted_exponent"]),
                  "predicted": float(ex["predicted_exponent"])},
        tolerance={"deviation": exponent_window},
        provenance="log-log fit of the damped moment across a beta sweep",
    ))

    probe = probe_sup_kernel_integrability(iso, 0.5, horizon / 4.0)
    bundle.add(Verdict(
        check_id="kernel.sup_integrability",
        status=_status(bool(np.isfinite(probe.value)) and probe.warning is None),
        measured={"value": float(probe.value)},
        tolerance={"finite": 1.0},
        provenance="windowed supremum under the moment weight",
    ))
    return bundle


# -- convergence studies ----------------------------------------------------

def run_convergence_study(scenario_id: str, axis: str, seed: int = 0) -> Verdict:
    """Refinement behavior along one axis: h, dt, M, or beta.

    Scenarios without an oracle can only produce an advisory verdict; the
    study then reports the observed decay without certifying a rate.
    """
    from .scenarios import get_scenario

    spec = get_scenario(scenario_id)
    if axis == "h":
        return _h_study(spec)
    if axis == "dt":
        return _dt_study(spec)
    if axis == "M":
        return _m_study(spec, seed)
    if axis == "beta":
        return _beta_study(spec)
    raise InvalidArgument("axis must be one of 'h', 'dt', 'M', 'beta'")


def _restricted_sup(spec, sol, u_exact):
    mask = sol.trusted
    tsel = np.ones(len(sol.time_grid), dtype=bool)
    if "t_max" in spec.extras:
        tsel = sol.time_grid.nodes <= spec.extras["t_max"] + 1e-12
    u = sol.u_dense(0)[0]
    return float(np.max(np.abs(u[np.ix_(tsel, mask)] - u_exact[np.ix_(tsel, mask)])))


def _order_verdict(spec, axis, rows, key, expected, window, provenance):
    xs = np.log([r[key] for r in rows])
    es = np.log([r["error"] for r in rows])
    order = float(np.polyfit(xs, es, 1)[0])
    if spec.oracle is None:
        status = "advisory"
    else:
        status = _status(abs(order - expected) <= window)
    return Verdict(
        check_id=f"convergence.{axis}.{spec.scenario_id}",
        status=status,
        measured={"fitted_order": order},
        tolerance={"expected_order": expected, "window": window},
        provenance=provenance,
        details={"rows": rows},
    )


def _h_study(spec) -> Verdict:
    sweep = spec.extras.get("points_sweep", (65, 129, 257))
    expected = spec.extras.get("expected_order", 2.0)
    window = spec.extras.get("order_window", 0.3)
    rows = []
    for J in sweep:
        sol, coeffs, paths = spec.solve(space_grid=SpaceGrid(1, spec.radius, J))
        u_exact, _ = spec.oracle(spec, sol, paths)
        rows.append({"points": J, "h": sol.space_grid.h,
                     "error": _restricted_sup(spec, sol, u_exact)})
    return _order_verdict(spec, "h", rows, "h", expected, window,
                          spec.provenance)


def _dt_study(spec) -> Verdict:
    rows = []
    for K in spec.extras.get("steps_sweep", (25, 50, 100)):
        sol, coeffs, paths = spec.solve(time_grid=TimeGrid(spec.horizon, K))
        rows.append({"steps": K, "dt": sol.time_grid.dt,
                     "error": sol.residual_rms})
    expected = spec.extras.get("expected_dt_order", 2.0)
    return _order_verdict(spec, "dt", rows, "dt", expected,
                          spec.extras.get("order_window", 0.3),
                          "trapezoid defect of the time integral")


def _m_study(spec, seed: int) -> Verdict:
    """Monte Carlo rate of the regression route against the closed form."""
    x = np.array([-1.0, 0.0, 1.0])
    coeffs = spec.build_coeffs()
    rows = []
    for M in spec.extras.get("paths_sweep", (250, 1000, 4000)):
        reps = []
        for rep in range(3):
            paths = spec.paths(seed=seed + 1000 * rep, num_paths=M)
            if paths is None:
                raise InvalidArgument("the M study needs a stochastic scenario")
            term = coeffs.terminal.terminal_values(paths, x)
            reg = solve_bsde_regression(term, coeffs.sigma, paths, x=x)
            closed = solve_bsde_closed(coeffs.terminal, coeffs.sigma, paths)
            phi_exact = closed.phi_dense(x)
            reps.append(float(np.sqrt(np.mean((reg.phi - phi_exact) ** 2))))
        rows.append({"paths": M, "error": float(np.mean(reps))})
    xs = np.log([r["paths"] for r in rows])
    es = np.log([r["error"] for r in rows])
    rate = float(np.polyfit(xs, es, 1)[0])
    return Verdict(
        check_id=f"convergence.M.{spec.scenario_id}",
        status=_status(abs(rate + 0.5) <= 0.15),
        measured={"fitted_rate": rate},
        tolerance={"expected_rate": -0.5, "window": 0.15},
        provenance="closed-form conditional expectation of the terminal "
                   "functional",
        details={"rows": rows},
    )


def _beta_study(spec) -> Verdict:
    from .solver import solve

    rows = []
    coeffs = spec.build_coeffs()
    for beta in spec.extras.get("betas", (0.0, 5.0, 20.0)):
        cfg = spec.config(beta=beta, max_iter=60)
        sol = solve(coeffs, None, cfg)
        rows.append({
            "beta": beta,
            "contraction_factor": float(sol.info["contraction_factor"]),
            "iterations": int(sol.info["iterations"]),
        })
    factors = [r["contraction_factor"] for r in rows]
    monotone = all(b < a for a, b in zip(factors, factors[1:]))
    return Verdict(
        check_id=f"convergence.beta.{spec.scenario_id}",
        status=_status(monotone),
        measured={"factors": factors},
        tolerance={"ordering": "strictly decreasing in beta"},
        provenance="damping shrinks the fixed-point map's Lipschitz constant",
        details={"rows": rows},
    )


# -- time continuity --------------------------------------------------------

def run_time_shift_study(scenario_ids=("sin_decay", "stochastic_sinWT"),
                         taus=(0.2, 0.1, 0.05, 0.025),
                         slack: float = 0.2, alpha: float = 0.5,
                         num_steps: int = 200) -> VerdictBundle:
    """Shift-norm over sqrt(tau) must not grow as tau shrinks.

    The one-sided bound predicts shift_norm <= C sqrt(tau); the ratio is
    allowed a relative wobble of ``slack`` to absorb sampling noise.
    """
    from .scenarios import get_scenario

    bundle = VerdictBundle()
    for sid in scenario_ids:
        spec = get_scenario(sid)
        sol, coeffs, paths = spec.solve(
            time_grid=TimeGrid(spec.horizon, num_steps))
        rows = []
        for tau in taus:
            norm = time_shift_norm(sol, tau, alpha=alpha)
            rows.append({"tau": tau, "shift_norm": norm,
                         "ratio": norm / np.sqrt(tau)})
        ratios = [r["ratio"] for r in rows]
        ok = all(ratios[i + 1] <= ratios[i] * (1.0 + slack)
                 for i in range(len(ratios) - 1))
        bundle.add(Verdict(
            check_id=f"time_shift.sqrt_rate.{sid}",
            status=_status(ok),
            measured={"ratios": ratios},
            tolerance={"relative_growth": slack},
            provenance="square-root modulus of continuity in time",
            details={"rows": rows},
        ))
    return bundle


# -- scenario orchestration -------------------------------------------------

def run_scenario(spec, seed: int = None):
    """Run one catalog entry end to end.

    Returns (bundle, artifacts); artifacts maps file stems to either a
    SolutionField (exported as CSV) or a list of row dicts (exported as a
    plot-data CSV).
    """
    bundle = VerdictBundle()
    artifacts = {}
    if spec.kind == "solve":
        sol, coeffs, paths = spec.solve(seed=seed)
        artifacts["solution"] = sol
        if "residual" in spec.checks:
            bundle.add(run_residual_check(
                sol, coeffs, spec.residual_tolerance, paths=paths,
                check_id=f"residual.{spec.scenario_id}"))
        if "oracle" in spec.checks:
            bundle.add(run_oracle_check(spec, sol, paths))
        if "h_convergence" in spec.checks:
            v = run_convergence_study(spec.scenario_id, "h")
            bundle.add(v)
            artifacts["error_vs_h"] = v.details["rows"]
        if "time_shift" in spec.checks:
            sub = run_time_shift_study(scenario_ids=(spec.scenario_id,))
            bundle.extend(sub)
            artifacts["norm_vs_tau"] = sub.verdicts[0].details["rows"]
        if "picard" in spec.checks:
            hist = sol.info.get("history", [])
            factor = sol.info.get("contraction_factor")
            ok = factor is not None and factor < 1.0
            bundle.add(Verdict(
                check_id=f"picard.contraction.{spec.scenario_id}",
                status=_status(bool(ok)),
                measured={"contraction_factor": float(factor)
                          if factor is not None else float("nan"),
                          "iterations": len(hist)},
                tolerance={"contraction_factor": 1.0},
                provenance="successive-difference ratios of the iteration",
            ))
        if "localization" in spec.checks:
            from .solver import localize

            loc = localize(sol, coeffs, z=0.0, theta=2.0, paths=paths)
            cov = loc.covering
            bundle.add(Verdict(
                check_id=f"localization.covering.{spec.scenario_id}",
                status=_status(cov["slack"] >= -1e-9),
                measured={"slack": float(cov["slack"]),
                          "C": float(cov["C"]),
                          "localized_residual": float(loc.residual_rms)},
                tolerance={"slack": -1e-9},
                provenance="cutoff covering of the norm by windowed pieces",
            ))
    elif spec.scenario_id == "beta_sweep":
        v = run_convergence_study("beta_sweep", "beta")
        bundle.add(v)
        artifacts["contraction_vs_beta"] = v.details["rows"]
    elif spec.scenario_id == "kernel_suite":
        bundle.extend(run_kernel_suite())
    elif spec.scenario_id == "apriori_study":
        bundle.extend(run_apriori_study(
            scenario_ids=spec.extras.get("scenarios",
                                         ("sin_decay", "heat_quadratic"))))
    elif spec.scenario_id == "time_shift_sweep":
        sub = run_time_shift_study(
            scenario_ids=spec.extras.get("scenarios",
                                         ("sin_decay", "stochastic_sinWT")),
            taus=spec.extras.get("taus", (0.2, 0.1, 0.05, 0.025)))
        bundle.extend(sub)
        for v in sub.verdicts:
            sid = v.check_id.rsplit(".", 1)[-1]
            artifacts[f"norm_vs_tau_{sid}"] = v.details["rows"]
    else:
        raise InvalidArgument(f"no runner for scenario kind {spec.kind!r}")
    return bundle, artifacts
