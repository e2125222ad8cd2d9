"""Bundled scenario catalog: problem data, grids, oracles, tolerances.

Each scenario packages a CoefficientSet builder, default grids, an oracle
(closed form or finer-grid finite differences), and the certifications the
verify module should run on it.  Scenario ids are stable strings used by the
command-line front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erf

from .errors import InvalidArgument
from .grid import SpaceGrid, TimeGrid
from .kernel import DiffusionCoefficient
from .solver import CoefficientSet, SolverConfig, SolutionField, _degenerate_paths, solve
from .stochastic import BM, DataFunctional, PathFactor, SpaceFactor, sample_paths


@dataclass
class ScenarioSpec:
    """One runnable configuration with its oracle and tolerances."""

    scenario_id: str
    description: str
    provenance: str  # where the expected values come from
    kind: str  # "solve", "study"
    build_coeffs: Callable = None  # () -> CoefficientSet
    oracle: Callable = None  # (spec, solution, paths) -> (u_exact, v_exact or None)
    num_steps: int = 100
    points_per_axis: int = 257
    radius: float = 7.0
    horizon: float = 1.0
    num_paths: int = 0  # 0 means deterministic / path-free
    seed: int = 0
    beta: float = None
    sup_tolerance: float = 1e-3
    residual_tolerance: float = 5e-3
    checks: tuple = ("residual",)
    extras: dict = field(default_factory=dict)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.num_steps)

    def space_grid(self) -> SpaceGrid:
        return SpaceGrid(1, self.radius, self.points_per_axis)

    def config(self, **overrides) -> SolverConfig:
        kw = dict(time_grid=self.time_grid(), space_grid=self.space_grid(),
                  beta=self.beta)
        kw.update(overrides)
        return SolverConfig(**kw)

    def paths(self, seed=None, num_paths=None, time_grid=None):
        if self.num_paths == 0:
            return None
        return sample_paths(num_paths or self.num_paths, 1,
                            time_grid or self.time_grid(),
                            seed=self.seed if seed is None else seed)

    def solve(self, seed=None, num_paths=None, **config_overrides):
        coeffs = self.build_coeffs()
        cfg = self.config(**config_overrides)
        paths = self.paths(seed=seed, num_paths=num_paths,
                           time_grid=cfg.time_grid)
        return solve(coeffs, paths, cfg), coeffs, paths


# -- oracles ----------------------------------------------------------------

def _grids(spec: ScenarioSpec, sol: SolutionField):
    return sol.time_grid.nodes, sol.space_grid.axis


def oracle_sin_decay(spec, sol, paths):
    t, x = _grids(spec, sol)
    T = spec.horizon
    return np.exp(-(T - t)[:, None] / 2.0) * np.sin(x)[None, :], None


def oracle_heat_smoke(spec, sol, paths):
    t, x = _grids(spec, sol)
    T = spec.horizon
    return np.exp(-(T - t)[:, None]) * np.sin(x)[None, :], None


def oracle_heat_quadratic(spec, sol, paths):
    t, x = _grids(spec, sol)
    T = spec.horizon
    return x[None, :] ** 2 + 2.0 * (T - t)[:, None], None


def oracle_transport_decay(spec, sol, paths):
    t, x = _grids(spec, sol)
    T = spec.horizon
    return np.exp(-(T - t))[:, None] * np.sin(x[None, :] + (T - t)[:, None]), None


def oracle_semilinear_mode(spec, sol, paths):
    t, x = _grids(spec, sol)
    T = spec.horizon
    return np.exp(-1.5 * (T - t))[:, None] * np.sin(x)[None, :], None


def oracle_stochastic_sinWT(spec, sol, paths):
    t, x = _grids(spec, sol)
    T = spec.horizon
    W = paths.paths[:, :, 0]
    amp = np.exp(-(T - t) / 2.0)
    u = W[:, :, None] * amp[None, :, None] * np.sin(x)[None, None, :]
    v = amp[:, None] * np.sin(x)[None, :]
    return u, v


def oracle_abs_kink(spec, sol, paths):
    """Heat smoothing of |x| with a = 1: Gaussian mean-absolute-value formula."""
    t, x = _grids(spec, sol)
    T = spec.horizon
    A = np.maximum(T - t, 1e-300)[:, None]
    s = np.sqrt(2.0 * A)
    u = x[None, :] * erf(x[None, :] / (s * np.sqrt(2.0))) \
        + s * np.sqrt(2.0 / np.pi) * np.exp(-x[None, :] ** 2 / (2.0 * s**2))
    u[t == T, :] = np.abs(x)[None, :]
    return u, None


def finite_difference_oracle(coeffs: CoefficientSet, tgrid: TimeGrid,
                             grid: SpaceGrid, refine: int = 4,
                             safety: float = 0.4) -> np.ndarray:
    """Independent method-of-lines solution on a ``refine`` x finer lattice.

    Explicit Euler stepping backward from the terminal condition, with the
    step chosen under the diffusion stability limit; returns u sampled on the
    scenario grid (the finer lattice shares every coarse node).  Boundary
    cells copy their neighbor (diffusion never reaches the comparison region
    over a unit horizon on these wide boxes).
    """
    if grid.dim != 1:
        raise InvalidArgument("the finite-difference oracle is 1-d")
    J_f = refine * (grid.points_per_axis - 1) + 1
    x = np.linspace(-grid.radius, grid.radius, J_f)
    h = x[1] - x[0]
    a_max = coeffs.Lam
    sub = max(1, int(np.ceil(tgrid.dt / (safety * h**2 / (2.0 * a_max)))))
    delta = tgrid.dt / sub

    u = coeffs.terminal.terminal_values(_degenerate_paths(tgrid), x)[0].copy()
    out = np.empty((len(tgrid), grid.points_per_axis))
    out[-1] = u[::refine]
    t = tgrid.horizon
    for k in range(tgrid.num_steps - 1, -1, -1):
        for _ in range(sub):
            lap = np.empty_like(u)
            lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
            lap[0] = lap[1]
            lap[-1] = lap[-2]
            rhs = coeffs.a_values(t, x) * lap
            if coeffs.b_fn is not None:
                grad = np.empty_like(u)
                grad[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
                grad[0] = grad[1]
                grad[-1] = grad[-2]
                rhs += np.asarray(coeffs.b_fn(t, x)) * grad
            if coeffs.c_fn is not None:
                rhs += np.asarray(coeffs.c_fn(t, x)) * u
            if coeffs.forcing is not None:
                rhs += coeffs.forcing.dense(_degenerate_paths(tgrid), x)[0, k]
            u = u + delta * rhs
            t -= delta
        t = tgrid.nodes[k]
        out[k] = u[::refine]
    return out


def oracle_variable_a(spec, sol, paths):
    u = finite_difference_oracle(spec.build_coeffs(), sol.time_grid, sol.space_grid)
    return u, None


# -- coefficient builders ---------------------------------------------------

def _sine_terminal():
    return DataFunctional.deterministic(SpaceFactor.sine())


def _coeffs_heat_smoke():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(1.0), label="heat_smoke")


def _coeffs_heat_quadratic():
    return CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 0, 1])),
                          diffusion=DiffusionCoefficient.isotropic(1.0),
                          label="heat_quadratic")


def _coeffs_sin_decay():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(0.5), label="sin_decay")


def _coeffs_constant_source():
    return CoefficientSet(
        terminal=DataFunctional.deterministic(SpaceFactor.constant(0.0)),
        diffusion=DiffusionCoefficient.isotropic(1.0),
        forcing=DataFunctional.deterministic(SpaceFactor.constant(1.0)),
        label="constant_source",
    )


def _coeffs_transport_decay():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(1.0),
                          b_fn=lambda t, x: 1.0, label="transport_decay")


def _coeffs_variable_a():
    return CoefficientSet(terminal=_sine_terminal(),
                          a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x),
                          lam=0.6, Lam=1.4, label="variable_a_sin")


def _coeffs_semilinear_mode():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(0.5),
                          driver=lambda t, x, q, u, v: -u, lipschitz=1.0,
                          label="semilinear_mode")


def _coeffs_beta_sweep():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(0.5),
                          driver=lambda t, x, q, u, v: 2.0 * u, lipschitz=2.0,
                          label="beta_sweep")


def _coeffs_stochastic_sinWT():
    return CoefficientSet(
        terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
        diffusion=DiffusionCoefficient.isotropic(0.5), sigma=(0.0,),
        label="stochastic_sinWT",
    )


def _coeffs_abs_kink():
    return CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.abs_value()),
                          diffusion=DiffusionCoefficient.isotropic(1.0), label="abs_kink")


# -- catalog ----------------------------------------------------------------

CATALOG = {}


def _register(spec: ScenarioSpec):
    CATALOG[spec.scenario_id] = spec
    return spec


_register(ScenarioSpec(
    scenario_id="heat_smoke",
    description="small heat solve with a sine terminal, fast sanity pass",
    provenance="closed form e^{-(T-t)} sin x",
    kind="solve",
    radius=10.0, build_coeffs=_coeffs_heat_smoke, oracle=oracle_heat_smoke,
    num_steps=20, points_per_axis=97, sup_tolerance=5e-3,
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="heat_quadratic",
    description="heat equation with quadratic terminal data",
    provenance="Gaussian second moment: u = x^2 + 2(T-t)",
    kind="solve",
    radius=10.0, build_coeffs=_coeffs_heat_quadratic, oracle=oracle_heat_quadratic,
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="sin_decay",
    description="half-strength diffusion with sine terminal",
    provenance="Gaussian characteristic function: u = e^{-(T-t)/2} sin x",
    kind="solve", build_coeffs=_coeffs_sin_decay, oracle=oracle_sin_decay,
    checks=("residual", "oracle", "time_shift"),
))

_register(ScenarioSpec(
    scenario_id="constant_source",
    description="zero terminal with unit forcing",
    provenance="constant source integrates: u = T - t",
    kind="solve",
    radius=10.0, build_coeffs=_coeffs_constant_source,
    oracle=lambda spec, sol, paths: (
        (spec.horizon - sol.time_grid.nodes)[:, None]
        * np.ones(sol.space_grid.points_per_axis)[None, :], None),
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="stochastic_sinWT",
    description="stochastic terminal sin(x) W_T, explicit representation",
    provenance="Ito substitution: u = W_t e^{-(T-t)/2} sin x, v = e^{-(T-t)/2} sin x",
    kind="solve", build_coeffs=_coeffs_stochastic_sinWT, oracle=oracle_stochastic_sinWT,
    num_paths=10_000, seed=42,
    checks=("residual", "oracle", "time_shift"),
))

_register(ScenarioSpec(
    scenario_id="variable_a_sin",
    description="space-dependent diffusion 1 + 0.4 sin x via frozen-reference iteration",
    provenance="method-of-lines finite differences at 4x finer grid",
    kind="solve",
    radius=12.0, build_coeffs=_coeffs_variable_a, oracle=oracle_variable_a,
    sup_tolerance=1e-2, checks=("residual", "oracle", "localization"),
))

_register(ScenarioSpec(
    scenario_id="transport_decay",
    description="unit drift with unit diffusion and sine terminal",
    provenance="characteristics: u = e^{-(T-t)} sin(x + T - t)",
    kind="solve",
    radius=10.0, build_coeffs=_coeffs_transport_decay, oracle=oracle_transport_decay,
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="semilinear_mode",
    description="driver f = -u on a sine mode, damped Picard",
    provenance="mode amplitude ODE: u = e^{-(3/2)(T-t)} sin x",
    kind="solve", build_coeffs=_coeffs_semilinear_mode, oracle=oracle_semilinear_mode,
    beta=8.0, checks=("residual", "oracle", "picard"),
))

_register(ScenarioSpec(
    scenario_id="abs_kink",
    description="terminal |x| for the spatial refinement study",
    provenance="Gaussian mean absolute value: x erf(x / (2 sqrt(T-t))) + tail term",
    kind="solve",
    radius=10.0, build_coeffs=_coeffs_abs_kink, oracle=oracle_abs_kink,
    sup_tolerance=5e-4, checks=("oracle", "h_convergence"),
    extras={"t_max": 0.5, "points_sweep": (65, 129, 257),
            "expected_order": 2.0, "order_window": 0.3},
))

_register(ScenarioSpec(
    scenario_id="beta_sweep",
    description="contraction factor of the damped Picard loop over beta in {0, 5, 20}",
    provenance="iteration history comparison",
    kind="study", build_coeffs=_coeffs_beta_sweep,
    extras={"betas": (0.0, 5.0, 20.0)},
    num_steps=50, points_per_axis=129, checks=("beta_sweep",),
))

_register(ScenarioSpec(
    scenario_id="kernel_suite",
    description="kernel normalization, identity, and estimate probes",
    provenance="kernel mass and Gaussian derivative formulas",
    kind="study", checks=("kernel",),
))

_register(ScenarioSpec(
    scenario_id="apriori_study",
    description="norm-ratio stability across grid refinement and data scaling",
    provenance="refinement study over K x J x kappa",
    kind="study", checks=("apriori",),
    extras={"scenarios": ("sin_decay", "heat_quadratic")},
))

_register(ScenarioSpec(
    scenario_id="time_shift_sweep",
    description="sqrt-rate of the time-shift norm on sin_decay and stochastic_sinWT",
    provenance="one-sided sqrt(tau) bound",
    kind="study", checks=("time_shift",),
    extras={"taus": (0.2, 0.1, 0.05, 0.025),
            "scenarios": ("sin_decay", "stochastic_sinWT")},
))


def get_scenario(scenario_id: str) -> ScenarioSpec:
    if scenario_id not in CATALOG:
        raise InvalidArgument(
            f"unknown scenario {scenario_id!r}; known: {sorted(CATALOG)}"
        )
    return CATALOG[scenario_id]


def list_scenarios():
    return [CATALOG[k] for k in sorted(CATALOG)]
