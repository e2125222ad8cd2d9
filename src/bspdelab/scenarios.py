"""Bundled scenario catalog: problem data, grids, oracles, tolerances.

Each scenario packages a CoefficientSet builder, default grids, an oracle
(closed form or finer-grid finite differences), and the certifications the
verify module should run on it.  Scenario ids are stable strings used by the
command-line front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgument
from .grid import SpaceGrid, TimeGrid
from .kernel import DiffusionCoefficient
from .solver import CoefficientSet, SolverConfig, SolutionField, _degenerate_paths, solve
from .stochastic import BM, DataFunctional, PathFactor, SpaceFactor, sample_paths


_SOLVE_CHECKS = ("residual", "oracle", "picard", "localization")  # checks that read the solve


@dataclass
class ScenarioSpec:
    """One runnable configuration with its oracle and tolerances."""

    scenario_id: str
    description: str
    provenance: str  # where the expected values come from
    build_coeffs: Callable = None  # () -> CoefficientSet
    # (spec, solution, paths) -> (u_exact, v_exact or None); a path-dependent
    # u_exact has one row per path of ``paths``, the sample it is compared on
    oracle: Callable = None
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

    @property
    def kind(self) -> str:
        """The kind: "solve" when a check reads the scenario's own solve, else "study"."""
        return "solve" if any(c in _SOLVE_CHECKS for c in self.checks) else "study"

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
        """The scenario's ensemble (None when it has no paths); its rows are
        drawn only when a check reads them."""
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

def _grids(sol: SolutionField):
    return sol.time_grid.nodes, sol.space_grid.axis


def _sine_mode_oracle(rate):
    """The oracle of a sine mode decaying at rate: u = e^{-rate (T - t)} sin x."""
    def oracle(spec, sol, paths):
        t, x = _grids(sol)
        T = spec.horizon
        return np.exp(-rate * (T - t))[:, None] * np.sin(x)[None, :], None
    return oracle


def oracle_heat_quadratic(spec, sol, paths):
    t, x = _grids(sol)
    T = spec.horizon
    return x[None, :] ** 2 + 2.0 * (T - t)[:, None], None


def oracle_transport_decay(spec, sol, paths):
    t, x = _grids(sol)
    T = spec.horizon
    return np.exp(-(T - t))[:, None] * np.sin(x[None, :] + (T - t)[:, None]), None


def oracle_stochastic_sinWT(spec, sol, paths):
    t, x = _grids(sol)
    T = spec.horizon
    W = paths.paths[:, :, 0]
    amp = np.exp(-(T - t) / 2.0)
    u = W[:, :, None] * amp[None, :, None] * np.sin(x)[None, None, :]
    v = amp[:, None] * np.sin(x)[None, :]
    return u, v


# math.erf keeps scipy off the run path; scipy.special.erf differs from it
# in the last bit only
_erf = np.vectorize(math.erf, otypes=[float])


def oracle_abs_kink(spec, sol, paths):
    """Heat smoothing of |x| with a = 1: Gaussian mean-absolute-value formula."""
    t, x = _grids(sol)
    T = spec.horizon
    A = np.maximum(T - t, 1e-300)[:, None]
    s = np.sqrt(2.0 * A)
    u = x[None, :] * _erf(x[None, :] / (s * np.sqrt(2.0))) \
        + s * np.sqrt(2.0 / np.pi) * np.exp(-x[None, :] ** 2 / (2.0 * s**2))
    u[t == T, :] = np.abs(x)[None, :]
    return u, None


_FD_REFINE = 4  # the oracle lattice is this many times finer than the scenario's
_FD_SAFETY = 0.4  # fraction of the explicit-Euler stability limit per sub-step


def finite_difference_oracle(coeffs: CoefficientSet, tgrid: TimeGrid,
                             grid: SpaceGrid) -> np.ndarray:
    """Independent method-of-lines solution on a 4x finer lattice.

    Explicit Euler stepping backward from the terminal condition, with the
    step chosen under the diffusion stability limit; returns u sampled on the
    scenario grid (the finer lattice shares every coarse node).  Boundary
    cells copy their neighbor (diffusion never reaches the comparison region
    over a unit horizon on these wide boxes).  a, b and c are sampled once
    per coarse step, on all of its sub-step times; a driver adds
    f(t, x, Du, u, 0) at each sub-step, with Du the central difference.
    """
    if grid.dim != 1:
        raise InvalidArgument("the finite-difference oracle is 1-d")
    J_f = _FD_REFINE * (grid.points_per_axis - 1) + 1
    x = np.linspace(-grid.radius, grid.radius, J_f)
    h = x[1] - x[0]
    a_max = coeffs.Lam
    sub = max(1, int(np.ceil(tgrid.dt / (_FD_SAFETY * h**2 / (2.0 * a_max)))))
    delta = tgrid.dt / sub

    u = coeffs.terminal.terminal_values(_degenerate_paths(tgrid), x)[0].copy()
    if coeffs.forcing is not None:
        forcing = coeffs.forcing.dense(_degenerate_paths(tgrid), x)[0]  # (K+1, J_f)
    out = np.empty((len(tgrid), grid.points_per_axis))
    out[-1] = u[::_FD_REFINE]
    t = tgrid.horizon
    for k in range(tgrid.num_steps - 1, -1, -1):
        times = []  # the sub-step times, stepped down from t_{k+1} by repeated subtraction
        for _ in range(sub):
            times.append(t)
            t -= delta
        a_rows, b_rows, c_rows = coeffs.sample(times, x)
        for i in range(sub):
            lap = np.empty_like(u)
            lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
            lap[0] = lap[1]
            lap[-1] = lap[-2]
            rhs = a_rows[i] * lap
            if b_rows is not None or coeffs.driver is not None:
                grad = np.empty_like(u)
                grad[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
                grad[0] = grad[1]
                grad[-1] = grad[-2]
            if b_rows is not None:
                rhs += b_rows[i] * grad
            if c_rows is not None:
                rhs += c_rows[i] * u
            if coeffs.forcing is not None:
                rhs += forcing[k]
            if coeffs.driver is not None:
                rhs += coeffs.driver(times[i], x, grad, u, 0.0)
            u = u + delta * rhs
        t = tgrid.nodes[k]
        out[k] = u[::_FD_REFINE]
    return out


def oracle_variable_a(spec, sol, paths):
    u = finite_difference_oracle(spec.build_coeffs(), sol.time_grid, sol.space_grid)
    return u, None


# -- coefficient builders ---------------------------------------------------

def _sine_terminal():
    return DataFunctional.deterministic(SpaceFactor.sine())


def _coeffs_heat_smoke():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(1.0))


def _coeffs_heat_quadratic():
    return CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.poly([0, 0, 1])),
                          diffusion=DiffusionCoefficient.isotropic(1.0))


def _coeffs_sin_decay():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(0.5))


def _coeffs_constant_source():
    return CoefficientSet(
        terminal=DataFunctional.deterministic(SpaceFactor.constant(0.0)),
        diffusion=DiffusionCoefficient.isotropic(1.0),
        forcing=DataFunctional.deterministic(SpaceFactor.constant(1.0)),
    )


def _coeffs_transport_decay():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(1.0),
                          b_fn=lambda t, x: 1.0)


def _coeffs_variable_a():
    return CoefficientSet(terminal=_sine_terminal(),
                          a_fn=lambda t, x: 1.0 + 0.4 * np.sin(x),
                          lam=0.6, Lam=1.4)


def _coeffs_semilinear_mode():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(0.5),
                          driver=lambda t, x, q, u, v: -u, lipschitz=1.0)


def _coeffs_beta_sweep():
    return CoefficientSet(terminal=_sine_terminal(),
                          diffusion=DiffusionCoefficient.isotropic(0.5),
                          driver=lambda t, x, q, u, v: 2.0 * u, lipschitz=2.0)


def _coeffs_stochastic_sinWT():
    return CoefficientSet(
        terminal=DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),)),
        diffusion=DiffusionCoefficient.isotropic(0.5), sigma=(0.0,),
    )


def _coeffs_abs_kink():
    return CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.abs_value()),
                          diffusion=DiffusionCoefficient.isotropic(1.0))


# -- catalog ----------------------------------------------------------------

CATALOG = {}


def _register(spec: ScenarioSpec):
    CATALOG[spec.scenario_id] = spec
    return spec


_register(ScenarioSpec(
    scenario_id="heat_smoke",
    description="small heat solve with a sine terminal, fast sanity pass",
    provenance="closed form e^{-(T-t)} sin x",
    radius=10.0, build_coeffs=_coeffs_heat_smoke, oracle=_sine_mode_oracle(1.0),
    num_steps=20, points_per_axis=97, sup_tolerance=5e-3,
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="heat_quadratic",
    description="heat equation with quadratic terminal data",
    provenance="Gaussian second moment: u = x^2 + 2(T-t)",
    radius=10.0, build_coeffs=_coeffs_heat_quadratic, oracle=oracle_heat_quadratic,
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="sin_decay",
    description="half-strength diffusion with sine terminal",
    provenance="Gaussian characteristic function: u = e^{-(T-t)/2} sin x",
    build_coeffs=_coeffs_sin_decay, oracle=_sine_mode_oracle(0.5),
    checks=("residual", "oracle", "time_shift"),
))

_register(ScenarioSpec(
    scenario_id="constant_source",
    description="zero terminal with unit forcing",
    provenance="constant source integrates: u = T - t",
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
    build_coeffs=_coeffs_stochastic_sinWT, oracle=oracle_stochastic_sinWT,
    num_paths=10_000, seed=42,
    checks=("residual", "oracle", "time_shift"),
))

_register(ScenarioSpec(
    scenario_id="variable_a_sin",
    description="space-dependent diffusion 1 + 0.4 sin x via frozen-reference iteration",
    provenance="method-of-lines finite differences at 4x finer grid",
    radius=12.0, build_coeffs=_coeffs_variable_a, oracle=oracle_variable_a,
    sup_tolerance=1e-2, checks=("residual", "oracle", "localization"),
))

_register(ScenarioSpec(
    scenario_id="transport_decay",
    description="unit drift with unit diffusion and sine terminal",
    provenance="characteristics: u = e^{-(T-t)} sin(x + T - t)",
    radius=10.0, build_coeffs=_coeffs_transport_decay, oracle=oracle_transport_decay,
    checks=("residual", "oracle"),
))

_register(ScenarioSpec(
    scenario_id="semilinear_mode",
    description="driver f = -u on a sine mode, damped Picard",
    provenance="mode amplitude ODE: u = e^{-(3/2)(T-t)} sin x",
    build_coeffs=_coeffs_semilinear_mode, oracle=_sine_mode_oracle(1.5),
    beta=8.0, checks=("residual", "oracle", "picard"),
))

_register(ScenarioSpec(
    scenario_id="abs_kink",
    description="terminal |x| for the spatial refinement study",
    provenance="Gaussian mean absolute value: x erf(x / (2 sqrt(T-t))) + tail term",
    radius=10.0, build_coeffs=_coeffs_abs_kink, oracle=oracle_abs_kink,
    sup_tolerance=5e-4, checks=("oracle", "h_convergence"),
    extras={"t_max": 0.5},
))

_register(ScenarioSpec(
    scenario_id="beta_sweep",
    description="contraction factor of the damped Picard loop over beta in {0, 5, 20}",
    provenance="iteration history comparison",
    build_coeffs=_coeffs_beta_sweep,
    num_steps=50, points_per_axis=129, checks=("beta_sweep",),
))

_register(ScenarioSpec(
    scenario_id="kernel_suite",
    description="kernel normalization, identity, and estimate probes",
    provenance="kernel mass and Gaussian derivative formulas",
    checks=("kernel",),
))

_register(ScenarioSpec(
    scenario_id="apriori_study",
    description="norm-ratio stability across grid refinement and data scaling",
    provenance="refinement study over K x J x kappa",
    checks=("apriori",),
    extras={"scenarios": ("sin_decay", "heat_quadratic")},
))

_register(ScenarioSpec(
    scenario_id="time_shift_sweep",
    description="sqrt-rate of the time-shift norm on sin_decay and stochastic_sinWT",
    provenance="one-sided sqrt(tau) bound",
    checks=("time_shift",),
    extras={"scenarios": ("sin_decay", "stochastic_sinWT")},
))


def get_scenario(scenario_id: str) -> ScenarioSpec:
    if scenario_id not in CATALOG:
        raise InvalidArgument(
            f"unknown scenario {scenario_id!r}; known: {sorted(CATALOG)}"
        )
    return CATALOG[scenario_id]


def list_scenarios():
    return [CATALOG[k] for k in sorted(CATALOG)]
