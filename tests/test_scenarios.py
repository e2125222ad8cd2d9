import ast
import inspect
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erf

from bspdelab import verify
from bspdelab.errors import InvalidArgument
from bspdelab.grid import SpaceGrid, TimeGrid
from bspdelab.kernel import DiffusionCoefficient
from bspdelab.scenarios import (
    CATALOG,
    _SOLVE_CHECKS,
    finite_difference_oracle,
    get_scenario,
    list_scenarios,
)
from bspdelab.solver import CoefficientSet, _degenerate_paths, _trusted_mask
from bspdelab.stochastic import DataFunctional, SpaceFactor

REQUIRED_IDS = {
    "heat_smoke", "heat_quadratic", "sin_decay", "stochastic_sinWT",
    "variable_a_sin", "transport_decay", "semilinear_mode", "beta_sweep",
    "kernel_suite", "apriori_study", "time_shift_sweep",
}

# The route `solve` picks for each solve scenario (SolutionField.provenance).
ROUTES = {
    "heat_smoke": "representation",
    "heat_quadratic": "representation",
    "sin_decay": "representation",
    "constant_source": "representation",
    "abs_kink": "representation",
    "stochastic_sinWT": "representation",
    "transport_decay": "frozen-picard",
    "variable_a_sin": "frozen-picard",
    "semilinear_mode": "semilinear-picard",
}


class TestCatalog:
    def test_required_ids_present(self):
        assert REQUIRED_IDS <= set(CATALOG)

    def test_list_is_sorted(self):
        ids = [s.scenario_id for s in list_scenarios()]
        assert ids == sorted(ids)

    def test_unknown_id_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown scenario"):
            get_scenario("no_such_thing")

    def test_every_entry_has_provenance_and_description(self):
        for spec in list_scenarios():
            assert spec.provenance.strip()
            assert spec.description.strip()
            assert spec.kind in ("solve", "study")

    def test_every_catalog_check_is_dispatched(self):
        # a misspelt check would flip the derived kind; read the names
        # run_scenario compares ``check`` with, without running anything
        tree = ast.parse(textwrap.dedent(inspect.getsource(verify.run_scenario)))
        known = {node.comparators[0].value for node in ast.walk(tree)
                 if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                 and node.left.id == "check"
                 and isinstance(node.comparators[0], ast.Constant)}
        assert set(_SOLVE_CHECKS) <= known
        for spec in list_scenarios():
            assert set(spec.checks) <= known, (spec.scenario_id, spec.checks)

    def test_solve_scenarios_have_builders(self):
        for spec in list_scenarios():
            if spec.kind == "solve":
                coeffs = spec.build_coeffs()
                assert coeffs.lam > 0


class TestSolveDispatch:
    def test_heat_smoke_solves(self):
        spec = get_scenario("heat_smoke")
        sol, coeffs, paths = spec.solve()
        assert paths is None
        u_exact, _ = spec.oracle(spec, sol, paths)
        m = sol.trusted
        assert np.max(np.abs(sol.u_dense(0)[0][:, m] - u_exact[:, m])) \
            < spec.sup_tolerance

    def test_grid_overrides_flow_through(self):
        spec = get_scenario("heat_smoke")
        sol, _, _ = spec.solve(time_grid=TimeGrid(1.0, 10),
                               space_grid=SpaceGrid(1, 10.0, 65))
        assert len(sol.time_grid) == 11
        assert sol.space_grid.points_per_axis == 65

    def test_stochastic_paths_follow_time_grid(self):
        spec = get_scenario("stochastic_sinWT")
        sol, coeffs, paths = spec.solve(num_paths=64,
                                        time_grid=TimeGrid(1.0, 40))
        assert paths.num_paths == 64
        assert paths.paths.shape[1] == 41

    @pytest.mark.parametrize("sid, route", sorted(ROUTES.items()))
    def test_route_table(self, sid, route):
        spec = get_scenario(sid)
        sol, _, _ = spec.solve(num_paths=8, time_grid=TimeGrid(1.0, 10),
                               space_grid=SpaceGrid(1, spec.radius, 65))
        assert sol.provenance == route

    def test_route_table_covers_every_solve_scenario(self):
        assert {s.scenario_id for s in list_scenarios() if s.kind == "solve"} == set(ROUTES)

    def test_seed_controls_ensemble(self):
        spec = get_scenario("stochastic_sinWT")
        a = spec.paths(seed=1, num_paths=8)
        b = spec.paths(seed=1, num_paths=8)
        c = spec.paths(seed=2, num_paths=8)
        assert np.array_equal(a.increments, b.increments)
        assert not np.array_equal(a.increments, c.increments)


class TestFiniteDifferenceOracle:
    def test_matches_closed_form_on_constant_a(self):
        # independent check of the oracle itself against sin decay
        spec = get_scenario("sin_decay")
        tg = TimeGrid(1.0, 50)
        sg = SpaceGrid(1, 7.0, 129)
        u = finite_difference_oracle(spec.build_coeffs(), tg, sg)
        exact = np.exp(-(1.0 - tg.nodes)[:, None] / 2.0) * np.sin(sg.axis)[None, :]
        core = np.abs(sg.axis) <= 2.0
        assert np.max(np.abs(u[:, core] - exact[:, core])) < 1e-3

    def test_terminal_row_is_exact(self):
        spec = get_scenario("variable_a_sin")
        tg = TimeGrid(1.0, 10)
        sg = SpaceGrid(1, 12.0, 65)
        u = finite_difference_oracle(spec.build_coeffs(), tg, sg)
        assert np.allclose(u[-1], np.sin(sg.axis), atol=1e-12)

    # closed forms for the b, c and forcing terms, on a K = 50, J = 129 lattice
    FD_TG = TimeGrid(1.0, 50)
    FD_SG = SpaceGrid(1, 10.0, 129)

    def fd_error(self, coeffs, exact):
        u = finite_difference_oracle(coeffs, self.FD_TG, self.FD_SG)
        t, x = self.FD_TG.nodes[:, None], self.FD_SG.axis
        core = np.abs(x) <= 2.0
        return np.max(np.abs(u - exact(t, x[None, :]))[:, core])

    def test_drift_term_matches_characteristics(self):
        # b = 1: u = e^{-(T-t)} sin(x + T - t)
        coeffs = get_scenario("transport_decay").build_coeffs()
        err = self.fd_error(coeffs, lambda t, x: np.exp(-(1.0 - t)) * np.sin(x + 1.0 - t))
        assert err < 1e-4

    def test_forcing_term_integrates(self):
        # f = 1, zero terminal: u = T - t, exact up to round-off
        coeffs = get_scenario("constant_source").build_coeffs()
        assert self.fd_error(coeffs, lambda t, x: (1.0 - t) + 0.0 * x) < 1e-12

    def test_zeroth_order_term_decays(self):
        # a = 1, c = -1, sine terminal: u = e^{-2(T-t)} sin x
        coeffs = CoefficientSet(terminal=DataFunctional.deterministic(SpaceFactor.sine()),
                                diffusion=DiffusionCoefficient.isotropic(1.0),
                                c_fn=lambda t, x: -1.0)
        err = self.fd_error(coeffs, lambda t, x: np.exp(-2.0 * (1.0 - t)) * np.sin(x))
        assert err < 2e-4

    @staticmethod
    def per_sub_step(coeffs, tgrid, grid):
        # the oracle's stepping with a, b and c read on every sub-step
        J_f = 4 * (grid.points_per_axis - 1) + 1
        x = np.linspace(-grid.radius, grid.radius, J_f)
        h = x[1] - x[0]
        sub = max(1, int(np.ceil(tgrid.dt / (0.4 * h**2 / (2.0 * coeffs.Lam)))))
        delta = tgrid.dt / sub
        u = coeffs.terminal.terminal_values(_degenerate_paths(tgrid), x)[0].copy()
        forcing = coeffs.forcing.dense(_degenerate_paths(tgrid), x)[0]
        out = np.empty((len(tgrid), grid.points_per_axis))
        out[-1] = u[::4]
        t = tgrid.horizon
        for k in range(tgrid.num_steps - 1, -1, -1):
            for _ in range(sub):
                lap = np.empty_like(u)
                lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
                lap[0], lap[-1] = lap[1], lap[-2]
                grad = np.empty_like(u)
                grad[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
                grad[0], grad[-1] = grad[1], grad[-2]
                rhs = coeffs.a_values(t, x) * lap
                rhs += np.asarray(coeffs.b_fn(t, x)) * grad
                rhs += np.asarray(coeffs.c_fn(t, x)) * u
                rhs += forcing[k]
                u = u + delta * rhs
                t -= delta
            t = tgrid.nodes[k]
            out[k] = u[::4]
        return out

    @pytest.mark.parametrize("space_invariant", [False, True])
    def test_equals_per_sub_step_loop_with_t_dependent_data(self, space_invariant):
        calls = {"a": 0, "b": 0, "c": 0}

        def counted(name, fn):
            def wrapped(t, x):
                calls[name] += 1
                return fn(t, x)
            return wrapped

        if space_invariant:
            data = dict(diffusion=DiffusionCoefficient.time_scaled(
                lambda t: 0.8 + 0.3 * np.sin(2.0 * t), lam=0.5, Lam=1.1))
        else:
            data = dict(a_fn=counted("a", lambda t, x: 0.8 + 0.2 * np.cos(t) * np.sin(x)),
                        lam=0.6, Lam=1.0)
        coeffs = CoefficientSet(
            terminal=DataFunctional.deterministic(SpaceFactor.sine()),
            b_fn=counted("b", lambda t, x: 0.5 * np.sin(3.0 * t) + 0.0 * x),
            c_fn=counted("c", lambda t, x: -np.exp(-t) * np.cos(x)),
            forcing=DataFunctional.deterministic(SpaceFactor.sine(phase=0.5 * np.pi)),
            **data)
        tgrid, grid = TimeGrid(1.0, 6), SpaceGrid(1, 6.0, 33)
        u = finite_difference_oracle(coeffs, tgrid, grid)
        assert calls == {"a": 0 if space_invariant else 6, "b": 6, "c": 6}
        assert np.array_equal(u, self.per_sub_step(coeffs, tgrid, grid))

    @pytest.mark.parametrize("sid", ["heat_smoke", "heat_quadratic", "sin_decay",
                                     "constant_source", "transport_decay",
                                     "semilinear_mode", "abs_kink"])
    def test_agrees_with_the_closed_form_oracle(self, sid):
        # the two oracles check each other on the scenario's own grids
        spec = get_scenario(sid)
        coeffs, tgrid, grid = spec.build_coeffs(), spec.time_grid(), spec.space_grid()
        exact, _ = spec.oracle(spec, SimpleNamespace(time_grid=tgrid, space_grid=grid), None)
        fd = finite_difference_oracle(coeffs, tgrid, grid)
        trusted = _trusted_mask(grid, coeffs.Lam, tgrid.horizon)
        assert np.max(np.abs(fd - exact)[:, trusted]) <= 1e-3

    def test_rejects_2d(self):
        spec = get_scenario("sin_decay")
        with pytest.raises(InvalidArgument):
            finite_difference_oracle(spec.build_coeffs(), TimeGrid(1.0, 10),
                                     SpaceGrid(2, 5.0, 33))


class TestOracles:
    @pytest.mark.parametrize("sid", ["heat_quadratic", "sin_decay",
                                     "transport_decay", "constant_source",
                                     "abs_kink"])
    def test_oracle_shape_matches_grid(self, sid):
        spec = get_scenario(sid)
        sol, coeffs, paths = spec.solve(time_grid=TimeGrid(1.0, 10),
                                        space_grid=SpaceGrid(1, spec.radius, 65))
        u_exact, v_exact = spec.oracle(spec, sol, paths)
        assert u_exact.shape == (11, 65)

    def test_abs_kink_terminal_row(self):
        spec = get_scenario("abs_kink")
        sol, _, _ = spec.solve(time_grid=TimeGrid(1.0, 10),
                               space_grid=SpaceGrid(1, spec.radius, 65))
        u_exact, _ = spec.oracle(spec, sol, None)
        assert np.allclose(u_exact[-1], np.abs(sol.space_grid.axis))

    @pytest.mark.parametrize("points", [65, 129, 257, 513])
    def test_abs_kink_oracle_matches_scipy_erf(self, points):
        spec = get_scenario("abs_kink")
        sol, _, _ = spec.solve(space_grid=SpaceGrid(1, spec.radius, points))
        u_exact, _ = spec.oracle(spec, sol, None)
        t, x = sol.time_grid.nodes[:, None], sol.space_grid.axis
        s = np.sqrt(2.0 * np.maximum(spec.horizon - t, 1e-300))
        ref = x * erf(x / (s * np.sqrt(2.0))) \
            + s * np.sqrt(2.0 / np.pi) * np.exp(-x**2 / (2.0 * s**2))
        ref[-1] = np.abs(x)
        assert np.max(np.abs(u_exact - ref)) <= 1e-15

    def test_stochastic_oracle_uses_paths(self):
        spec = get_scenario("stochastic_sinWT")
        sol, coeffs, paths = spec.solve(num_paths=16,
                                        time_grid=TimeGrid(1.0, 20),
                                        space_grid=SpaceGrid(1, 7.0, 65))
        u_exact, v_exact = spec.oracle(spec, sol, paths)
        assert u_exact.shape == (16, 21, 65)
        assert np.allclose(u_exact[:, 0], 0.0)  # W_0 = 0
        assert v_exact.shape == (21, 65)
