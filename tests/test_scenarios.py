import numpy as np
import pytest

from bspdelab.errors import InvalidArgument
from bspdelab.grid import SpaceGrid, TimeGrid
from bspdelab.scenarios import (
    CATALOG,
    finite_difference_oracle,
    get_scenario,
    list_scenarios,
)

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

    def test_stochastic_oracle_uses_paths(self):
        spec = get_scenario("stochastic_sinWT")
        sol, coeffs, paths = spec.solve(num_paths=16,
                                        time_grid=TimeGrid(1.0, 20),
                                        space_grid=SpaceGrid(1, 7.0, 65))
        u_exact, v_exact = spec.oracle(spec, sol, paths)
        assert u_exact.shape == (16, 21, 65)
        assert np.allclose(u_exact[:, 0], 0.0)  # W_0 = 0
        assert v_exact.shape == (21, 65)
