import numpy as np
import pytest

from bspdelab.errors import (
    InvalidArgument,
    UnsupportedClosedForm,
)
from bspdelab.grid import TimeGrid
from bspdelab.stochastic import (
    BM,
    BM_SQUARED,
    CONST,
    EXP_MART,
    DataFunctional,
    PathEnsemble,
    PathFactor,
    SpaceFactor,
    backward_defect,
    bsde_residual,
    product_dense,
    sample_paths,
    solve_bsde_closed,
    solve_bsde_regression,
    solve_second_family,
)

GRID = TimeGrid(1.0, 50)


@pytest.fixture(scope="module")
def paths():
    return sample_paths(10_000, 1, GRID, seed=42)


class TestPathEnsemble:
    def test_reproducible(self):
        a = sample_paths(3, 2, GRID, seed=7)
        b = sample_paths(3, 2, GRID, seed=7)
        assert np.array_equal(a.increments, b.increments)

    def test_starts_at_zero(self, paths):
        assert np.all(paths.paths[:, 0, :] == 0.0)

    def test_increment_statistics(self, paths):
        inc = paths.increments[:, :, 0]
        dt = GRID.dt
        assert np.all(np.abs(inc.mean(axis=0)) <= 4.0 * np.sqrt(dt / paths.num_paths))
        var = inc.var(axis=0)
        assert np.all(var > 0.9 * dt) and np.all(var < 1.1 * dt)

    def test_binary_roundtrip(self, tmp_path):
        e = sample_paths(5, 2, GRID, seed=9)
        f = tmp_path / "paths.bin"
        e.save(f)
        back = PathEnsemble.load(f, time_grid=GRID)
        assert back.seed == 9
        assert np.array_equal(back.increments, e.increments)

    def test_bad_file_rejected(self, tmp_path):
        f = tmp_path / "junk.bin"
        f.write_bytes(b"nope" + b"\0" * 64)
        with pytest.raises(InvalidArgument):
            PathEnsemble.load(f, time_grid=GRID)


class TestProductDense:
    SERIES = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])  # (M, K+1)

    def test_one_row_series_shared_by_every_path(self):
        prof = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 3.0]])  # (K+1, J)
        out = product_dense([(np.array([[1.0, 2.0, 3.0]]), prof)], (4, 3, 2))
        for m in range(4):
            assert np.array_equal(out[m], np.array([1.0, 2.0, 3.0])[:, None] * prof)

    def test_path_idx_selects_rows(self):
        prof = np.array([0.5, 2.0])
        both = [(self.SERIES, prof), (self.SERIES**2, prof)]
        full = product_dense(both, (3, 3, 2))
        picked = product_dense(both, (2, 3, 2), path_idx=np.array([2, 0]))
        assert np.array_equal(picked, full[[2, 0]])

    def test_flat_profile_is_constant_in_time(self):
        flat = np.array([0.5, 2.0, -1.0])
        out_flat = product_dense([(self.SERIES, flat)], (3, 3, 3))
        out_full = product_dense([(self.SERIES, np.tile(flat, (3, 1)))], (3, 3, 3))
        assert np.array_equal(out_flat, out_full)
        assert np.array_equal(out_flat[1, 2], 6.0 * flat)


class TestBackwardDefect:
    def test_exact_product_pair_has_zero_defect(self):
        # u = W_t h(x), v = h(x): u = Phi - int v dW exactly, with no drift
        grid = TimeGrid(1.0, 20)
        e = sample_paths(6, 1, grid, seed=3)
        h = np.array([0.5, -1.0, 2.0])
        W = e.paths[:, :, 0]
        u = W[:, :, None] * h
        v = np.broadcast_to(h, u.shape)
        d = backward_defect(u, u[:, -1], np.zeros_like(u), grid.dt, [v], e.increments)
        assert np.abs(d).max() < 1e-12

    def test_trapezoid_is_exact_on_affine_time_profile(self):
        # u = (T - t) h(x) solves du/dt = -h, i.e. drift h, with zero terminal
        grid = TimeGrid(1.0, 20)
        h = np.array([1.0, -0.3])
        u = (1.0 - grid.nodes)[None, :, None] * h
        drift = np.broadcast_to(h, u.shape)
        d = backward_defect(u, np.zeros((1, 2)), drift, grid.dt)
        assert np.abs(d).max() < 1e-12


class TestClosedForms:
    def test_deterministic_terminal(self, paths):
        data = DataFunctional.deterministic(SpaceFactor.sine())
        sol = solve_bsde_closed(data, [0.0], paths)
        x = np.array([0.3])
        assert np.allclose(sol.phi_dense(x), np.sin(0.3))
        assert np.allclose(sol.psi_dense(0, x), 0.0)
        assert sol.residual_rms < 1e-12

    def test_sin_times_wt(self, paths):
        data = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),))
        sol = solve_bsde_closed(data, [0.0], paths)
        x = np.array([0.5, 1.2])
        W = paths.paths[:, :, 0]
        assert np.allclose(sol.phi_dense(x), W[:, :, None] * np.sin(x)[None, None, :])
        assert np.allclose(sol.psi_dense(0, x), np.sin(x)[None, None, :] * np.ones_like(W)[:, :, None])
        assert sol.residual_rms < 1e-12

    def test_drifted_bm(self, paths):
        h = SpaceFactor.constant(1.0)
        data = DataFunctional(terms=((h, PathFactor(BM)),))
        s0 = 0.7
        sol = solve_bsde_closed(data, [s0], paths)
        x = np.array([0.0])
        expect = paths.paths[:, :, 0] + s0 * (GRID.horizon - GRID.nodes)[None, :]
        assert np.allclose(sol.phi_dense(x)[:, :, 0], expect)
        assert sol.residual_rms < 1e-12

    def test_bm_squared_ito(self, paths):
        data = DataFunctional(terms=((SpaceFactor.constant(1.0), PathFactor(BM_SQUARED)),))
        sol = solve_bsde_closed(data, [0.0], paths)
        x = np.array([0.0])
        W = paths.paths[:, :, 0]
        rem = GRID.horizon - GRID.nodes
        assert np.allclose(sol.phi_dense(x)[:, :, 0], W**2 + rem[None, :])
        assert np.allclose(sol.psi_dense(0, x)[:, :, 0], 2.0 * W)
        # quadratic-variation residual is O(sqrt(dt)), not zero
        assert sol.residual_rms < 5.0 / np.sqrt(GRID.num_steps)

    def test_exp_martingale(self, paths):
        th = 0.5
        data = DataFunctional(
            terms=((SpaceFactor.constant(1.0), PathFactor(EXP_MART, theta=(th,))),)
        )
        sol = solve_bsde_closed(data, [0.0], paths)
        W = paths.paths[:, :, 0]
        expect = np.exp(th * W - 0.5 * th**2 * GRID.nodes[None, :])
        assert np.allclose(sol.phi_dense([0.0])[:, :, 0], expect)
        psi = sol.psi_dense(0, [0.0])[:, :, 0]
        assert np.allclose(psi, th * expect)

    def test_zero_terminal(self, paths):
        data = DataFunctional(terms=())
        sol = solve_bsde_closed(data, [0.0], paths)
        assert sol.phi_terms == []

    def test_linearity(self, paths):
        d1 = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),))
        d2 = DataFunctional.deterministic(SpaceFactor.poly([0.0, 1.0]))
        both = DataFunctional(terms=d1.terms + d2.terms)
        x = np.array([0.4, -0.9])
        s1 = solve_bsde_closed(d1, [0.0], paths)
        s2 = solve_bsde_closed(d2, [0.0], paths)
        s12 = solve_bsde_closed(both, [0.0], paths)
        assert np.allclose(s12.phi_dense(x), s1.phi_dense(x) + s2.phi_dense(x))

    def test_time_varying_sigma_rejected(self, paths):
        data = DataFunctional.deterministic(SpaceFactor.sine())
        with pytest.raises(UnsupportedClosedForm):
            solve_bsde_closed(data, np.zeros((3, 1)), paths)

    def test_terminal_condition_exact(self, paths):
        data = DataFunctional(
            terms=(
                (SpaceFactor.sine(), PathFactor(BM)),
                (SpaceFactor.poly([1.0, 0.0, 0.5]), PathFactor(CONST)),
            )
        )
        sol = solve_bsde_closed(data, [0.3], paths)
        x = np.array([-0.5, 0.1, 2.0])
        assert np.allclose(sol.phi_dense(x)[:, -1, :], data.terminal_values(paths, x))


class TestSecondFamily:
    def test_deterministic_forcing(self, paths):
        data = DataFunctional.deterministic(SpaceFactor.sine())
        fam = solve_second_family(data, [0.0], paths)
        x = np.array([0.2])
        for tau in (0.3, 0.8):
            y = fam.y_dense(tau, x)
            assert np.allclose(y, np.sin(0.2))
            assert np.allclose(fam.g_dense(0, tau, x), 0.0)

    def test_bm_forcing_terminal_identity(self, paths):
        data = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),))
        fam = solve_second_family(data, [0.0], paths)
        x = np.array([0.4])
        W = paths.paths[:, :, 0]
        for k in (10, 25, 49):
            tau = GRID.nodes[k]
            y = fam.y_dense(tau, x)
            # Y(t; tau) = sin(x) W_t for t <= tau; at t = tau equals f(tau, x)
            assert np.allclose(y[:, k, 0], np.sin(0.4) * W[:, k])
            assert np.allclose(y[:, : k + 1, 0], np.sin(0.4) * W[:, : k + 1])
            g = fam.g_dense(0, tau, x)
            assert np.allclose(g[:, : k + 1, 0], np.sin(0.4))

    def test_drifted_bm_forcing(self, paths):
        s0 = 0.6
        data = DataFunctional(terms=((SpaceFactor.constant(1.0), PathFactor(BM)),))
        fam = solve_second_family(data, [s0], paths)
        W = paths.paths[:, :, 0]
        tau = GRID.nodes[30]
        y = fam.y_dense(tau, [0.0])[:, :, 0]
        expect = W + s0 * (tau - GRID.nodes)[None, :]
        assert np.allclose(y[:, :31], expect[:, :31])

    def test_bm_squared_forcing(self, paths):
        data = DataFunctional(terms=((SpaceFactor.constant(1.0), PathFactor(BM_SQUARED)),))
        fam = solve_second_family(data, [0.0], paths)
        W = paths.paths[:, :, 0]
        tau = GRID.nodes[20]
        y = fam.y_dense(tau, [0.0])[:, :, 0]
        expect = W**2 + (tau - GRID.nodes)[None, :]
        assert np.allclose(y[:, :21], expect[:, :21])


class TestRegression:
    def test_recovers_bm(self, paths):
        term = paths.paths[:, -1, 0]
        sol = solve_bsde_regression(term, [0.0], paths)
        W = paths.paths[:, :, 0]
        for k in (5, 25, 40):
            err_phi = sol.phi[:, k, 0] - W[:, k]
            assert np.sqrt(np.mean(err_phi**2)) < 0.05
            # psi carries the dW/dt regression noise, O(sqrt(basis/M)/sqrt(dt))
            err_psi = sol.psi[0, :, k, 0] - 1.0
            assert abs(err_psi.mean()) < 0.1
            assert np.sqrt(np.mean(err_psi**2)) < 0.5

    def test_deterministic_terminal_gives_zero_psi(self, paths):
        sol = solve_bsde_regression(np.full(paths.num_paths, 2.5), [0.0], paths)
        assert np.allclose(sol.phi[:, 0, 0], 2.5, atol=1e-6)
        # the true psi is 0; the estimate is pure regression noise
        assert np.sqrt(np.mean(sol.psi**2)) < 0.5
        assert abs(sol.psi.mean()) < 0.05

    def test_recovers_bm_squared(self, paths):
        term = paths.paths[:, -1, 0] ** 2
        sol = solve_bsde_regression(term, [0.0], paths)
        W = paths.paths[:, :, 0]
        rem = GRID.horizon - GRID.nodes
        k = 25
        closed_phi = W[:, k] ** 2 + rem[k]
        closed_psi = 2.0 * W[:, k]
        assert np.sqrt(np.mean((sol.phi[:, k, 0] - closed_phi) ** 2)) < 0.1
        err_psi = sol.psi[0, :, k, 0] - closed_psi
        assert abs(err_psi.mean()) < 0.25
        assert np.sqrt(np.mean(err_psi**2)) < 1.0

    def test_condition_numbers_reported(self, paths):
        sol = solve_bsde_regression(paths.paths[:, -1, 0], [0.0], paths)
        assert np.all(sol.condition_numbers > 0)


class TestResidualOracle:
    def test_residual_flags_corruption(self, paths):
        data = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),))
        sol = solve_bsde_closed(data, [0.0], paths)
        from bspdelab.stochastic import TermSeries

        sol.phi_terms.append(
            TermSeries(SpaceFactor.constant(1.0), 0.1 * np.ones_like(sol.phi_terms[0].series))
        )
        rms, worst = bsde_residual(sol, data, [0.0], paths)
        assert rms > 0.01
