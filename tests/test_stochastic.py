import dataclasses
import json

import numpy as np
import pytest

from bspdelab import stochastic
from bspdelab.errors import UnsupportedClosedForm
from bspdelab.grid import SpaceGrid, TimeGrid
from bspdelab.kernel import DiffusionCoefficient
from bspdelab.scenarios import get_scenario
from bspdelab.solver import CoefficientSet, SolverConfig, solve
from bspdelab.stochastic import (
    BM,
    BM_SQUARED,
    CONST,
    EXP_MART,
    DataFunctional,
    PathFactor,
    SpaceFactor,
    TauSeries,
    backward_defect,
    product_dense,
    sample_paths,
    series_rows,
    solve_bsde_closed,
    solve_bsde_regression,
    solve_second_family,
)
from bspdelab.verify import run_scenario

GRID = TimeGrid(1.0, 50)


@pytest.fixture(scope="module")
def paths():
    return sample_paths(10_000, 1, GRID, seed=42)


class TestPathEnsemble:
    def test_reproducible(self):
        a = sample_paths(3, 2, GRID, seed=7)
        b = sample_paths(3, 2, GRID, seed=7)
        assert np.array_equal(a.increments, b.increments)

    @pytest.mark.parametrize("d", [1, 2])
    def test_small_draw_is_a_prefix_of_the_large_one(self, d):
        # a study that solves 64 paths solves the first 64 of the ensemble
        small = sample_paths(64, d, GRID, seed=42)
        large = sample_paths(10_000, d, GRID, seed=42)
        assert np.array_equal(small.increments, large.increments[:64])

    def test_starts_at_zero(self, paths):
        assert np.all(paths.paths[:, 0, :] == 0.0)

    def test_increment_statistics(self, paths):
        inc = paths.increments[:, :, 0]
        dt = GRID.dt
        assert np.all(np.abs(inc.mean(axis=0)) <= 4.0 * np.sqrt(dt / paths.num_paths))
        var = inc.var(axis=0)
        assert np.all(var > 0.9 * dt) and np.all(var < 1.1 * dt)

    def test_subset_keeps_rows_grid_and_seed(self, paths):
        idx = np.array([3, 0, 7])
        sub = paths.subset(idx)
        assert np.array_equal(sub.increments, paths.increments[idx])
        assert np.array_equal(sub.paths, paths.paths[idx])
        assert sub.time_grid is paths.time_grid and sub.seed == paths.seed

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_read_on_demand_are_the_rows_of_the_full_draw(self, seed, d, monkeypatch):
        M = 1100
        full = np.random.default_rng(seed).standard_normal((M, GRID.num_steps, d)) \
            * np.sqrt(GRID.dt)
        W = np.concatenate([np.zeros((M, 1, d)), np.cumsum(full, axis=1)], axis=1)
        drawn = _spy_draws(monkeypatch)
        ens = sample_paths(M, d, GRID, seed=seed)
        assert ens.num_paths == M and ens.dim == d and drawn == []
        # chunked prefix reads, then rows further out, sorted and not
        for rows in (slice(0, 16), slice(16, 32), np.arange(40), [700, 3, 513],
                     slice(600, 620), np.array([1099, 0, 512])):
            sub = ens.subset(rows)
            assert np.array_equal(sub.increments, full[rows])
            assert np.array_equal(sub.paths, W[rows])
        # each read draws only the rows past the prefix drawn before it
        assert drawn == [[16, 16, 8, 661, 399]]
        assert np.array_equal(ens.increments, full)
        assert np.array_equal(ens.paths, W)
        assert drawn == [[16, 16, 8, 661, 399]]

    def test_subset_draws_only_up_to_its_largest_row(self, monkeypatch):
        drawn = _spy_draws(monkeypatch)
        ens = sample_paths(10_000, 1, GRID, seed=42)
        ens.subset(np.array([63, 5]))
        ens.subset(slice(0, 32))
        assert drawn == [[64]]
        with pytest.raises(IndexError):
            ens.subset([10_000])

    def test_exp_martingale_exponent_of_a_subset_keeps_the_bits(self):
        # the matrix-vector product W @ theta at d = 2 is evaluated per path
        ens = sample_paths(1100, 2, GRID, seed=42)
        th = np.asarray(THETA_2D)
        full = ens.paths @ th
        for idx in (np.arange(16), np.array([1099, 3, 700, 512, 513])):
            assert np.array_equal(ens.subset(idx).paths @ th, full[idx])


def _spy_draws(monkeypatch):
    """Record the rows of each normal draw, one list per generator that draws."""
    real = np.random.default_rng
    drawn = []

    class Recording:
        def __init__(self, seed):
            self._rng, self._rows = real(seed), None

        def standard_normal(self, size):
            if self._rows is None:
                self._rows = []
                drawn.append(self._rows)
            self._rows.append(size[0])
            return self._rng.standard_normal(size)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return drawn


def test_scenario_draws_only_the_rows_its_checks_read(monkeypatch):
    # stochastic_sinWT declares 10^4 paths; the oracle reads the most, 512
    drawn = _spy_draws(monkeypatch)
    spec = get_scenario("stochastic_sinWT")
    bundle, artifacts = run_scenario(spec)
    assert bundle.all_passed
    assert spec.num_paths == 10_000 and drawn
    assert max(sum(rows) for rows in drawn) == 512
    summary = json.loads(artifacts["solution"].summary_json(0.0, 0.0))
    assert summary["num_paths"] == 10_000


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

    def test_layout_follows_the_profiles(self):
        rng = np.random.default_rng(4)
        series, prof = rng.standard_normal((5, 4)), rng.standard_normal((4, 9))
        cols = np.array([0, 0, 1, 1, 1, 1, 1, 0, 0], dtype=bool)
        # C-contiguous profiles give a C-ordered result
        assert product_dense([(series, prof)], (5, 4, 9)).flags.c_contiguous
        # column-sliced profiles give the layout of the column-sliced cube
        cube = product_dense([(series, prof)], (5, 4, 9))
        for idx in (None, np.array([4, 1])):
            got = product_dense([(series, prof[:, cols])], (5, 4, 5), path_idx=idx)
            ref = (cube if idx is None else cube[idx])[..., cols]
            assert np.array_equal(got, ref)
            assert got.strides == ref.strides

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
        assert closed_form_residual(sol, data, [0.0], paths)[0] < 1e-12

    def test_sin_times_wt(self, paths):
        data = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),))
        sol = solve_bsde_closed(data, [0.0], paths)
        x = np.array([0.5, 1.2])
        W = paths.paths[:, :, 0]
        assert np.allclose(sol.phi_dense(x), W[:, :, None] * np.sin(x)[None, None, :])
        assert np.allclose(sol.psi_dense(0, x), np.sin(x)[None, None, :] * np.ones_like(W)[:, :, None])
        assert closed_form_residual(sol, data, [0.0], paths)[0] < 1e-12

    def test_drifted_bm(self, paths):
        h = SpaceFactor.constant(1.0)
        data = DataFunctional(terms=((h, PathFactor(BM)),))
        s0 = 0.7
        sol = solve_bsde_closed(data, [s0], paths)
        x = np.array([0.0])
        expect = paths.paths[:, :, 0] + s0 * (GRID.horizon - GRID.nodes)[None, :]
        assert np.allclose(sol.phi_dense(x)[:, :, 0], expect)
        assert closed_form_residual(sol, data, [s0], paths)[0] < 1e-12

    def test_bm_squared_ito(self, paths):
        data = DataFunctional(terms=((SpaceFactor.constant(1.0), PathFactor(BM_SQUARED)),))
        sol = solve_bsde_closed(data, [0.0], paths)
        x = np.array([0.0])
        W = paths.paths[:, :, 0]
        rem = GRID.horizon - GRID.nodes
        assert np.allclose(sol.phi_dense(x)[:, :, 0], W**2 + rem[None, :])
        assert np.allclose(sol.psi_dense(0, x)[:, :, 0], 2.0 * W)
        # quadratic-variation residual is O(sqrt(dt)), not zero
        assert closed_form_residual(sol, data, [0.0], paths)[0] < 5.0 / np.sqrt(GRID.num_steps)

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
            y = fam.at(tau).phi_dense(x)
            assert np.allclose(y, np.sin(0.2))
            assert np.allclose(fam.at(tau).psi_dense(0, x), 0.0)

    def test_bm_forcing_terminal_identity(self, paths):
        data = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM)),))
        fam = solve_second_family(data, [0.0], paths)
        x = np.array([0.4])
        W = paths.paths[:, :, 0]
        for k in (10, 25, 49):
            tau = GRID.nodes[k]
            y = fam.at(tau).phi_dense(x)
            # Y(t; tau) = sin(x) W_t for t <= tau; at t = tau equals f(tau, x)
            assert np.allclose(y[:, k, 0], np.sin(0.4) * W[:, k])
            assert np.allclose(y[:, : k + 1, 0], np.sin(0.4) * W[:, : k + 1])
            g = fam.at(tau).psi_dense(0, x)
            assert np.allclose(g[:, : k + 1, 0], np.sin(0.4))

    def test_drifted_bm_forcing(self, paths):
        s0 = 0.6
        data = DataFunctional(terms=((SpaceFactor.constant(1.0), PathFactor(BM)),))
        fam = solve_second_family(data, [s0], paths)
        W = paths.paths[:, :, 0]
        tau = GRID.nodes[30]
        y = fam.at(tau).phi_dense([0.0])[:, :, 0]
        expect = W + s0 * (tau - GRID.nodes)[None, :]
        assert np.allclose(y[:, :31], expect[:, :31])

    def test_bm_squared_forcing(self, paths):
        data = DataFunctional(terms=((SpaceFactor.constant(1.0), PathFactor(BM_SQUARED)),))
        fam = solve_second_family(data, [0.0], paths)
        W = paths.paths[:, :, 0]
        tau = GRID.nodes[20]
        y = fam.at(tau).phi_dense([0.0])[:, :, 0]
        expect = W**2 + (tau - GRID.nodes)[None, :]
        assert np.allclose(y[:, :21], expect[:, :21])

    def test_path_constant_pieces_have_one_row(self):
        # every piece that is the same on every path is one shared row, and
        # the product form sums it out bit for bit as full-height rows
        paths = sample_paths(64, 1, GRID, seed=3)
        M, K1 = paths.num_paths, len(GRID)
        data = DataFunctional(terms=(
            (SpaceFactor.sine(), PathFactor(CONST)),
            (SpaceFactor.constant(1.0), PathFactor(BM)),
            (SpaceFactor.poly([0.5, 1.0]), PathFactor(BM_SQUARED)),
        ))
        fam = solve_second_family(data, [0.4], paths)
        pieces = fam.y_terms + fam.g_terms[0]
        rows = [len(series_rows(p.series, None)) for p in pieces]
        # constant: y; sigma-only: BM's y and g, BM^2's y and g
        assert rows.count(1) == 5 and rows.count(M) == len(pieces) - 5
        x = np.linspace(-2.0, 2.0, 9)
        for tau in (0.3, 1.0):
            member = fam.at(tau)
            for terms in (member.phi_terms, member.psi_terms[0]):
                one = [(t.series, t.space(x)) for t in terms]
                full = [(np.broadcast_to(series_rows(s, None), (M, K1)).copy(), h)
                        for s, h in one]
                for idx in (None, [5, 0, 63]):
                    assert np.array_equal(product_dense(one, (M, K1, len(x)), idx),
                                          product_dense(full, (M, K1, len(x)), idx))


SIGMA_2D = (0.3, -0.2)
THETA_2D = (0.5, 0.4)
FAMILY_TERMS = {
    "const": (SpaceFactor.poly([1.0, 0.0, 0.5]), PathFactor(CONST)),
    "bm": (SpaceFactor.sine(), PathFactor(BM, component=1)),
    "bm_squared": (SpaceFactor.sine(2.0, 0.3), PathFactor(BM_SQUARED, component=0)),
    "exp_mart": (SpaceFactor.poly([0.5, 1.0]), PathFactor(EXP_MART, theta=THETA_2D)),
}


class TestOneFamily:
    """Terminal data is the forcing family read at tau = T."""

    X = np.array([-1.3, 0.0, 0.4, 2.0])

    @pytest.fixture(scope="class")
    def paths2(self):
        return sample_paths(300, 2, GRID, seed=11)

    @pytest.mark.parametrize("kinds", [[k] for k in FAMILY_TERMS] + [list(FAMILY_TERMS)],
                             ids=list(FAMILY_TERMS) + ["all"])
    def test_terminal_member_matches_first_family_table(self, paths2, kinds):
        data = DataFunctional(terms=tuple(FAMILY_TERMS[k] for k in kinds))
        sol = solve_bsde_closed(data, SIGMA_2D, paths2)
        phi_ref, psi_ref = first_family_reference(data, SIGMA_2D, paths2, self.X)
        assert np.abs(sol.phi_dense(self.X) - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
        for l in range(2):
            err = np.abs(sol.psi_dense(l, self.X) - psi_ref[l]).max()
            assert err <= 1e-12 * np.abs(psi_ref[l]).max()

    @pytest.mark.parametrize("kind", ["const", "bm", "exp_mart"])
    def test_zero_sigma_keeps_the_table_bits(self, paths2, kind):
        # every catalog scenario has sigma = 0: one piece per term, same bits
        data = DataFunctional(terms=(FAMILY_TERMS[kind],))
        sol = solve_bsde_closed(data, (0.0, 0.0), paths2)
        phi_ref, psi_ref = first_family_reference(data, (0.0, 0.0), paths2, self.X)
        assert len(sol.phi_terms) == 1
        assert np.array_equal(sol.phi_dense(self.X), phi_ref)
        for l in range(2):
            assert np.array_equal(sol.psi_dense(l, self.X), psi_ref[l])

    def test_at_reads_every_terminal_time(self, paths2):
        data = DataFunctional(terms=tuple(FAMILY_TERMS.values()))
        fam = solve_second_family(data, SIGMA_2D, paths2)
        sol = fam.at(0.4)
        assert sol.time_grid is GRID and sol.num_paths == paths2.num_paths
        assert len(sol.phi_terms) == len(fam.y_terms)
        for t, piece in zip(sol.phi_terms, fam.y_terms):
            assert np.array_equal(series_rows(t.series, None),
                                  series_rows(piece.series, None) * piece.tau_fn(0.4))


def eager_second_family(data, sigma, paths):
    """The family as it was built before series were evaluated per path:
    every path-dependent piece an (M, K+1) array over the whole ensemble."""
    d = paths.dim
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    grid = paths.time_grid
    W = paths.paths
    ones = np.ones((1, len(grid)))
    one_fn = lambda tau: np.ones_like(tau, dtype=float)
    y_terms, g_terms = [], [[] for _ in range(d)]
    for h, p in data.terms:
        if p.kind == CONST:
            y_terms.append(TauSeries(h, ones.copy(), one_fn))
        elif p.kind == BM:
            l = p.component
            X = W[:, :, l] - sig[l] * grid.nodes[None, :]
            y_terms.append(TauSeries(h, X, one_fn))
            if sig[l] != 0.0:
                y_terms.append(TauSeries(h, ones.copy(), lambda tau, s=sig[l]: s * tau))
            g_terms[l].append(TauSeries(h, ones.copy(), one_fn))
        elif p.kind == BM_SQUARED:
            l = p.component
            X = W[:, :, l] - sig[l] * grid.nodes[None, :]
            y_terms.append(TauSeries(h, X**2 - grid.nodes[None, :], one_fn))
            y_terms.append(TauSeries(h, 2.0 * sig[l] * X + ones, lambda tau: tau))
            g_terms[l].append(TauSeries(h, 2.0 * X, one_fn))
            if sig[l] != 0.0:
                y_terms.append(TauSeries(h, ones.copy(),
                                         lambda tau, s=sig[l]: s**2 * np.float_power(tau, 2)))
                g_terms[l].append(TauSeries(h, ones.copy(), lambda tau, s=sig[l]: 2.0 * s * tau))
        else:
            th = np.asarray(p.theta, dtype=float)
            base = np.exp(W @ th - 0.5 * float(th @ th) * grid.nodes[None, :]
                          - float(th @ sig) * grid.nodes[None, :])
            efn = lambda tau, c=float(th @ sig): np.exp(c * tau)
            y_terms.append(TauSeries(h, base, efn))
            for l in range(d):
                if th[l] != 0.0:
                    g_terms[l].append(TauSeries(h, th[l] * base, efn))
    return y_terms, g_terms


class TestSeriesReadPerPath:
    """Series evaluated on the rows read have the bits of the eager family,
    and so does every dense field built from them."""

    M = 600  # past the 512 rows the largest check reads
    X = np.linspace(-2.0, 2.0, 9)
    PICKS = [np.arange(0, 40), np.array([599, 3, 512, 0, 513]), [5]]

    @pytest.fixture(scope="class")
    def paths2(self):
        return sample_paths(self.M, 2, GRID, seed=11)

    @staticmethod
    def _same(got, ref):
        assert np.array_equal(got, ref)
        assert got.strides == ref.strides

    @pytest.mark.parametrize("kind", list(FAMILY_TERMS) + ["all"])
    def test_phi_and_psi_match_the_eager_family(self, paths2, kind):
        kinds = list(FAMILY_TERMS) if kind == "all" else [kind]
        data = DataFunctional(terms=tuple(FAMILY_TERMS[k] for k in kinds))
        sol = solve_bsde_closed(data, SIGMA_2D, paths2)
        y_ref, g_ref = eager_second_family(data, SIGMA_2D, paths2)
        T = GRID.horizon
        shape = (self.M, len(GRID), len(self.X))
        fields = [(sol.phi_dense(self.X), sol.phi_terms, y_ref)]
        fields += [(sol.psi_dense(l, self.X), sol.psi_terms[l], g_ref[l]) for l in range(2)]
        for dense, terms, ref in fields:
            eager = [(t.series * t.tau_fn(T), t.space(self.X)) for t in ref]
            full = product_dense(eager, shape)
            self._same(dense, full)
            lazy = [(t.series, t.space(self.X)) for t in terms]
            for idx in self.PICKS:
                self._same(product_dense(lazy, shape, idx), full[idx])

    def test_constant_series_is_one_row_with_the_full_row_values(self, paths2):
        # constant data builds no (M, K+1) ones, and reads as the ones did
        h = SpaceFactor.poly([1.0, 0.0, 0.5])
        const = DataFunctional(terms=((h, PathFactor(CONST)),))
        assert PathFactor(CONST).series(paths2).shape == (1, len(GRID))
        ones = np.ones((self.M, len(GRID)))
        dense = product_dense([(ones, h(self.X))], (self.M, len(GRID), len(self.X)))
        terminal = product_dense([(ones[:, -1:], h(self.X))], (self.M, 1, len(self.X)))[:, 0]
        self._same(const.dense(paths2, self.X), dense)
        self._same(const.terminal_values(paths2, self.X), terminal)

    def test_solution_fields_match_the_eager_family(self, paths2):
        data = DataFunctional(terms=tuple(FAMILY_TERMS.values()))
        forcing = DataFunctional(terms=tuple(FAMILY_TERMS[k] for k in ("bm", "bm_squared")))
        co = CoefficientSet(terminal=data, forcing=forcing, sigma=SIGMA_2D,
                            diffusion=DiffusionCoefficient.isotropic(0.5))
        cfg = SolverConfig(time_grid=GRID, space_grid=SpaceGrid(1, 7.0, 65))
        sol = solve(co, paths2, cfg)
        # the parts are the terminal member's pieces, then the forcing family's
        y_t, g_t = eager_second_family(data, SIGMA_2D, paths2)
        y_f, g_f = eager_second_family(forcing, SIGMA_2D, paths2)
        at_T = [t.series * t.tau_fn(GRID.horizon) for t in y_t]
        u_series = at_T + [t.series for t in y_f]
        v_series = [[t.series * t.tau_fn(GRID.horizon) for t in g_t[l]]
                    + [t.series for t in g_f[l]] for l in range(2)]
        eager = dataclasses.replace(
            sol,
            u_parts=[dataclasses.replace(p, series=s) for p, s in zip(sol.u_parts, u_series,
                                                                      strict=True)],
            v_parts=[[dataclasses.replace(p, series=s) for p, s in zip(parts, v_series[l],
                                                                       strict=True)]
                     for l, parts in enumerate(sol.v_parts)])
        for lazy, ref in ((sol, eager), (sol.restrict(sol.trusted), eager.restrict(sol.trusted))):
            for idx in self.PICKS:
                for o in range(3):
                    self._same(lazy.u_dense(o, idx), ref.u_dense(o, idx))
                for l in range(2):
                    self._same(lazy.v_dense(l, 0, idx), ref.v_dense(l, 0, idx))


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
            TermSeries(SpaceFactor.constant(1.0),
                       0.1 * np.ones_like(series_rows(sol.phi_terms[0].series, None)))
        )
        rms, worst = closed_form_residual(sol, data, [0.0], paths)
        assert rms > 0.01

    def test_closed_form_does_not_certify_itself(self, paths, monkeypatch):
        # a scenario's solve is certified once, by the residual verdict
        def refuse(*a, **k):
            raise AssertionError("solve_bsde_closed measured its own defect")

        monkeypatch.setattr(stochastic, "backward_defect", refuse)
        data = DataFunctional(terms=((SpaceFactor.sine(), PathFactor(BM_SQUARED)),))
        sol = solve_bsde_closed(data, [0.3], paths)
        x = np.array([-1.0, 0.0, 0.7])
        phi_ref, _ = first_family_reference(data, [0.3], paths, x)
        assert np.abs(sol.phi_dense(x) - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()


def closed_form_residual(sol, data, sigma, paths, x=(-1.0, 0.0, 0.7)):
    """(rms, worst) defect of the backward integral form over every path at
    the sample points ``x``, scaled by 1 + max |Phi|."""
    x = np.asarray(x)
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    psi = [sol.psi_dense(l, x) for l in range(paths.dim)]
    terminal = data.terminal_values(paths, x)
    drift = np.einsum("l,lmkj->mkj", sig, np.asarray(psi))
    defect = backward_defect(sol.phi_dense(x), terminal, drift, paths.time_grid.dt,
                             psi, paths.increments)
    scale = 1.0 + np.abs(terminal).max()
    return (float(np.sqrt(np.mean(defect**2)) / scale),
            float(np.max(np.abs(defect)) / scale))


def first_family_reference(data, sigma, paths, x):
    """(phi, [psi_l]) on ``x`` from the former terminal-data table:
      1          -> (h, 0)
      W^l_T      -> (h (W^l_t + sigma_l (T - t)), psi_l = h)
      (W^l_T)^2  -> (h [(W^l_t + sigma_l (T-t))^2 + (T-t)],
                     psi_l = 2 h (W^l_t + sigma_l (T-t)))
      exp mart   -> (h E_t exp(...), psi_l = theta_l phi)"""
    sig = np.atleast_1d(np.asarray(sigma, dtype=float))
    grid = paths.time_grid
    W = paths.paths
    rem = grid.horizon - grid.nodes
    ones = np.ones((paths.num_paths, len(grid)))
    phi = []
    psi = [[] for _ in range(paths.dim)]
    for h, p in data.terms:
        hx = h(x)
        if p.kind == CONST:
            phi.append((ones, hx))
        elif p.kind == BM:
            l = p.component
            phi.append((W[:, :, l] + sig[l] * rem[None, :], hx))
            psi[l].append((ones, hx))
        elif p.kind == BM_SQUARED:
            l = p.component
            drifted = W[:, :, l] + sig[l] * rem[None, :]
            phi.append((drifted**2 + rem[None, :], hx))
            psi[l].append((2.0 * drifted, hx))
        else:
            th = np.asarray(p.theta, dtype=float)
            series = np.exp(W @ th - 0.5 * float(th @ th) * grid.nodes[None, :]
                            + float(th @ sig) * rem[None, :])
            phi.append((series, hx))
            for l in range(paths.dim):
                if th[l] != 0.0:
                    psi[l].append((th[l] * series, hx))
    shape = (paths.num_paths, len(grid), len(x))
    return product_dense(phi, shape), [product_dense(q, shape) for q in psi]
