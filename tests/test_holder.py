import numpy as np
import pytest

from bspdelab.errors import InvalidArgument
from bspdelab.grid import SpaceGrid, TimeGrid, time_quadrature_weights
from bspdelab.holder import (
    FieldSample,
    HolderIndex,
    check_interpolation,
    check_product_inequalities,
    estimate_fractional_seminorm,
    estimate_norm,
    estimate_seminorm,
)

GRID = SpaceGrid(dim=1, radius=1.0, points_per_axis=101)
TGRID = TimeGrid(horizon=1.0, num_steps=20)


def det_field(fn, family="Linf", grid=GRID, tgrid=None):
    """Sample fn(t, x) (or fn(x) when no time grid) on a single path, in one
    call on the lattice x and the grid times t as a column."""
    x = grid.axis
    rows = 1 if tgrid is None else len(tgrid)
    vals = fn(x) if tgrid is None else fn(tgrid.nodes[:, None], x)
    return FieldSample((np.asarray(vals, dtype=float) * np.ones((rows, len(x))))[None],
                       grid, family, tgrid)


class TestHolderIndex:
    def test_alpha_interior(self):
        with pytest.raises(InvalidArgument):
            HolderIndex(0, 1.0)
        with pytest.raises(InvalidArgument):
            HolderIndex(0, 0.0)
        HolderIndex(2, 0.5)


class TestSeminorms:
    def test_constant_terminal(self):
        f = det_field(lambda x: 3.0, family="L2Omega")
        assert np.isclose(estimate_seminorm(f, 0), 3.0)

    def test_linear_first_derivative_s2(self):
        f = det_field(lambda t, x: x, family="S2", tgrid=TGRID)
        assert np.isclose(estimate_seminorm(f, 1), 1.0, atol=1e-10)

    def test_l2_time_integral(self):
        # psi(t, x) = t has L2-in-time norm sqrt(int t^2) = 1/sqrt(3)
        f = det_field(lambda t, x: t, family="L2", tgrid=TGRID)
        val = estimate_seminorm(f, 0)
        assert abs(val - 1.0 / np.sqrt(3.0)) < 1e-2

    def test_stochastic_s2_matches_oracle(self):
        # field sin(x) W_t: [.]_{0,S2} = sqrt(E sup_t W_t^2) * sup|sin|
        rng = np.random.default_rng(11)
        M, K = 4000, 50
        tg = TimeGrid(1.0, K)
        dW = rng.standard_normal((M, K)) * np.sqrt(tg.dt)
        W = np.concatenate([np.zeros((M, 1)), np.cumsum(dW, axis=1)], axis=1)
        vals = W[:, :, None] * np.sin(GRID.axis)[None, None, :]
        f = FieldSample(vals, GRID, "S2", tg)
        est = estimate_seminorm(f, 0)
        oracle = np.sqrt((W**2).max(axis=1).mean()) * np.abs(np.sin(GRID.axis)).max()
        assert np.isclose(est, oracle, rtol=1e-12)

    def test_scaling_equivariance(self):
        f = det_field(lambda t, x: np.sin(3 * x) + t, family="L2", tgrid=TGRID)
        g = FieldSample(f.values * 7.0, GRID, "L2", TGRID)
        for k in (0, 1, 2):
            assert np.isclose(estimate_seminorm(g, k), 7.0 * estimate_seminorm(f, k), rtol=1e-12)
        assert np.isclose(
            estimate_fractional_seminorm(g, 0, 0.5),
            7.0 * estimate_fractional_seminorm(f, 0, 0.5),
            rtol=1e-12,
        )


class TestFractional:
    def test_linear_field_alpha_half(self):
        f = det_field(lambda x: x, family="Linf")
        # quotient |x - y| / |x - y|^0.5 maximized at the endpoint pair
        assert np.isclose(estimate_fractional_seminorm(f, 0, 0.5), np.sqrt(2.0), rtol=1e-12)

    def test_constant_field_zero(self):
        f = det_field(lambda x: 1.0)
        assert estimate_fractional_seminorm(f, 0, 0.25) == 0.0

    def test_abs_field_bounds(self):
        f = det_field(lambda x: abs(x))
        for alpha in (0.25, 0.5):
            v = estimate_fractional_seminorm(f, 0, alpha)
            assert GRID.h ** (1.0 - alpha) - 1e-12 <= v <= (2.0) ** (1.0 - alpha) + 1e-12

    def test_gram_matches_direct_l2(self):
        rng = np.random.default_rng(3)
        grid = SpaceGrid(1, 1.0, 33)
        tg = TimeGrid(1.0, 7)
        vals = rng.standard_normal((10, 8, 33))
        f = FieldSample(vals, grid, "L2", tg)
        got = estimate_fractional_seminorm(f, 0, 0.5)
        # brute force over pairs
        w = time_quadrature_weights(tg)
        best = 0.0
        for i in range(33):
            for j in range(i + 1, 33):
                diff = vals[:, :, i] - vals[:, :, j]
                n = np.sqrt(np.einsum("mt,t->m", diff**2, w).mean())
                best = max(best, n / abs(grid.axis[i] - grid.axis[j]) ** 0.5)
        assert np.isclose(got, best, rtol=1e-10)

    @pytest.mark.parametrize("family", ["L2", "Linf"])
    def test_every_pair_counts_on_a_fine_grid(self, family):
        # J = 513: the quotient is the max over all J (J - 1) / 2 pairs
        grid, alpha = SpaceGrid(1, 1.0, 513), 0.5
        if family == "L2":
            f = det_field(lambda t, x: np.sin(2 * x) * (1 + t), family, grid, TGRID)
            w = time_quadrature_weights(TGRID)
        else:
            f = det_field(lambda x: np.abs(x) ** 0.7, family, grid)
        x, vals = grid.axis, f.values[0]
        i, j = np.triu_indices(len(x), k=1)
        diff = vals[:, i] - vals[:, j]
        norms = (np.sqrt(np.einsum("tp,t->p", diff**2, w)) if family == "L2"
                 else np.abs(diff).max(axis=0))
        best = float(np.max(norms / np.abs(x[i] - x[j]) ** alpha))
        assert np.isclose(estimate_fractional_seminorm(f, 0, alpha), best, rtol=1e-10)

    def test_refinement_monotone(self):
        coarse = det_field(lambda x: np.sin(4 * x), grid=SpaceGrid(1, 1.0, 51))
        fine = det_field(lambda x: np.sin(4 * x), grid=SpaceGrid(1, 1.0, 101))
        assert estimate_fractional_seminorm(fine, 0, 0.5) >= estimate_fractional_seminorm(
            coarse, 0, 0.5
        ) - 1e-12


class TestNormReport:
    def test_decomposition(self):
        f = det_field(lambda t, x: np.sin(2 * x) * (1 + t), family="L2", tgrid=TGRID)
        rep = estimate_norm(f, 1, 0.5)
        assert np.isclose(rep.total, sum(rep.seminorms) + rep.fractional, rtol=1e-14)
        assert all(s >= 0 for s in rep.seminorms)

    def test_triangle_inequality(self):
        f = det_field(lambda t, x: np.sin(2 * x), family="L2", tgrid=TGRID)
        g = det_field(lambda t, x: np.cos(3 * x) * t, family="L2", tgrid=TGRID)
        s = FieldSample(f.values + g.values, GRID, "L2", TGRID)
        rs = estimate_norm(s, 0, 0.5)
        rf = estimate_norm(f, 0, 0.5)
        rg = estimate_norm(g, 0, 0.5)
        assert rs.total <= rf.total + rg.total + 1e-12

    def test_deterministic_path_count_invariance(self):
        vals1 = np.sin(GRID.axis)[None, None, :] * np.ones((1, len(TGRID), 1))
        vals5 = np.repeat(vals1, 5, axis=0)
        n1 = estimate_norm(FieldSample(vals1, GRID, "L2", TGRID), 0, 0.5)
        n5 = estimate_norm(FieldSample(vals5, GRID, "L2", TGRID), 0, 0.5)
        assert np.isclose(n1.total, n5.total, rtol=1e-14)


class TestProductInequalities:
    def test_unit_factor(self):
        h = det_field(lambda x: 1.0, family="Linf")
        psi = det_field(lambda t, x: np.sin(2 * x), family="L2", tgrid=TGRID)
        checks = check_product_inequalities(h, psi, 0.5)
        frac = [c for c in checks if c["check"] == "frac_product"][0]
        assert abs(frac["slack"]) < 1e-12

    def test_linear_factors(self):
        h = det_field(lambda x: x, family="Linf")
        psi = det_field(lambda x: x, family="Linf")
        for c in check_product_inequalities(h, psi, 0.5):
            assert c["slack"] >= -1e-9

    def test_zero_factor(self):
        h = det_field(lambda x: 0.0, family="Linf")
        psi = det_field(lambda x: np.sin(x), family="Linf")
        for c in check_product_inequalities(h, psi, 0.25):
            assert c["lhs"] == 0.0
            assert c["slack"] >= 0.0

    def test_stochastic_product_slack(self):
        rng = np.random.default_rng(5)
        grid = SpaceGrid(1, 1.0, 65)
        tg = TimeGrid(1.0, 10)
        W = np.cumsum(rng.standard_normal((300, 11, 1)), axis=1)
        psi = FieldSample(W * np.sin(grid.axis)[None, None, :], grid, "L2", tg)
        h = det_field(lambda x: np.cos(x), family="Linf", grid=grid)
        for c in check_product_inequalities(h, psi, 0.25):
            assert c["slack"] >= -1e-9, c


class TestInterpolation:
    def test_sin_field_finite_constants(self):
        f = det_field(lambda x: np.sin(x))
        out = check_interpolation(f, 0.5, [0.1, 0.5])
        for item in out:
            for lv in item["levels"]:
                assert np.isfinite(lv["C"])
            assert not item["flagged"]

    def test_zero_field(self):
        f = det_field(lambda x: 0.0)
        out = check_interpolation(f, 0.5, [0.5])
        for item in out:
            assert item["levels"][0]["C"] == 0.0

    def test_quadratic_field(self):
        f = det_field(lambda x: x**2, grid=SpaceGrid(1, 1.0, 201))
        out = check_interpolation(f, 0.5, [0.1, 0.5])
        two = [o for o in out if o["check"] == "interp_2"][0]
        # [x^2]_2 = 2, [x^2]_0 = 1, fractional 2+alpha part is ~0
        assert np.isclose(two["lhs"], 2.0, atol=1e-8)
        assert all(np.isfinite(lv["C"]) for lv in two["levels"])
