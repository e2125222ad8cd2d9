import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspdelab.errors import InvalidArgument, UnsupportedOrder
from bspdelab.grid import (
    MultiIndex,
    SpaceGrid,
    TimeGrid,
    fd_derivative,
    quadrature_weights,
    space_quadrature_weights,
    time_quadrature_weights,
)


class TestTimeGrid:
    def test_uniform_partition(self):
        g = TimeGrid(1.0, 4)
        assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_minimal_grid(self):
        g = TimeGrid(1.0, 1)
        assert np.allclose(g.nodes, [0.0, 1.0])

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(InvalidArgument):
            TimeGrid(0.0, 4)

    def test_zero_steps_rejected(self):
        with pytest.raises(InvalidArgument):
            TimeGrid(1.0, 0)

    def test_index_of(self):
        g = TimeGrid(1.0, 4)
        assert g.index_of(0.5) == 2
        with pytest.raises(InvalidArgument):
            g.index_of(0.3)

    @given(st.floats(0.1, 10.0), st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_endpoints_and_monotonicity(self, T, K):
        g = TimeGrid(T, K)
        assert g.nodes[0] == 0.0
        assert np.isclose(g.nodes[-1], T)
        assert np.all(np.diff(g.nodes) > 0)


class TestQuadrature:
    def test_trapezoid_weights(self):
        g = TimeGrid(1.0, 4)
        assert np.allclose(time_quadrature_weights(g), [0.125, 0.25, 0.25, 0.25, 0.125])

    def test_single_interval(self):
        g = TimeGrid(1.0, 1)
        assert np.allclose(time_quadrature_weights(g), [0.5, 0.5])

    @given(st.floats(0.1, 5.0), st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_length(self, T, K):
        g = TimeGrid(T, K)
        assert np.isclose(time_quadrature_weights(g).sum(), T, rtol=1e-12)

    def test_affine_exactness(self):
        g = TimeGrid(2.0, 17)
        w = time_quadrature_weights(g)
        # integral of 3t + 1 over [0, 2] is 8
        assert abs(np.sum(w * (3.0 * g.nodes + 1.0)) - 8.0) < 1e-12

    def test_space_weights_tensorize(self):
        g = SpaceGrid(dim=2, radius=1.0, points_per_axis=5)
        w = space_quadrature_weights(g)
        assert w.shape == (5, 5)
        assert np.isclose(w.sum(), 4.0)


class TestSpaceGrid:
    def test_origin_is_node_and_symmetric(self):
        g = SpaceGrid(dim=1, radius=2.0, points_per_axis=9)
        ax = g.axis
        assert 0.0 in ax
        assert np.allclose(ax, -ax[::-1])

    def test_even_count_rejected(self):
        with pytest.raises(InvalidArgument):
            SpaceGrid(dim=1, radius=1.0, points_per_axis=4)

    def test_nodes_shape(self):
        g = SpaceGrid(dim=2, radius=1.0, points_per_axis=5)
        assert g.nodes().shape == (25, 2)
        assert g.h == 0.5

    def test_interior_mask(self):
        g = SpaceGrid(dim=1, radius=2.0, points_per_axis=9)
        m = g.interior_mask(1.0)
        assert m.sum() == 5

    @given(st.integers(1, 2), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_node_negation_closure(self, dim, half):
        g = SpaceGrid(dim=dim, radius=1.0, points_per_axis=2 * half + 1)
        nodes = g.nodes()
        as_set = {tuple(np.round(n, 12)) for n in nodes}
        for n in nodes:
            assert tuple(np.round(-n, 12)) in as_set


class TestMultiIndex:
    def test_order_and_axes(self):
        g = MultiIndex((2, 1))
        assert g.order == 3
        assert g.axes() == (0, 0, 1)

    def test_all_of_order(self):
        assert len(MultiIndex.all_of_order(2, 2)) == 3
        assert len(MultiIndex.all_of_order(1, 1)) == 1

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            MultiIndex((-1,))


class TestFdDerivative:
    def grid(self, J=201, R=1.0):
        return SpaceGrid(dim=1, radius=R, points_per_axis=J)

    def test_exact_on_quadratic(self):
        g = self.grid()
        x = g.axis
        d, valid = fd_derivative(x**2, g, MultiIndex((2,)))
        assert np.allclose(d[valid], 2.0, atol=1e-9)

    def test_sin_first_derivative(self):
        g = self.grid(J=201)
        x = g.axis
        d, valid = fd_derivative(np.sin(x), g, MultiIndex((1,)))
        assert np.max(np.abs(d[valid] - np.cos(x[valid]))) < 1e-4

    def test_constant_field(self):
        g = self.grid(J=11)
        d, valid = fd_derivative(np.ones(11), g, MultiIndex((1,)))
        assert np.allclose(d[valid], 0.0)

    def test_order_three_rejected(self):
        g = self.grid(J=11)
        with pytest.raises(UnsupportedOrder):
            fd_derivative(np.ones(11), g, MultiIndex((3,)))

    def test_leading_axes_pass_through(self):
        g = self.grid(J=51)
        x = g.axis
        field = np.stack([x**2, 2.0 * x**2])
        d, valid = fd_derivative(field, g, MultiIndex((2,)))
        assert np.allclose(d[0][valid], 2.0)
        assert np.allclose(d[1][valid], 4.0)

    def test_mixed_second_derivative(self):
        g = SpaceGrid(dim=2, radius=1.0, points_per_axis=41)
        X, Y = np.meshgrid(g.axis, g.axis, indexing="ij")
        d, valid = fd_derivative(X * Y, g, MultiIndex((1, 1)))
        assert np.allclose(d[valid], 1.0, atol=1e-9)

    def test_boundary_layer_flagged(self):
        g = self.grid(J=11)
        _, valid = fd_derivative(np.ones(11), g, MultiIndex((2,)))
        assert not valid[0] and not valid[1] and not valid[-1]
        assert valid[2:-2].all()
