"""Grid, field, difference operators, quadrature, and norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lse.grid import (
    Field,
    _gradient_components,
    forward_gradient,
    integrate,
    make_grid,
    neg_laplacian_apply,
    norm_h1v,
    norm_w1p,
)
from lse.energy import Tabulated

from conftest import random_field


def _ones_potential(g):
    return Tabulated(values=Field(grid=g, values=np.ones(g.npoints)))


class TestMakeGrid:
    def test_three_point_line(self):
        g = make_grid(1, 1.0, 3)
        assert g.spacing == pytest.approx(0.5)
        np.testing.assert_allclose(g.axis_coords(), [-0.5, 0.0, 0.5], atol=1e-15)

    def test_seven_point_square(self):
        g = make_grid(2, 4.0, 7)
        assert g.spacing == pytest.approx(1.0)
        assert g.npoints == 49
        assert g.shape == (7, 7)

    def test_spacing_formula_exact(self):
        g = make_grid(3, 2.5, 9)
        assert g.spacing == 2 * 2.5 / (9 + 1)

    def test_coords_strictly_interior_and_symmetric(self):
        # the coordinate set is symmetric about 0 for ANY interior count
        for n in (3, 4, 31, 32):
            g = make_grid(1, 4.0, n)
            x = g.axis_coords()
            assert np.all(np.abs(x) < 4.0)
            np.testing.assert_allclose(x, -x[::-1], atol=1e-15)

    @pytest.mark.parametrize("dim", [0, 4, -1])
    def test_dimension_out_of_range(self, dim):
        with pytest.raises(ValueError, match="dim"):
            make_grid(dim, 1.0, 3)

    def test_bad_half_width(self):
        with pytest.raises(ValueError):
            make_grid(1, 0.0, 3)
        with pytest.raises(ValueError):
            make_grid(1, -2.0, 3)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_grid(1, 1.0, 2)


class TestField:
    def test_length_checked(self, grid1d):
        with pytest.raises(ValueError):
            Field(grid=grid1d, values=np.zeros(grid1d.npoints + 1))

    def test_nonfinite_rejected(self, grid1d):
        bad = np.zeros(grid1d.npoints)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid=grid1d, values=bad)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            Field(grid=grid1d, values=bad)

    def test_values_are_copied_and_frozen(self, grid1d):
        src = np.ones(grid1d.npoints)
        f = Field(grid=grid1d, values=src)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            f.values[0] = 2.0

    def test_nd_view_shape(self, grid2d):
        f = Field(grid=grid2d, values=np.arange(grid2d.npoints, dtype=float))
        assert f.nd().shape == grid2d.shape
        # row-major: last axis fastest
        assert f.nd()[0, 1] == 1.0
        assert f.nd()[1, 0] == grid2d.points_per_dim


class TestNegLaplacian:
    def test_unit_spike_1d(self):
        g = make_grid(1, 2.0, 3)  # h = 1
        u = Field(grid=g, values=np.array([0.0, 1.0, 0.0]))
        out = neg_laplacian_apply(g, u)
        np.testing.assert_allclose(out.values, [-1.0, 2.0, -1.0], atol=1e-15)

    def test_zero_field(self, grid2d):
        z = Field(grid=grid2d, values=np.zeros(grid2d.npoints))
        assert np.all(neg_laplacian_apply(grid2d, z).values == 0.0)

    def test_center_spike_2d(self):
        g = make_grid(2, 2.0, 3)  # h = 1
        vals = np.zeros(9)
        vals[4] = 1.0  # center of the 3x3 block
        out = neg_laplacian_apply(g, Field(grid=g, values=vals)).nd()
        assert out[1, 1] == pytest.approx(4.0)
        for i, j in ((0, 1), (2, 1), (1, 0), (1, 2)):
            assert out[i, j] == pytest.approx(-1.0)
        for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out[i, j] == 0.0

    def test_interior_support_matches_free_stencil(self):
        # away from the boundary the Dirichlet padding is invisible
        g = make_grid(1, 8.0, 63)
        vals = np.zeros(63)
        vals[29:34] = [1.0, 2.0, 5.0, 2.0, 1.0]
        out = neg_laplacian_apply(g, Field(grid=g, values=vals)).values
        h2 = g.spacing**2
        expect = np.zeros(63)
        for i in range(28, 35):
            expect[i] = (2 * vals[i] - vals[i - 1] - vals[i + 1]) / h2
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_grid_mismatch(self, grid1d, grid2d):
        f = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        with pytest.raises(ValueError):
            neg_laplacian_apply(grid2d, f)


class TestForwardGradient:
    def test_hand_enumerated_edges(self):
        g = make_grid(1, 1.0, 3)  # h = 0.5
        u = Field(grid=g, values=np.array([0.0, 1.0, 0.0]))
        (comp,) = forward_gradient(g, u).components
        # leading boundary edge, then the forward edge of each interior point
        np.testing.assert_allclose(comp, [0.0, 2.0, -2.0, 0.0], atol=1e-15)

    def test_zero_field(self, grid2d):
        z = Field(grid=grid2d, values=np.zeros(grid2d.npoints))
        for comp in forward_gradient(grid2d, z).components:
            assert np.all(comp == 0.0)

    def test_affine_data_constant_slope_on_interior_edges(self):
        g = make_grid(1, 4.0, 32)
        x = g.axis_coords()
        u = Field(grid=g, values=3.0 * x + 1.0)
        (comp,) = forward_gradient(g, u).components
        # interior-interior edges carry the exact slope
        np.testing.assert_allclose(comp[1:-1], 3.0, atol=1e-12)

    def test_component_count_and_length(self, grid2d):
        f = random_field(grid2d, np.random.default_rng(0))
        grad = forward_gradient(grid2d, f)
        n = grid2d.points_per_dim
        assert len(grad.components) == 2
        # each axis contributes n+1 edges per line, n lines
        for comp in grad.components:
            assert comp.size == (n + 1) * n


class TestGradientComponents:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bit_equal_to_the_padded_difference(self, dim):
        g = make_grid(dim, 2.0, 9)
        rng = np.random.default_rng(dim)
        nd = np.where(rng.random(g.shape) < 0.3, 0.0, rng.standard_normal(g.shape))
        nd[nd == 0.0] = rng.choice([0.0, -0.0], size=int((nd == 0.0).sum()))
        # the first and last points lie on the first and last slab of every
        # axis, so both boundary edges see each signed zero
        nd.flat[0], nd.flat[-1] = -0.0, 0.0
        for d, comp in enumerate(_gradient_components(g, nd)):
            pad = [(0, 0)] * dim
            pad[d] = (1, 1)
            want = np.diff(np.pad(nd, pad), axis=d) / g.spacing
            assert comp.shape == want.shape
            assert comp.tobytes() == want.tobytes()


class TestIntegrate:
    def test_constant_1d(self):
        g = make_grid(1, 1.0, 3)  # h = 0.5
        assert integrate(g, Field(grid=g, values=np.ones(3))) == pytest.approx(1.5)

    def test_zero(self, grid2d):
        assert integrate(grid2d, Field(grid=grid2d, values=np.zeros(grid2d.npoints))) == 0.0

    def test_indicator_2d(self):
        g = make_grid(2, 2.0, 3)  # h = 1
        vals = np.zeros(9)
        vals[5] = 1.0
        assert integrate(g, Field(grid=g, values=vals)) == pytest.approx(1.0)

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        g = make_grid(1, 2.0, 16)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        lhs = integrate(g, Field(grid=g, values=a * u + b * v))
        rhs = a * integrate(g, Field(grid=g, values=u)) + b * integrate(g, Field(grid=g, values=v))
        assert lhs == pytest.approx(rhs, abs=1e-13 * (1 + abs(rhs)))


class TestSummationByParts:
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([1, 2]))
    def test_laplacian_pairing_equals_gradient_pairing(self, seed, dim):
        # <(-Lap)u, v> == sum_edges grad(u).grad(v) * h^N, exactly the
        # identity that makes the discrete energy's first variation equal
        # the centered stencil.
        g = make_grid(dim, 2.0, 9)
        rng = np.random.default_rng(seed)
        u = random_field(g, rng)
        v = random_field(g, rng)
        vol = g.spacing**g.dim
        lhs = vol * float(np.dot(neg_laplacian_apply(g, u).values, v.values))
        gu = forward_gradient(g, u)
        gv = forward_gradient(g, v)
        rhs = vol * sum(float(np.vdot(a, b)) for a, b in zip(gu.components, gv.components))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNorms:
    def test_h1v_zero(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        assert norm_h1v(grid1d, _ones_potential(grid1d), z) == 0.0

    def test_h1v_hand_value(self):
        # spike of height 1 with unit spacing and V = 1: two unit edges
        # plus the mass term give sqrt(3)
        g = make_grid(1, 2.0, 3)  # h = 1
        u = Field(grid=g, values=np.array([0.0, 1.0, 0.0]))
        assert norm_h1v(g, _ones_potential(g), u) == pytest.approx(np.sqrt(3.0))

    @given(c=st.floats(-4, 4).filter(lambda c: abs(c) > 1e-8))
    def test_h1v_homogeneity(self, c):
        g = make_grid(1, 4.0, 32)
        rng = np.random.default_rng(7)
        u = random_field(g, rng)
        scaled = Field(grid=g, values=c * u.values)
        V = _ones_potential(g)
        assert norm_h1v(g, V, scaled) == pytest.approx(abs(c) * norm_h1v(g, V, u), rel=1e-12)

    def test_w1p_zero(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        assert norm_w1p(grid1d, z, 1.5) == 0.0

    @pytest.mark.parametrize("p", [2.0, 1.0, 0.5, 2.5])
    def test_w1p_exponent_domain(self, grid1d, p):
        u = random_field(grid1d, np.random.default_rng(0))
        with pytest.raises(ValueError):
            norm_w1p(grid1d, u, p)

    @given(c=st.floats(-4, 4).filter(lambda c: abs(c) > 1e-8), p=st.floats(1.05, 1.95))
    def test_w1p_homogeneity(self, c, p):
        g = make_grid(1, 4.0, 32)
        u = random_field(g, np.random.default_rng(11))
        scaled = Field(grid=g, values=c * u.values)
        assert norm_w1p(g, scaled, p) == pytest.approx(abs(c) * norm_w1p(g, u, p), rel=1e-11)

    def test_norms_vanish_only_at_zero(self, grid1d):
        u = random_field(grid1d, np.random.default_rng(3), scale=1e-6)
        assert norm_h1v(grid1d, _ones_potential(grid1d), u) > 0.0
        assert norm_w1p(grid1d, u, 1.5) > 0.0
