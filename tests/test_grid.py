"""Grid, field, difference operators, quadrature, and norms."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lse.grid import (
    Field,
    _edge_integral,
    _gradient_components,
    _inner,
    _integral,
    _neg_div,
    _require_same_grid,
    fold,
    make_grid,
    norm_h1v,
    quotient_grid,
    unfold,
)
from lse.energy import Tabulated, norm_w1p

from conftest import BATCH_GRIDS, batch_fields, batch_grid, neg_laplacian, random_field


def _ones_potential(g):
    return Tabulated(values=Field(grid=g, values=np.ones(g.npoints)))


SECTORS = [mirror for dim in (1, 2, 3) for mirror in itertools.product((1, -1), repeat=dim)]


class TestFold:
    """``fold`` decides whether a full grid folds for an array and gives the
    array's share on the quotient grids: the inverse of ``unfold``."""

    @pytest.mark.parametrize("mirror", SECTORS, ids=str)
    def test_fold_of_unfold_is_the_identity(self, mirror):
        g = make_grid(len(mirror), 5.0, 8)
        q = quotient_grid(g, mirror)
        u = np.random.default_rng(len(mirror)).standard_normal(q.npoints)
        u[0] = 0.0  # its unfolded image holds a -0.0 on an odd axis
        assert fold(g, unfold(q, u).values, mirror).tobytes() == u.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_share_is_the_upper_orthant(self, dim):
        g = make_grid(dim, 6.0, 10)
        v = 0.5 + 2.0 * g.radius_squared()
        share = fold(g, v.reshape(-1), (1,) * dim)
        assert share.tobytes() == np.ascontiguousarray(v[(slice(5, None),) * dim]).tobytes()
        assert share.size == quotient_grid(g, (-1,) + (1,) * (dim - 1)).npoints

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_odd_n_does_not_fold(self, dim):
        g = make_grid(dim, 6.0, 9)
        assert np.array_equal(g.radius_squared(), np.flip(g.radius_squared()))
        assert fold(g, g.radius_squared().reshape(-1), (1,) * dim) is None

    def test_a_quotient_grid_does_not_fold_again(self):
        q = quotient_grid(make_grid(2, 6.0, 8), (1, 1))
        assert fold(q, q.radius_squared().reshape(-1), (1, 1)) is None

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_ulp_of_asymmetry_does_not_fold(self, dim):
        g = make_grid(dim, 6.0, 8)
        v = (0.5 + 2.0 * g.radius_squared()).reshape(-1)
        assert fold(g, v, (1,) * dim) is not None
        v[-1] = np.nextafter(v[-1], np.inf)
        assert fold(g, v, (1,) * dim) is None

    def test_an_array_of_the_other_parity_does_not_fold(self):
        g = make_grid(2, 6.0, 8)
        odd = unfold(quotient_grid(g, (-1, 1)), np.arange(1.0, 17.0)).values
        assert fold(g, odd, (1, 1)) is None and fold(g, odd, (-1, -1)) is None
        assert fold(g, odd, (-1, 1)) is not None


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
        # the coordinate set is exactly antisymmetric for ANY interior count
        for n in (3, 4, 31, 32, 97, 190, 1022):
            for half_width in (4.0, 6.0, 8.0):
                g = make_grid(1, half_width, n)
                x = g.axis_coords()
                assert np.all(np.abs(x) < half_width)
                assert np.array_equal(x, -x[::-1])

    @pytest.mark.parametrize("n", [4, 32, 190, 1022])
    def test_quotient_coords_are_the_upper_half(self, n):
        g = make_grid(2, 6.0, n)
        q = quotient_grid(g, (-1, 1))
        assert q.shape == (n // 2, n // 2) and q.box_points == n
        assert q.weight == 4.0 * g.spacing**2
        assert q.axis_coords().tobytes() == g.axis_coords()[n // 2:].tobytes()
        v = np.arange(q.npoints, dtype=float)
        full = unfold(q, v).nd()
        assert full.shape == g.shape
        assert np.array_equal(full, -np.flip(full, axis=0))
        assert np.array_equal(full, np.flip(full, axis=1))

    @pytest.mark.parametrize("n, mirror", [(31, (1,)), (32, (1, 1)), (32, (0,)), (32, (-1,))])
    def test_quotient_needs_an_even_full_grid_and_a_parity_per_axis(self, n, mirror):
        g = make_grid(1, 4.0, n)
        if mirror == (-1,):
            g = quotient_grid(g, mirror)  # no quotient of a quotient
        with pytest.raises(ValueError):
            quotient_grid(g, mirror)

    @pytest.mark.parametrize("mirror", [(1,), (-1,), (1, -1), (-1, -1), (1, 1, -1), (-1, 1, 1)])
    def test_first_edge_factor_per_axis(self, mirror):
        g = make_grid(len(mirror), 4.0, 8)
        assert g.first_edge == (1,) * g.dim
        assert quotient_grid(g, mirror).first_edge == tuple(0 if m == 1 else 2 for m in mirror)

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
        out = neg_laplacian(g, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [-1.0, 2.0, -1.0], atol=1e-15)

    def test_zero_field(self, grid2d):
        assert np.all(neg_laplacian(grid2d, np.zeros(grid2d.npoints)) == 0.0)

    def test_center_spike_2d(self):
        g = make_grid(2, 2.0, 3)  # h = 1
        vals = np.zeros(9)
        vals[4] = 1.0  # center of the 3x3 block
        out = neg_laplacian(g, vals).reshape(g.shape)
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
        out = neg_laplacian(g, vals)
        h2 = g.spacing**2
        expect = np.zeros(63)
        for i in range(28, 35):
            expect[i] = (2 * vals[i] - vals[i - 1] - vals[i + 1]) / h2
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_grid_mismatch(self, grid1d, grid2d):
        # the check every Field-taking function runs before its kernels
        f = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        with pytest.raises(ValueError):
            _require_same_grid(grid2d, f)


class TestForwardGradient:
    def test_hand_enumerated_edges(self):
        g = make_grid(1, 1.0, 3)  # h = 0.5
        (comp,) = _gradient_components(g, np.array([0.0, 1.0, 0.0]))
        # leading boundary edge, then the forward edge of each interior point
        np.testing.assert_allclose(comp, [0.0, 2.0, -2.0, 0.0], atol=1e-15)

    def test_zero_field(self, grid2d):
        for comp in _gradient_components(grid2d, np.zeros(grid2d.shape)):
            assert np.all(comp == 0.0)

    def test_affine_data_constant_slope_on_interior_edges(self):
        g = make_grid(1, 4.0, 32)
        x = g.axis_coords()
        (comp,) = _gradient_components(g, 3.0 * x + 1.0)
        # interior-interior edges carry the exact slope
        np.testing.assert_allclose(comp[1:-1], 3.0, atol=1e-12)

    def test_component_count_and_length(self, grid2d):
        f = random_field(grid2d, np.random.default_rng(0))
        grad = _gradient_components(grid2d, f.nd())
        n = grid2d.points_per_dim
        assert len(grad) == 2
        # each axis contributes n+1 edges per line, n lines
        for comp in grad:
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


class TestBatchKernels:
    """A kernel given fields as the rows of a batch returns, in each row,
    the bytes of its call on that field alone."""

    @pytest.mark.parametrize("dim, n, mirror", BATCH_GRIDS)
    def test_rows_are_bit_equal_to_single_calls(self, dim, n, mirror):
        g = batch_grid(dim, n, mirror)
        u = batch_fields(g)
        comps = _gradient_components(g, u.reshape(u.shape[:1] + g.shape))
        div = _neg_div(g, comps)
        sq = _edge_integral(g, [c * c for c in comps])
        pw = _edge_integral(g, [np.abs(c) ** 1.3 for c in comps])
        assert div.shape == u.shape[:1] + g.shape
        assert sq.shape == pw.shape == (u.shape[0],)
        for i, row in enumerate(u):
            single = _gradient_components(g, row.reshape(g.shape))
            for c, one in zip(comps, single, strict=True):
                assert c[i].tobytes() == one.tobytes()
            assert div[i].tobytes() == _neg_div(g, single).tobytes()
            one_sq = _edge_integral(g, [c * c for c in single])
            assert type(one_sq) is float and sq[i].tobytes() == np.float64(one_sq).tobytes()
            assert pw[i] == _edge_integral(g, [np.abs(c) ** 1.3 for c in single])

    @pytest.mark.parametrize("dim, n, mirror", BATCH_GRIDS)
    def test_point_integrals_of_rows(self, dim, n, mirror):
        g = batch_grid(dim, n, mirror)
        u = batch_fields(g)
        sums = _integral(g, u * u)
        assert sums.shape == (u.shape[0],)
        for i, row in enumerate(u):
            one = _integral(g, row * row)
            assert type(one) is float and sums[i].tobytes() == np.float64(one).tobytes()
        # an (r, N) matrix is one matrix-vector product, whose BLAS rows
        # agree with single dot products to round-off, not bit for bit
        dots = _inner(g, u, u[0])
        assert dots.shape == (u.shape[0],)
        for i, row in enumerate(u):
            one = _inner(g, row, u[0])
            assert type(one) is float and dots[i] == pytest.approx(one, rel=1e-14, abs=0.0)


class TestIntegrate:
    def test_constant_1d(self):
        g = make_grid(1, 1.0, 3)  # h = 0.5
        assert _integral(g, np.ones(3)) == pytest.approx(1.5)

    def test_zero(self, grid2d):
        assert _integral(grid2d, np.zeros(grid2d.npoints)) == 0.0

    def test_indicator_2d(self):
        g = make_grid(2, 2.0, 3)  # h = 1
        vals = np.zeros(9)
        vals[5] = 1.0
        assert _integral(g, vals) == pytest.approx(1.0)

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
        lhs = _integral(g, a * u + b * v)
        rhs = a * _integral(g, u) + b * _integral(g, v)
        assert lhs == pytest.approx(rhs, abs=1e-13 * (1 + abs(rhs)))


class TestQuotientQuadrature:
    @pytest.mark.parametrize("mirror", SECTORS)
    def test_quotient_integrals_are_full_grid_integrals(self, mirror):
        # a product of two fields of one parity, and |u|, are even on every
        # axis, so their quotient integrals are those of the unfolded fields
        g = make_grid(len(mirror), 3.0, 8)
        q = quotient_grid(g, mirror)
        a, b = np.random.default_rng(len(mirror)).uniform(-2.0, 2.0, (2, q.npoints))
        fa, fb = unfold(q, a).values, unfold(q, b).values
        assert _integral(q, a * b) == pytest.approx(_integral(g, fa * fb), rel=1e-13)
        assert _inner(q, a, b) == pytest.approx(_inner(g, fa, fb), rel=1e-13)
        assert _integral(q, np.abs(a)) == pytest.approx(_integral(g, np.abs(fa)), rel=1e-13)
        if set(mirror) == {1}:
            assert _integral(q, a) == pytest.approx(_integral(g, fa), rel=1e-13)


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
        lhs = vol * float(np.dot(neg_laplacian(g, u.values), v.values))
        gu = _gradient_components(g, u.nd())
        gv = _gradient_components(g, v.nd())
        rhs = vol * sum(float(np.vdot(a, b)) for a, b in zip(gu, gv))
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
