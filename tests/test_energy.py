"""Logarithmic nonlinearity, potentials, perturbed energy, and its gradient."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lse.energy import (
    _GRAD_REG_EPS,
    Harmonic,
    PerturbationParams,
    Quartic,
    Shifted,
    Tabulated,
    _gradient_raw,
    _parts_raw,
    el_gradient,
    energy_parts,
    log_density,
    log_nonlin,
    norm_w1p,
    residual_original,
    validate_potential,
)
from lse.grid import Field, _h1v_raw, _integral, make_grid, norm_h1v, quotient_grid, unfold

from conftest import (
    BATCH_GRIDS,
    assert_same_bytes,
    batch_fields,
    batch_grid,
    face_zero_fields,
    gausson_field,
    random_field,
    reference_edge_integral,
    reference_gradient_components,
    reference_integral,
    reference_neg_div,
)

SQRT_E = float(np.sqrt(np.e))


class TestLogNonlin:
    @pytest.mark.parametrize(
        "t, expect",
        [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (SQRT_E, 1.6487212707001282)],
    )
    def test_values(self, t, expect):
        assert log_nonlin(t) == pytest.approx(expect, abs=1e-12)

    @given(t=st.floats(-50, 50))
    def test_odd(self, t):
        assert log_nonlin(-t) == pytest.approx(-log_nonlin(t), abs=1e-13)

    def test_continuous_at_zero(self):
        ts = np.array([1e-300, 1e-100, 1e-20, 1e-8])
        out = log_nonlin(ts)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 2e-6)

    def test_zero_without_a_warning(self):
        t = np.array([0.0, -0.0, 1.0, -2.5, 1e-300])
        with np.errstate(divide="raise", invalid="raise"):
            assert log_nonlin(t)[:2].tolist() == [0.0, 0.0]
            assert log_density(t)[:2].tolist() == [0.0, 0.0]
            assert log_nonlin(0.0) == 0.0 and log_density(0.0) == 0.0

    def test_matches_the_xlogy_reference(self):
        # the former scipy.special.xlogy forms; the two logarithms may
        # differ in the last bit
        from scipy.special import xlogy

        t = np.random.default_rng(0).standard_normal(10_000) * np.logspace(-12, 3, 10_000)
        t[::97] = 0.0
        np.testing.assert_allclose(log_nonlin(t), 2.0 * xlogy(t, np.abs(t)), rtol=4e-16, atol=0.0)
        np.testing.assert_allclose(log_density(t), 2.0 * xlogy(t * t, np.abs(t)), rtol=4e-16, atol=0.0)


class TestLogDensity:
    @pytest.mark.parametrize(
        "t, expect",
        [
            (1.0, 0.0),
            (np.e, 14.7781121978613),
            (0.5, -0.34657359027997264),
            (0.0, 0.0),
        ],
    )
    def test_values(self, t, expect):
        assert log_density(t) == pytest.approx(expect, abs=1e-12)

    @given(t=st.floats(-30, 30))
    def test_even(self, t):
        assert log_density(-t) == log_density(t)

    @given(t=st.floats(1e-8, 50))
    def test_negative_exactly_inside_unit_interval(self, t):
        val = log_density(t)
        if t < 1.0:
            assert val < 0.0
        elif t == 1.0:
            assert val == 0.0
        else:
            assert val > 0.0

    @given(t=st.floats(-100, 100))
    def test_positive_part_cubic_bound(self, t):
        # sup of t^2 log t^2 / |t|^3 is attained at t = e with value 2/e
        assert max(log_density(t), 0.0) <= (2.0 / np.e) * abs(t) ** 3 + 1e-12


class TestPotentials:
    def test_harmonic_values(self, grid1d):
        x = grid1d.axis_coords()
        np.testing.assert_allclose(Harmonic(2.0).evaluate(grid1d).values, 2.0 * x * x)

    def test_quartic_values(self, grid1d):
        x = grid1d.axis_coords()
        np.testing.assert_allclose(Quartic(0.5).evaluate(grid1d).values, 0.5 * x**4)

    def test_shifted_adds_constant(self, grid1d):
        base = Harmonic(2.0).evaluate(grid1d).values
        shifted = Shifted(Harmonic(2.0), 1.25).evaluate(grid1d).values
        np.testing.assert_allclose(shifted, base + 1.25)

    def test_validate_even_count_positive(self, grid1d):
        # even interior count leaves the origin off-grid, so min V > 0
        assert validate_potential(grid1d, Harmonic(2.0)) > 0.0

    def test_validate_odd_count_origin_on_grid(self):
        g = make_grid(1, 4.0, 31)  # odd count puts x = 0 on the grid
        with pytest.raises(ValueError, match="positive"):
            validate_potential(g, Harmonic(2.0))
        # the documented rescue: shift per the amplitude-scaling equivalence
        assert validate_potential(g, Shifted(Harmonic(2.0), 1.0)) == pytest.approx(1.0)

    def test_tabulated_constant(self, grid1d):
        V = Tabulated(values=Field(grid=grid1d, values=np.full(grid1d.npoints, 0.5)))
        assert validate_potential(grid1d, V) == pytest.approx(0.5)

    def test_tabulated_grid_mismatch(self, grid1d, grid2d):
        V = Tabulated(values=Field(grid=grid1d, values=np.ones(grid1d.npoints)))
        with pytest.raises(ValueError, match="mismatch"):
            V.evaluate(grid2d)


class TestPerturbationParams:
    def test_valid(self):
        PerturbationParams(lam=0.0)
        PerturbationParams(lam=1.0, p=1.01)
        PerturbationParams(lam=0.5, p=1.99)

    @pytest.mark.parametrize("lam", [-0.1, 1.5, np.nan])
    def test_bad_lambda(self, lam):
        with pytest.raises(ValueError):
            PerturbationParams(lam=lam)

    @pytest.mark.parametrize("p", [1.0, 2.0, 0.5, 2.5])
    def test_bad_p(self, p):
        with pytest.raises(ValueError):
            PerturbationParams(lam=0.5, p=p)


class TestEnergyTotal:
    def test_zero_field_zero_energy(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        for lam in (0.0, 0.37, 1.0):
            assert energy_parts(grid1d, Harmonic(2.0), z, PerturbationParams(lam=lam)).total == 0.0

    def test_evenness_bit_for_bit(self, grid1d):
        u = random_field(grid1d, np.random.default_rng(5))
        neg = Field(grid=grid1d, values=-u.values)
        params = PerturbationParams(lam=0.7, p=1.3)
        assert energy_parts(grid1d, Harmonic(2.0), u, params).total == energy_parts(
            grid1d, Harmonic(2.0), neg, params
        ).total

    def test_gausson_closed_form(self):
        # I(u*) = e^2/2 * sqrt(pi/2) for the 1D closed-form solution
        g = make_grid(1, 8.0, 1022)
        u = gausson_field(g)
        val = energy_parts(g, Harmonic(2.0), u, PerturbationParams(lam=0.0)).total
        assert val == pytest.approx(4.63036, abs=5e-3)
        assert val == pytest.approx(0.5 * np.e**2 * np.sqrt(np.pi / 2.0), abs=5e-3)

    def test_lambda_term_nonnegative_monotone(self, grid1d):
        u = random_field(grid1d, np.random.default_rng(1))
        e0 = energy_parts(grid1d, Harmonic(2.0), u, PerturbationParams(lam=0.0)).total
        e1 = energy_parts(grid1d, Harmonic(2.0), u, PerturbationParams(lam=0.5)).total
        e2 = energy_parts(grid1d, Harmonic(2.0), u, PerturbationParams(lam=1.0)).total
        assert e0 <= e1 <= e2


class TestPathExpansion:
    @given(logt=st.floats(np.log(0.01), np.log(100.0)), seed=st.integers(0, 2**31 - 1))
    def test_five_term_identity(self, logt, seed):
        t = float(np.exp(logt))
        g = make_grid(1, 4.0, 24)
        rng = np.random.default_rng(seed)
        e = random_field(g, rng)
        params = PerturbationParams(lam=0.8, p=1.5)
        V = Harmonic(2.0)
        scaled = Field(grid=g, values=t * e.values)
        lhs = energy_parts(g, V, scaled, params).total
        m = _integral(g, e.values * e.values)
        li = _integral(g, log_density(e.values))
        rhs = (
            params.lam * t**params.p / params.p * norm_w1p(g, e, params.p) ** params.p
            + 0.5 * t * t * norm_h1v(g, V, e) ** 2
            + 0.5 * t * t * m
            - t * t * np.log(t) * m
            - 0.5 * t * t * li
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestElGradient:
    def test_zero_field_zero_gradient(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        out = el_gradient(grid1d, Harmonic(2.0), z, PerturbationParams(lam=1.0))
        assert np.all(out.values == 0.0)

    def test_oddness(self, grid2d):
        u = random_field(grid2d, np.random.default_rng(9))
        neg = Field(grid=grid2d, values=-u.values)
        params = PerturbationParams(lam=0.6, p=1.7)
        V = Harmonic(2.0)
        gp = el_gradient(grid2d, V, u, params).values
        gm = el_gradient(grid2d, V, neg, params).values
        scale = 1.0 + float(np.max(np.abs(gp)))
        assert float(np.max(np.abs(gp + gm))) <= 1e-13 * scale

    @pytest.mark.parametrize("lam,p", [(0.0, 1.5), (1.0, 1.5), (0.37, 1.2)])
    def test_finite_difference_pairing(self, lam, p):
        g = make_grid(1, 4.0, 17)
        rng = np.random.default_rng(2)
        params = PerturbationParams(lam=lam, p=p)
        V = Harmonic(2.0)
        vol = g.spacing**g.dim
        eps = 1e-5
        for _ in range(5):
            u_vals = rng.uniform(-2.0, 2.0, size=g.npoints)
            phi = rng.uniform(-2.0, 2.0, size=g.npoints)
            u = Field(grid=g, values=u_vals)
            grad = el_gradient(g, V, u, params)
            pair = vol * float(np.dot(grad.values, phi))
            ep = energy_parts(g, V, Field(grid=g, values=u_vals + eps * phi), params).total
            em = energy_parts(g, V, Field(grid=g, values=u_vals - eps * phi), params).total
            quotient = (ep - em) / (2.0 * eps)
            assert abs(pair - quotient) / (1.0 + abs(quotient)) <= 1e-6

    @given(seed=st.integers(0, 2**31 - 1), lam=st.sampled_from([0.0, 0.37, 1.0]))
    def test_two_sided_identity(self, seed, lam):
        # 2 E(u) - <E'(u), u> == (2-p)/p * lam * (p-terms) + mass, for every
        # field; couples the energy and gradient assembly exactly.
        g = make_grid(1, 3.0, 20)
        u = random_field(g, np.random.default_rng(seed))
        params = PerturbationParams(lam=lam, p=1.5)
        V = Harmonic(2.0)
        parts = energy_parts(g, V, u, params)
        grad = el_gradient(g, V, u, params)
        vol = g.spacing**g.dim
        lhs = 2.0 * parts.total - vol * float(np.dot(grad.values, u.values))
        rhs = (2.0 - params.p) / params.p * params.lam * (parts.p_grad + parts.p_mass) + parts.mass
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestResidualOriginal:
    def test_zero_field(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        out = residual_original(grid1d, Harmonic(2.0), z)
        assert np.all(out.values == 0.0)

    def test_gausson_truncation_error(self):
        # the closed-form solution satisfies the continuum equation exactly,
        # so the discrete residual is pure second-order stencil error
        g = make_grid(1, 8.0, 1022)
        u = gausson_field(g)
        res = residual_original(g, Harmonic(2.0), u)
        assert float(np.max(np.abs(res.values))) <= 5e-3

    def test_amplitude_scaling_identity(self, grid1d):
        # residual[V - log mu^2](v) == residual[V](mu v)/mu pointwise
        mu = 0.3
        v = random_field(grid1d, np.random.default_rng(4))
        lhs = residual_original(grid1d, Shifted(Harmonic(2.0), -np.log(mu * mu)), v).values
        scaled = Field(grid=grid1d, values=mu * v.values)
        rhs = residual_original(grid1d, Harmonic(2.0), scaled).values / mu
        scale = 1.0 + float(np.max(np.abs(lhs)))
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * scale


QUOTIENT_SECTORS = [(dim, mirror) for dim in (1, 2, 3) for mirror in itertools.product((1, -1), repeat=dim)]


class TestQuotientKernels:
    """On a quotient grid every kernel equals the full-grid kernel on the
    unfolded field, in every parity sector."""

    @pytest.mark.parametrize("dim, mirror", QUOTIENT_SECTORS, ids=[str(m) for _, m in QUOTIENT_SECTORS])
    def test_kernels_match_the_unfolded_full_grid(self, dim, mirror):
        g = make_grid(dim, 3.0, {1: 24, 2: 10, 3: 6}[dim])
        q = quotient_grid(g, mirror)
        upper = (slice(q.points_per_dim, None),) * dim
        V = Shifted(Harmonic(2.0), 0.5)
        vq, vf = V.evaluate(q).values, V.evaluate(g).values
        assert vq.tobytes() == vf.reshape(g.shape)[upper].reshape(-1).tobytes()
        rng = np.random.default_rng(dim)
        u = rng.uniform(-2.0, 2.0, q.npoints)
        u[::7] = 0.0
        full = unfold(q, u)
        assert full.grid == g
        assert full.nd()[upper].reshape(-1).tobytes() == u.tobytes()

        def close(a, b):
            return abs(a - b) <= 1e-13 * max(1.0, abs(b))

        assert close(_h1v_raw(q, vq, u), _h1v_raw(g, vf, full.values))
        assert close(norm_w1p(q, Field(grid=q, values=u), 1.3), norm_w1p(g, full, 1.3))
        # point integrals of integrands even in every axis, such as u^2
        mass_q = _integral(q, u * u)
        assert close(mass_q, _integral(g, full.values**2))
        for lam in (0.0, 0.4):
            params = PerturbationParams(lam=lam, p=1.3)
            pq, pf = _parts_raw(q, vq, u, params), _parts_raw(g, vf, full.values, params)
            for name in ("p_grad", "p_mass", "grad_sq", "v_mass", "mass", "log_int"):
                assert close(getattr(pq, name), getattr(pf, name)), name
            gq = _gradient_raw(q, vq, u, params)
            gf = _gradient_raw(g, vf, full.values, params).reshape(g.shape)[upper].reshape(-1)
            assert float(np.max(np.abs(gq - gf))) <= 1e-13 * float(np.max(np.abs(gf)))


class TestBatchKernels:
    """``_gradient_raw`` and ``_parts_raw`` on the rows of a (B, N) batch
    give, row by row, the bytes of the per-field call."""

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("dim, n, mirror", BATCH_GRIDS)
    def test_rows_are_bit_equal_to_single_calls(self, dim, n, mirror, lam):
        g = batch_grid(dim, n, mirror)
        vvals = Shifted(Harmonic(2.0), 0.5).evaluate(g).values
        u = batch_fields(g)
        params = PerturbationParams(lam=lam, p=1.3)
        grads = _gradient_raw(g, vvals, u, params)
        parts = _parts_raw(g, vvals, u, params)
        assert grads.shape == u.shape
        for i, row in enumerate(u):
            assert grads[i].tobytes() == _gradient_raw(g, vvals, row, params).tobytes()
            one = _parts_raw(g, vvals, row, params)
            for name in ("p_grad", "p_mass", "grad_sq", "v_mass", "mass", "log_int", "total"):
                # at lam = 0 the p-terms are the scalar 0.0 for every row
                got = np.broadcast_to(getattr(parts, name), u.shape[:1])[i]
                assert got.tobytes() == np.float64(getattr(one, name)).tobytes(), name


def _reference_weights(t, p):
    return (t * t + _GRAD_REG_EPS * _GRAD_REG_EPS) ** ((p - 2.0) / 2.0)


def _reference_parts(g, vvals, u, params):
    """The parts of _parts_raw by the grid references, each square
    recomputed where it is used."""
    comps = reference_gradient_components(g, u.reshape(u.shape[:-1] + g.shape))
    parts = {
        "grad_sq": reference_edge_integral(g, [c * c for c in comps]),
        "v_mass": reference_integral(g, vvals * u * u),
        "mass": reference_integral(g, u * u),
        "log_int": reference_integral(g, log_density(u)),
        "p_grad": 0.0,
        "p_mass": 0.0,
    }
    if params.lam > 0.0:
        eps2 = _GRAD_REG_EPS * _GRAD_REG_EPS
        parts["p_grad"] = reference_edge_integral(g, [_reference_weights(c, params.p) * c * c for c in comps])
        parts["p_mass"] = reference_integral(g, (u * u + eps2) ** (params.p / 2.0) - eps2 ** (params.p / 2.0))
    return parts


def _reference_gradient(g, vvals, u, params):
    comps = reference_gradient_components(g, u.reshape(u.shape[:-1] + g.shape))
    lap = reference_neg_div(g, comps).reshape(u.shape)
    core = lap + vvals * u - np.asarray(log_nonlin(u))
    if params.lam > 0.0:
        fluxes = [_reference_weights(c, params.p) * c for c in comps]
        p_part = reference_neg_div(g, fluxes).reshape(u.shape) + _reference_weights(u, params.p) * u
        core = core + params.lam * p_part
    return core


class TestKernelsAgainstReferences:
    """``_parts_raw`` and ``_gradient_raw`` give the bytes of plain
    references built on the grid references of conftest, on one field and
    on a (B, N) batch."""

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("lam, p", [(0.0, 1.5), (0.3, 1.3), (1.0, 1.9)])
    @pytest.mark.parametrize("dim, n, mirror", BATCH_GRIDS)
    def test_bit_equal_to_the_reference(self, dim, n, mirror, lam, p, batched):
        g = batch_grid(dim, n, mirror)
        vvals = Shifted(Harmonic(2.0), 0.5).evaluate(g).values
        params = PerturbationParams(lam=lam, p=p)
        fields = face_zero_fields(g)
        for u in [fields] if batched else fields:
            assert_same_bytes(_gradient_raw(g, vvals, u, params), _reference_gradient(g, vvals, u, params))
            parts = _parts_raw(g, vvals, u, params)
            for name, want in _reference_parts(g, vvals, u, params).items():
                assert_same_bytes(getattr(parts, name), want)
