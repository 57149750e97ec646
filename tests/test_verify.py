"""Margin conventions and pass semantics of the named invariant checks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from lse.energy import _GRAD_REG_EPS, Harmonic, PerturbationParams, energy_parts, el_gradient
from lse.grid import Field, make_grid, quotient_grid
from lse.solver import Preconditioner
from lse.verify import (
    CheckResult,
    check_energy_identity,
    check_geometry,
    check_gradient_fd,
    check_linf,
    check_log_sobolev,
    check_nehari,
    check_scaling,
)

from conftest import gausson_field, random_field

V = Harmonic(2.0)


@pytest.fixture(scope="module")
def gfine():
    return make_grid(1, 8.0, 1022)  # h = 1/64


@pytest.fixture(scope="module")
def gausson(gfine):
    return gausson_field(gfine)


def smooth_fields(g, potential, count, seed=12345):
    """Random fields with bounded discrete gradients (preconditioner-smoothed
    noise at random amplitudes); single-point spikes are excluded on purpose
    since at coarse spacing they violate the continuum-constant inequality."""
    pre = Preconditioner(g, potential)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = pre.solve(rng.standard_normal(g.npoints))
        w = w / np.abs(w).max() * 10 ** rng.uniform(-1, 1)
        out.append(Field(grid=g, values=w))
    return out


class TestRegistry:
    def test_result_names_match_registry(self, gfine, gausson):
        assert check_nehari(gfine, V, gausson).name == "nehari"
        assert check_linf(gausson).name == "linf"

    def test_nonfinite_margin_rejected(self):
        with pytest.raises(ValueError):
            CheckResult(name="nehari", margin=float("nan"), tolerance=1.0, passed=True)


class TestPassRules:
    def test_identity_passes_up_to_its_tolerance(self):
        tol = 1e-10
        assert CheckResult.identity("nehari", tol, tol).passed
        above = CheckResult.identity("nehari", float(np.nextafter(tol, np.inf)), tol)
        assert not above.passed and above.tolerance == tol

    @pytest.mark.parametrize("margin", [0.0, -0.0])
    def test_inequality_passes_at_zero_slack(self, margin):
        res = CheckResult.inequality("linf", margin)
        assert res.passed and res.tolerance == 0.0

    def test_inequality_fails_below_zero(self):
        res = CheckResult.inequality("linf", -5e-324)
        assert not res.passed and res.tolerance == 0.0

    @pytest.mark.parametrize(
        "build", [lambda m: CheckResult.identity("nehari", m, 1.0), lambda m: CheckResult.inequality("linf", m)],
        ids=["identity", "inequality"],
    )
    def test_nan_margin_still_raises(self, build):
        with pytest.raises(ValueError, match="non-finite margin"):
            build(float("nan"))


class TestNehari:
    def test_gausson_discretization_margin(self, gfine, gausson):
        # closed-form critical point: margin is pure O(h^2) stencil error
        res = check_nehari(gfine, V, gausson)
        assert res.margin <= 1e-3
        assert res.passed

    def test_small_constant_smoke(self, gfine):
        u = Field(grid=gfine, values=np.full(gfine.npoints, 1e-3))
        res = check_nehari(gfine, V, u)
        assert np.isfinite(res.margin)  # computed, no claim: not a solution

    def test_non_solution_fails_with_order_unity_margin(self, gfine, gausson):
        # 10x the solution is not a critical point: margin must exceed the
        # tolerance, and the relative normalisation keeps it O(1) instead of
        # letting the quadratic growth of both sides inflate it 100-fold
        big = Field(grid=gfine, values=10.0 * gausson.values)
        res = check_nehari(gfine, V, big)
        assert not res.passed
        assert 0.1 < res.margin < 10.0


class TestEnergyIdentity:
    @pytest.mark.parametrize("lam,p", [(0.37, 1.5), (0.0, 1.5), (1.0, 1.2), (1.0, 1.9)])
    def test_hundred_random_fields(self, lam, p):
        g = make_grid(1, 4.0, 33)
        rng = np.random.default_rng(77)
        params = PerturbationParams(lam=lam, p=p)
        for _ in range(100):
            u = Field(grid=g, values=rng.uniform(-2.0, 2.0, g.npoints))
            res = check_energy_identity(g, V, u, params)
            assert res.margin <= 1e-10
            assert res.passed

    def test_zero_field_zero_margin(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        assert check_energy_identity(grid1d, V, z, PerturbationParams(lam=0.5)).margin == 0.0

    @pytest.mark.parametrize("dim,half_width,points,p", [(1, 8.0, 254, 1.05), (3, 5.0, 16, 1.02)])
    def test_small_fields_near_p_one(self, dim, half_width, points, p):
        # round-off at lam = 0; at lam > 0 the regularized p-mass term leaves
        # a defect of at most lam * eps^p times the box volume
        g = make_grid(dim, half_width, points)
        u = Field(grid=g, values=np.random.default_rng(0).uniform(-2e-3, 2e-3, g.npoints))
        assert check_energy_identity(g, V, u, PerturbationParams(lam=0.0, p=p)).margin <= 1e-15
        bound = _GRAD_REG_EPS**p * (2.0 * half_width) ** dim
        assert check_energy_identity(g, V, u, PerturbationParams(lam=1.0, p=p)).margin <= bound


class TestScaling:
    @pytest.mark.parametrize("mu", [0.3, 1.0, -2.0])
    def test_exact_identity(self, grid1d, mu):
        rng = np.random.default_rng(31)
        for _ in range(10):
            v = random_field(grid1d, rng)
            res = check_scaling(grid1d, V, v, mu)
            assert res.margin <= 1e-12
            assert res.passed

    def test_identity_scaling_is_trivial(self, grid1d):
        v = random_field(grid1d, np.random.default_rng(1))
        assert check_scaling(grid1d, V, v, 1.0).margin <= 1e-15

    def test_mu_zero_rejected(self, grid1d):
        v = random_field(grid1d, np.random.default_rng(2))
        with pytest.raises(ValueError):
            check_scaling(grid1d, V, v, 0.0)


class TestLogSobolev:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_smooth_population(self, a):
        g = make_grid(1, 8.0, 128)
        for u in smooth_fields(g, V, 30):
            res = check_log_sobolev(g, u, a)
            assert res.passed, res.margin

    def test_gausson_saturates_at_matching_width(self, gfine, gausson):
        # the inequality is sharp exactly on Gaussians; at the optimizer
        # width the slack collapses to discretization level
        a_star = float(np.sqrt(np.pi / 2.0))
        near = check_log_sobolev(gfine, gausson, a_star).margin
        assert abs(near) <= 1e-3
        for a in (0.5, 1.0):
            assert check_log_sobolev(gfine, gausson, a).passed

    def test_large_a_dominates(self, gfine, gausson):
        assert check_log_sobolev(gfine, gausson, 100.0).margin > 1e3

    def test_zero_field_rejected(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        with pytest.raises(ValueError):
            check_log_sobolev(grid1d, z, 1.0)

    def test_nonpositive_a_rejected(self, grid1d):
        u = random_field(grid1d, np.random.default_rng(0))
        with pytest.raises(ValueError):
            check_log_sobolev(grid1d, u, 0.0)


class TestLinf:
    def test_gausson_peak_is_e(self, gausson):
        # with an even interior count no lattice site sits exactly at the
        # origin; the peak sample is h/2 away, hence the loose tolerance
        res = check_linf(gausson)
        assert res.margin == pytest.approx(1e3 - np.e, abs=1e-3)
        assert res.passed

    def test_zero_field_full_margin(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        assert check_linf(z).margin == 1e3

    def test_spike_fails(self, grid1d):
        vals = np.zeros(grid1d.npoints)
        vals[5] = 1e6
        res = check_linf(Field(grid=grid1d, values=vals))
        assert not res.passed
        assert res.margin < 0.0

    def test_bad_cap(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        with pytest.raises(ValueError):
            check_linf(z, cap=0.0)


class TestGeometry:
    """The mountain-pass geometry I_lam >= alpha > 0 on a small sphere."""

    @pytest.fixture(scope="class")
    def grid_mid(self):
        return make_grid(1, 8.0, 254)

    def test_positive_at_small_radius(self, grid_mid):
        res = check_geometry(grid_mid, V, PerturbationParams(lam=1.0, p=1.5), 0.5, 200, rng_seed=0)
        assert res.passed and res.margin > 0.0

    def test_quadratic_lower_bound(self, grid_mid):
        # near rho = 0 the barrier is dominated by the quadratic term
        rho = 1e-3
        for lam in (1e-4, 1.0):
            res = check_geometry(grid_mid, V, PerturbationParams(lam=lam, p=1.5), rho, 200, rng_seed=0)
            assert res.name == "geometry" and res.tolerance == 0.0
            assert res.passed and res.margin >= 0.25 * rho * rho

    def test_preconditions(self, grid1d):
        params = PerturbationParams(lam=1.0)
        with pytest.raises(ValueError):
            check_geometry(grid1d, V, params, 0.5, 0)
        with pytest.raises(ValueError):
            check_geometry(grid1d, V, params, 0.0, 10)


class TestGradientFd:
    def test_default_seed_passes_small_grid(self):
        g = make_grid(1, 4.0, 17)
        res = check_gradient_fd(g, V, PerturbationParams(lam=1.0, p=1.5), trials=20)
        assert res.passed
        assert res.margin <= 1e-6

    def test_small_amplitude_at_lambda_zero(self):
        # near the origin of field space the log nonlinearity is still C^1
        # after continuous extension and the gradient formula stays FD-exact;
        # the p-term is excluded (lam=0) because |t|^(p-1) has unbounded
        # second derivative at 0.  Amplitude stops at 1e-2: below that the
        # *quotient itself* degrades, since the third derivative of
        # t^2 log t^2 grows like 1/t and central differencing picks it up.
        g = make_grid(1, 4.0, 17)
        params = PerturbationParams(lam=0.0)
        rng = np.random.default_rng(8)
        vol = g.spacing
        eps = 1e-5
        for _ in range(5):
            u_vals = rng.uniform(-1e-2, 1e-2, g.npoints)
            phi = rng.uniform(-2.0, 2.0, g.npoints)
            grad = el_gradient(g, V, Field(grid=g, values=u_vals), params)
            pair = vol * float(np.dot(grad.values, phi))
            ep = energy_parts(g, V, Field(grid=g, values=u_vals + eps * phi), params).total
            em = energy_parts(g, V, Field(grid=g, values=u_vals - eps * phi), params).total
            quotient = (ep - em) / (2.0 * eps)
            assert abs(pair - quotient) / (1.0 + abs(quotient)) <= 1e-6

    def test_zero_trials_rejected(self, grid1d):
        with pytest.raises(ValueError):
            check_gradient_fd(grid1d, V, PerturbationParams(lam=0.5), trials=0)


def _reference_gradient_fd_margin(g, potential, params, trials, rng_seed):
    """The per-trial loop that the chunked check replaced, one field per
    kernel call, kept as the reference for bit equality."""
    rng = np.random.default_rng(rng_seed)
    vol = g.weight
    worst = 0.0
    eps = 1e-5
    for _ in range(trials):
        u_vals = rng.uniform(-2.0, 2.0, size=g.npoints)
        phi = rng.uniform(-2.0, 2.0, size=g.npoints)
        u = Field(grid=g, values=u_vals)
        grad = el_gradient(g, potential, u, params)
        pair = vol * float(np.dot(grad.values, phi))
        e_plus = energy_parts(g, potential, Field(grid=g, values=u_vals + eps * phi), params).total
        e_minus = energy_parts(g, potential, Field(grid=g, values=u_vals - eps * phi), params).total
        quotient = (e_plus - e_minus) / (2.0 * eps)
        worst = max(worst, abs(pair - quotient) / (1.0 + abs(quotient)))
    return worst


class TestGradientFdChunks:
    """The gradient check's trials share kernel calls in chunks of at most
    ``_BATCH_VALUES`` shifted values; the margin does not change."""

    @pytest.mark.parametrize(
        "dim, n, mirror, trials",
        [
            (1, 17, (), 10),  # 240 trials per call: one chunk
            (1, 1022, (), 10),  # 4 per call: chunks of 4, 4 and 2
            (2, 60, (-1, 1), 7),  # a 30^2 quotient grid, 4 per call: chunks of 4 and 3
            (3, 16, (), 3),  # 2N equals the cap: one trial per call
            (1, 5000, (), 3),  # 2N above the cap: one field per call
            (2, 190, (), 2),  # the gausson_2d grid, above the cap
        ],
    )
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_margin_is_bit_equal_to_the_per_trial_loop(self, dim, n, mirror, trials, lam):
        g = make_grid(dim, 4.0, n)
        if mirror:
            g = quotient_grid(g, mirror)
        params = PerturbationParams(lam=lam, p=1.5)
        res = check_gradient_fd(g, V, params, trials=trials, rng_seed=11)
        want = _reference_gradient_fd_margin(g, V, params, trials, 11)
        assert type(res.margin) is float
        assert repr(res.margin) == repr(want)

    @pytest.mark.parametrize(
        "dim, n, bound_mb", [(1, 1022, 1.0), (3, 16, 1.0), (2, 190, 3.3)]
    )
    def test_peak_memory_is_bounded(self, dim, n, bound_mb):
        # the per-trial loop peaked at about 0.08, 0.38 and 2.9 MB here
        g = make_grid(dim, 4.0, n)
        V.evaluate(g)  # the potential's cached values are not the check's
        params = PerturbationParams(lam=0.0, p=1.5)
        tracemalloc.start()
        try:
            check_gradient_fd(g, V, params, trials=10, rng_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6
