"""Mountain-pass search, descent, and continuation to the unperturbed limit."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import lse.solver as solver_mod
from lse.energy import (
    _GRAD_REG_EPS,
    EnergyParts,
    Harmonic,
    PerturbationParams,
    Shifted,
    _gradient_raw,
    _log_abs,
    _parts_raw,
    el_gradient,
    energy_parts,
    norm_w1p,
)
from lse.grid import Field, _gradient_components, make_grid, norm_h1v, quotient_grid
from lse.multiplicity import find_k_solutions, structured_seed
from lse.solver import (
    CollapseError,
    ContinuationSchedule,
    ConvergenceFailure,
    GeometryFailure,
    MountainPassConfig,
    Preconditioner,
    SolverError,
    continue_to_limit,
    descend,
    mountain_pass,
)
from lse.verify import check_nehari

from conftest import gausson_field, neg_laplacian, random_field

V_HARMONIC = Harmonic(2.0)
V_SHIFTED = Shifted(Harmonic(2.0), 1.0)


@pytest.fixture(scope="module")
def grid_mid():
    """Mid-resolution production grid (h = 1/16), origin off-grid."""
    return make_grid(1, 8.0, 254)


@pytest.fixture(scope="module")
def ground_run(grid_mid):
    """One continuation run to lam = 0, shared by the limit-identity tests."""
    sched = ContinuationSchedule()
    params = PerturbationParams(lam=1.0, p=1.5)
    cfg = MountainPassConfig()
    return continue_to_limit(grid_mid, V_HARMONIC, sched, params, cfg)


class TestConfigs:
    def test_mountain_pass_config_defaults(self):
        cfg = MountainPassConfig()
        assert cfg.descent_tol == 1e-6
        assert cfg.max_outer == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"descent_tol": 0.0},
            {"descent_tol": -1e-6},
            {"max_outer": 0},
        ],
    )
    def test_mountain_pass_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MountainPassConfig(**kwargs)

    def test_schedule_geometric(self):
        lams = ContinuationSchedule(lambda_start=1.0, ratio=0.1, lambda_min=1e-4).lambdas()
        np.testing.assert_allclose(lams, [1.0, 0.1, 0.01, 1e-3, 1e-4], rtol=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ratio": 1.0},  # schedule would never terminate
            {"ratio": 0.0},
            {"ratio": 1.2},
            {"lambda_start": 0.0},
            {"lambda_start": 1.5},
            {"lambda_min": 0.0},
            {"lambda_min": 2.0},  # above lambda_start
            {"ratio": 0.9999999, "lambda_min": 1e-300},  # about 6.9e9 stages
        ],
    )
    def test_schedule_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ContinuationSchedule(**kwargs)

    def test_error_hierarchy(self):
        for exc in (CollapseError, ConvergenceFailure, GeometryFailure):
            assert issubclass(exc, SolverError)


class TestPreconditioner:
    def test_solves_the_stated_operator(self, grid1d):
        pre = Preconditioner(grid1d, V_HARMONIC)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(grid1d.npoints)
        z = pre.solve(rhs)
        # forward-apply (-Lap + V + 1) and compare
        vvals = V_HARMONIC.evaluate(grid1d).values
        back = neg_laplacian(grid1d, z) + (vvals + 1.0) * z
        assert float(np.max(np.abs(back - rhs))) <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))


def _coo_linearized_matrix(g, vvals, u, params):
    """The COO assembly of the step operator that the cached stencil
    pattern replaced, kept as the reference for bit equality."""
    lam, p, eps = params.lam, params.p, _GRAD_REG_EPS
    n, h = g.points_per_dim, g.spacing
    comps = _gradient_components(g, u.reshape(g.shape))
    idx = np.arange(g.npoints).reshape(g.shape)
    diag = np.zeros(g.shape)
    rows, cols, vals = [], [], []
    for d, c in enumerate(comps):
        g2 = c * c
        coeff = (g2 + eps * eps) ** ((p - 2.0) / 2.0) * (
            1.0 + (p - 2.0) * g2 / (g2 + eps * eps)
        )
        coeff = 1.0 + lam * coeff
        left = np.take(coeff, range(0, n), axis=d)
        right = np.take(coeff, range(1, n + 1), axis=d)
        diag += (left + right) / h**2
        inner = np.take(coeff, range(1, n), axis=d) / h**2
        a = np.take(idx, range(0, n - 1), axis=d).reshape(-1)
        b = np.take(idx, range(1, n), axis=d).reshape(-1)
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-inner.reshape(-1), -inner.reshape(-1)))
    diag = diag.reshape(-1) + vvals + 1.0
    u2 = u * u
    diag = diag + lam * ((u2 + eps * eps) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * u2 / (u2 + eps * eps)))
    a_mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.npoints, g.npoints),
    ).tocsr()
    return a_mat + sp.diags(diag)


def _matrix(g, values):
    """The CSC matrix of an operator given as its values on the stencil
    pattern of g, as the SuperLU owner builds it."""
    indptr, indices, _, _ = solver_mod._stencil_pattern(g.dim, g.points_per_dim)
    return sp.csc_matrix((values, indices, indptr), shape=(g.npoints, g.npoints))


def _assert_bit_equal(got, want):
    got, want = got.tocsc(), want.tocsc()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


STENCIL_GRIDS = [(1, 24), (2, 9), (3, 5)]
# (dim, full n, mirror): every dimension with all-even, all-odd and mixed faces
QUOTIENT_GRIDS = [
    (dim, n, mirror)
    for dim, n in [(1, 24), (2, 10), (3, 8)]
    for mirror in dict.fromkeys([(1,) * dim, (-1,) * dim, (-1, 1, -1)[:dim], (1, -1, 1)[:dim]])
]


class TestStepOperators:
    """The step and Newton operators and the fixed operator, all filled
    into one cached stencil pattern per grid."""

    @staticmethod
    def smooth_state(dim, n, mirror=()):
        # at least 2 and increasing along every axis: u and its edge
        # differences stay away from zero, where the log and p terms are
        # not smooth on the scale of a finite difference (an even mirror
        # edge is exactly 0 whatever u is)
        g = make_grid(dim, 3.0, n)
        if mirror:
            g = quotient_grid(g, mirror)
        rng = np.random.default_rng(dim)
        nd = 2.0 + 0.1 * np.indices(g.shape).sum(axis=0) + 0.03 * rng.random(g.shape)
        return g, V_HARMONIC.evaluate(g).values, nd.reshape(-1)

    @staticmethod
    def tiny_state(dim, n, mirror=()):
        # every |u| in [1e-12, 1e-9], on both sides of the p-terms' eps =
        # 1e-10, with random signs: where the p-mass curvature is furthest
        # from its eps -> 0 limit (p-1) w(u)
        g, vvals, _ = TestStepOperators.smooth_state(dim, n, mirror)
        rng = np.random.default_rng(dim)
        u = rng.choice([-1.0, 1.0], g.npoints) * 10.0 ** rng.uniform(-12.0, -9.0, g.npoints)
        return g, vvals, u

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_newton_matrix_is_the_jacobian(self, dim, n, lam):
        self.check_newton_matrix(self.smooth_state(dim, n), lam, 1.5, 1e-5, 1e-6)

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    @pytest.mark.parametrize("dim, n, mirror", QUOTIENT_GRIDS)
    def test_newton_matrix_is_the_jacobian_on_quotient_grids(self, dim, n, mirror, lam):
        self.check_newton_matrix(self.smooth_state(dim, n, mirror), lam, 1.5, 1e-5, 1e-6)

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("lam", [0.1, 1.0])
    @pytest.mark.parametrize("dim, n, mirror", [(dim, n, ()) for dim, n in STENCIL_GRIDS] + QUOTIENT_GRIDS)
    def test_newton_matrix_is_the_jacobian_on_tiny_fields(self, dim, n, mirror, lam, p):
        # the difference step is small against the smallest |u|, so no
        # entry changes sign and the p-mass and log curvatures are resolved
        state = self.tiny_state(dim, n, mirror)
        self.check_newton_matrix(state, lam, p, 1e-3 * float(np.abs(state[2]).min()), 1e-5)

    @staticmethod
    def check_newton_matrix(state, lam, p, t, rtol):
        """The Newton matrix times a random v against the central difference
        of the gradient with step t, within rtol of the product's norm."""
        g, vvals, u = state
        params = PerturbationParams(lam=lam, p=p)
        v = np.random.default_rng(1).standard_normal(g.npoints)
        fd = (_gradient_raw(g, vvals, u + t * v, params) - _gradient_raw(g, vvals, u - t * v, params)) / (2.0 * t)
        jv = _matrix(g, solver_mod._newton_matrix(g, vvals, u, params)) @ v
        assert np.linalg.norm(jv - fd) <= rtol * np.linalg.norm(jv)

    @pytest.mark.parametrize("dim, n, mirror", QUOTIENT_GRIDS)
    def test_preconditioner_solves_the_lambda_zero_step_operator(self, dim, n, mirror):
        # the fixed operator's face diagonal against the mirror rows of the
        # step operator; every quotient grid here is factored
        g, vvals, u = self.smooth_state(dim, n, mirror)
        rhs = np.random.default_rng(3).standard_normal(g.npoints)
        z = Preconditioner(g, V_HARMONIC).solve(rhs)
        back = _matrix(g, solver_mod._linearized_matrix(g, vvals, u, PerturbationParams(lam=0.0))) @ z
        assert float(np.max(np.abs(back - rhs))) <= 1e-10 * float(np.max(np.abs(rhs)))

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_linearized_matrix_at_lambda_zero_is_the_fixed_operator(self, dim, n):
        g, vvals, u = self.smooth_state(dim, n)
        v = np.random.default_rng(2).standard_normal(g.npoints)
        got = _matrix(g, solver_mod._linearized_matrix(g, vvals, u, PerturbationParams(lam=0.0))) @ v
        want = neg_laplacian(g, v) + (vvals + 1.0) * v
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * float(np.abs(want).max()))

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_pattern_is_the_canonical_symmetric_stencil(self, dim, n):
        g, vvals, u = self.smooth_state(dim, n)
        for values in (
            solver_mod._linearized_matrix(g, vvals, u, PerturbationParams(lam=0.1)),
            solver_mod._newton_matrix(g, vvals, u, PerturbationParams(lam=0.1)),
        ):
            assert type(values) is np.ndarray
            a = _matrix(g, values)
            assert a.format == "csc"
            assert a.has_canonical_format
            assert a.nnz == n**dim + 2 * dim * (n - 1) * n ** (dim - 1)
            assert (a != a.T).nnz == 0

    def test_cached_pattern_is_read_only(self):
        pattern = solver_mod._stencil_pattern(2, 5)
        assert solver_mod._stencil_pattern(2, 5) is pattern
        indptr, indices, diag, edges = pattern
        for arr in [indptr, indices, diag] + [positions for edge in edges for positions in edge]:
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_assembly_is_bit_equal_to_the_coo_reference(self, dim, n, lam, p):
        g = make_grid(dim, 3.0, n)
        vvals = V_HARMONIC.evaluate(g).values
        u = 3.0 * np.random.default_rng(dim).standard_normal(g.npoints)
        u[::5] = 0.0  # log-term curvature at its _log_abs floor
        params = PerturbationParams(lam=lam, p=p)
        want = _coo_linearized_matrix(g, vvals, u, params)
        _assert_bit_equal(_matrix(g, solver_mod._linearized_matrix(g, vvals, u, params)), want)
        _assert_bit_equal(
            _matrix(g, solver_mod._newton_matrix(g, vvals, u, params)),
            want - sp.diags(3.0 + 2.0 * _log_abs(u)),
        )

    @staticmethod
    def fixed_operator(g, potential, monkeypatch):
        """The one matrix that ``Preconditioner(g, potential)`` factors."""
        factored = []
        factor = solver_mod._Factorization.factor

        def recorded(self, values):
            factored.append(values)
            factor(self, values)

        monkeypatch.setattr(solver_mod._Factorization, "factor", recorded)
        Preconditioner(g, potential)
        assert len(factored) == 1
        return _matrix(g, factored[0])

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_fixed_operator_is_bit_equal_to_the_coo_reference(self, dim, n, monkeypatch):
        g = make_grid(dim, 3.0, n)
        vvals = V_SHIFTED.evaluate(g).values
        want = _coo_linearized_matrix(g, vvals, np.zeros(g.npoints), PerturbationParams(lam=0.0))
        _assert_bit_equal(self.fixed_operator(g, V_SHIFTED, monkeypatch), want)

    @pytest.mark.parametrize("dim, n, mirror", QUOTIENT_GRIDS)
    def test_fixed_operator_is_the_lambda_zero_step_operator(self, dim, n, mirror, monkeypatch):
        # at lam = 0 the step operator does not depend on the iterate, so the
        # fixed operator is bit-equal to it at any state
        g, vvals, u = self.smooth_state(dim, n, mirror)
        want = _matrix(g, solver_mod._linearized_matrix(g, vvals, u, PerturbationParams(lam=0.0)))
        _assert_bit_equal(self.fixed_operator(g, V_HARMONIC, monkeypatch), want)


class TestBandedFactorization:
    """Narrow-band step and Newton operators are factored by LAPACK banded
    LU, which must solve what SuperLU solves."""

    @pytest.mark.parametrize("matrix", ["_linearized_matrix", "_newton_matrix"])
    @pytest.mark.parametrize(
        "dim, n, mirror", [(dim, n, ()) for dim, n in STENCIL_GRIDS] + QUOTIENT_GRIDS
    )
    def test_banded_solve_matches_superlu(self, dim, n, mirror, matrix):
        g = make_grid(dim, 3.0, n)
        if mirror:
            g = quotient_grid(g, mirror)
        vvals = V_HARMONIC.evaluate(g).values
        rng = np.random.default_rng(dim)
        u = 3.0 * rng.standard_normal(g.npoints)
        u[::5] = 0.0  # log-term curvature at its _log_abs floor
        values = getattr(solver_mod, matrix)(g, vvals, u, PerturbationParams(lam=0.1, p=1.5))
        a = _matrix(g, values)
        rhs = rng.standard_normal(g.npoints)
        banded = solver_mod._BandedFactorization(g.dim, g.points_per_dim)
        superlu = solver_mod._Factorization(g.dim, g.points_per_dim)
        banded.factor(values)
        superlu.factor(values)
        x, want = banded.solve(rhs), superlu.solve(rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "dim, n, banded", [(1, 1022, True), (2, 30, True), (3, 16, True), (2, 190, False)]
    )
    def test_band_width_selects_the_kernel(self, dim, n, banded):
        # the quotient grids of ladder_1d (511), the largest sweep grids
        # (15^2, 8^3) and gausson_2d (95^2)
        g = quotient_grid(make_grid(dim, 6.0, n), (1,) * dim)
        owner = solver_mod._step_factorization(g)
        want = solver_mod._BandedFactorization if banded else solver_mod._Factorization
        assert type(owner) is want

    @pytest.mark.parametrize(
        "owner", [lambda: solver_mod._BandedFactorization(2, 6), lambda: solver_mod._Factorization(2, 6)],
        ids=["banded", "superlu"],
    )
    def test_zero_pivot_raises_convergence_failure(self, owner):
        g = make_grid(2, 3.0, 6)
        values = solver_mod._linearized_matrix(
            g, V_HARMONIC.evaluate(g).values, np.ones(g.npoints), PerturbationParams(lam=0.1)
        )
        lu = owner()
        lu.factor(values)  # a good factor, kept as a Newton Jacobian's where lagged
        lu.holds_jacobian = lu.lags_jacobian
        indptr = solver_mod._stencil_pattern(2, 6)[0]
        values[indptr[7] : indptr[8]] = 0.0  # column 7 vanishes: exactly singular
        with pytest.raises(ConvergenceFailure, match="singular"):
            lu.factor(values)
        # no later chord step may solve with the old factor or with none
        assert not lu.holds_jacobian
        assert lu._lu is None


class TestRayPeak:
    @pytest.mark.parametrize("lam", [1.0, 1e-4])
    def test_peak_is_the_root_of_the_ray_derivative(self, lam):
        # the brentq root that the safeguarded Newton iteration replaced
        from scipy.optimize import brentq

        g = make_grid(2, 4.0, 20)
        vvals = V_HARMONIC.evaluate(g).values
        rng = np.random.default_rng(5)
        for p in (1.05, 1.5, 1.95):
            params = PerturbationParams(lam=lam, p=p)
            for scale in (1e-3, 1.0, 30.0):
                parts = solver_mod._parts_raw(g, vvals, scale * rng.standard_normal(g.npoints), params)

                def psi(t):
                    return (
                        lam * t ** (p - 2.0) * (parts.p_grad + parts.p_mass)
                        + parts.grad_sq + parts.v_mass - parts.log_int - 2.0 * parts.mass * np.log(t)
                    )

                t = solver_mod._ray_peak_factor(parts, params)
                want = brentq(psi, t / 4.0, t * 4.0, xtol=1e-300, rtol=8.9e-16)
                assert t == pytest.approx(want, rel=1e-14)

    @staticmethod
    def parts(lam, p, p_terms, q_minus_s, mass=1.0):
        """EnergyParts with the given p-terms (split in two halves), Q - S
        (as -log_int) and mass."""
        return EnergyParts(
            lam=lam, p=p, p_grad=0.5 * p_terms, p_mass=0.5 * p_terms,
            grad_sq=0.0, v_mass=0.0, mass=mass, log_int=-q_minus_s,
        )

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("lam", [1.0, 1e-4])
    @pytest.mark.parametrize("root", [-49.0, -45.0, 45.0, 49.0])
    def test_far_peak_is_the_root_of_the_ray_derivative(self, root, lam, p):
        # log t* beyond +-60 log 2: the lam = 0 peak s0 lies 3 below the root,
        # and at -49 it is clipped to -50
        from scipy.optimize import brentq

        p_terms = 6.0 / (lam * np.exp((p - 2.0) * root))
        parts = self.parts(lam, p, p_terms, 2.0 * (root - 3.0))

        def psi(t):
            return lam * t ** (p - 2.0) * p_terms + 2.0 * (root - 3.0) - 2.0 * np.log(t)

        t = solver_mod._ray_peak_factor(parts, PerturbationParams(lam=lam, p=p))
        want = brentq(psi, t / 4.0, t * 4.0, xtol=1e-300, rtol=8.9e-16)
        assert np.log(want) == pytest.approx(root, abs=1e-12)
        assert t == pytest.approx(want, rel=1e-14)

    def test_lambda_zero_peak_is_the_clipped_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            mass = 10.0 ** rng.uniform(-6.0, 6.0)
            q_minus_s = mass * rng.uniform(-130.0, 130.0)
            parts = self.parts(0.0, 1.5, 0.0, q_minus_s, mass)
            t = solver_mod._ray_peak_factor(parts, PerturbationParams(lam=0.0))
            assert t == float(np.exp(np.clip(q_minus_s / (2.0 * mass), -50.0, 50.0)))

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("s0", [-1e6, 1e6])
    def test_peak_beyond_the_bounds_is_the_bound(self, s0, p):
        # p-terms small enough that the root of s0 = -1e6 lies below -50
        parts = self.parts(1.0, p, 1e-20, 2.0 * s0)
        t = solver_mod._ray_peak_factor(parts, PerturbationParams(lam=1.0, p=p))
        assert t == float(np.exp(np.copysign(50.0, s0)))


class TestSeed:
    def test_default_seed_unit_norm(self, grid1d):
        e = structured_seed(grid1d, 1, V_HARMONIC)
        assert norm_h1v(grid1d, V_HARMONIC, e) == pytest.approx(1.0, rel=1e-12)


class TestDescend:
    def test_gausson_near_critical_at_lambda_zero(self):
        # the closed form is critical up to O(h^2); the default descent
        # (with the ray re-maximisation that pins the unstable direction)
        # only needs to polish it
        g = make_grid(1, 8.0, 1022)
        u0 = gausson_field(g)
        cfg = MountainPassConfig()
        res = descend(g, V_HARMONIC, u0, PerturbationParams(lam=0.0), cfg)
        assert res.converged
        assert res.iterations <= 5
        assert res.residual <= cfg.descent_tol * 10.0

    def test_armijo_step_at_lambda_zero(self):
        # a start far from the Gausson takes one Armijo step through the
        # lam = 0 step operator before Newton; the run from near it takes none
        g = make_grid(1, 6.0, 64)
        r2 = g.radius_squared().reshape(-1)
        params = PerturbationParams(lam=0.0)
        res = descend(g, V_HARMONIC, Field(grid=g, values=np.exp(-r2 / 4.0)), params, MountainPassConfig())
        assert res.converged
        assert res.iterations - res.newton_steps == 1 and res.newton_steps == 4
        assert res.factorizations == res.iterations == 5
        near = descend(g, V_HARMONIC, Field(grid=g, values=np.exp(-2.0 * r2)), params, MountainPassConfig())
        assert near.converged and near.iterations == near.newton_steps
        energy = energy_parts(g, V_HARMONIC, res.field, params).total
        assert energy == pytest.approx(energy_parts(g, V_HARMONIC, near.field, params).total, rel=1e-12)
        assert energy == pytest.approx(4.5908266747, rel=1e-10)

    def test_zero_start_is_fixed_point(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        res = descend(grid1d, V_HARMONIC, z, PerturbationParams(lam=1.0), MountainPassConfig())
        assert res.iterations == 0
        assert res.converged
        assert res.residual == 0.0

    def test_energy_monotone_over_random_starts(self, grid1d, monkeypatch):
        # the stabilizer runs before every Armijo step and after each one
        # that Newton does not take over from, so I of one call's output and
        # I of the next call's input are the energies at the two ends of one
        # Armijo step
        calls = []
        subspace = solver_mod._subspace_local_max

        def recorded(g, vvals, u, params, *args):
            out = subspace(g, vvals, u, params, *args)
            calls.append((_parts_raw(g, vvals, u, params).total, _parts_raw(g, vvals, out, params).total))
            return out

        monkeypatch.setattr(solver_mod, "_subspace_local_max", recorded)
        cfg = MountainPassConfig(max_outer=40)
        params = PerturbationParams(lam=0.5, p=1.5)
        rng = np.random.default_rng(123)
        for _ in range(20):
            u0 = random_field(grid1d, rng, scale=2.0)
            calls.clear()
            descend(grid1d, V_HARMONIC, u0, params, cfg)
            # the ray rescale before each step moves back up to the ridge, so
            # the energy falls within each Armijo step, not across them
            steps = [(e0, e1) for (_, e0), (e1, _) in zip(calls, calls[1:])]
            assert steps
            assert all(e1 <= e0 for e0, e1 in steps)

    def test_mass_floor_reports_collapse(self, grid1d, monkeypatch):
        monkeypatch.setattr(solver_mod, "_MASS_FLOOR", 1e6)
        u0 = random_field(grid1d, np.random.default_rng(3), scale=1e-3)
        res = descend(grid1d, V_HARMONIC, u0, PerturbationParams(lam=1.0), MountainPassConfig(max_outer=50))
        assert res.collapsed


class TestFailureExits:
    """The exits of a descent that finds no step, and the errors they raise
    in a solve; no benchmark config reaches them."""

    @staticmethod
    def start():
        g = make_grid(1, 6.0, 64)
        u0 = Field(grid=g, values=np.random.default_rng(1).uniform(-2.0, 2.0, g.npoints))
        return g, u0, PerturbationParams(lam=0.5, p=1.5)

    def test_armijo_stagnation(self, monkeypatch):
        # no step length meets an unmeetable sufficient decrease
        monkeypatch.setattr(solver_mod, "_ARMIJO_C1", 1e300)
        g, u0, params = self.start()
        res = descend(g, V_HARMONIC, u0, params, MountainPassConfig())
        assert res.stagnated and not res.converged
        assert res.iterations == 0

    def test_newton_stagnation(self, monkeypatch):
        # the negated Jacobian steps uphill in the residual at every damping;
        # this start reaches the Newton finish after three Armijo steps
        newton_matrix = solver_mod._newton_matrix
        monkeypatch.setattr(solver_mod, "_newton_matrix", lambda *args: -newton_matrix(*args))
        g, u0, params = self.start()
        res = descend(g, V_HARMONIC, u0, params, MountainPassConfig())
        assert res.stagnated and not res.converged
        assert res.iterations == 3 and res.newton_steps == 0
        with pytest.raises(ConvergenceFailure, match="line search stagnated"):
            continue_to_limit(g, V_HARMONIC, ContinuationSchedule(), params, MountainPassConfig())

    def test_collapse_raises(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_MASS_FLOOR", 1e300)
        g, _, params = self.start()
        with pytest.raises(CollapseError, match="iterate collapsed to zero at lam=1$"):
            continue_to_limit(g, V_HARMONIC, ContinuationSchedule(), params, MountainPassConfig())


class TestNewtonFinish:
    """Once the residual is small, descend finishes with damped Newton."""

    @pytest.fixture
    def setup2d(self, monkeypatch):
        g = make_grid(2, 4.0, 30)
        precond = Preconditioner(g, V_HARMONIC)  # its factorization is not counted
        owners = []
        for owner in (solver_mod._Factorization, solver_mod._BandedFactorization):
            monkeypatch.setattr(owner, "factor", self.counted(owner, owners))
        return g, precond, gausson_field(g), owners

    @staticmethod
    def counted(owner, owners):
        """``owner.factor`` that also records the owner class of each call."""
        factor = owner.factor

        def recorded(self, values):
            owners.append(owner)
            factor(self, values)

        return recorded

    @staticmethod
    def newton_iterates(monkeypatch, jacobian_scale=1.0):
        """Record the iterate of every Newton step; optionally scale the
        Jacobian so that the undamped steps overshoot."""
        iterates = []
        newton_matrix = solver_mod._newton_matrix

        def recorded(g, vvals, u, params):
            iterates.append(u.copy())
            return jacobian_scale * newton_matrix(g, vvals, u, params)

        monkeypatch.setattr(solver_mod, "_newton_matrix", recorded)
        return iterates

    @staticmethod
    def residual(g, precond, params, u):
        grad = el_gradient(g, V_HARMONIC, Field(grid=g, values=u), params)
        return norm_h1v(g, V_HARMONIC, Field(grid=g, values=precond.solve(grad.values)))

    def test_newton_finish_converges_in_a_few_steps(self, setup2d, monkeypatch):
        g, precond, u0, owners = setup2d
        iterates = self.newton_iterates(monkeypatch)
        params = PerturbationParams(lam=0.1, p=1.5)
        res = descend(g, V_HARMONIC, u0, params, MountainPassConfig(), precond=precond)
        assert res.converged
        assert 1 <= res.newton_steps <= res.iterations <= 6
        # one banded factorization per iteration, Newton steps included (the
        # 30^2 grid has a band of 30)
        assert owners == [solver_mod._BandedFactorization] * res.iterations
        assert len(iterates) == res.newton_steps
        # the energy that the Armijo descent alone reaches at this tolerance
        energy = energy_parts(g, V_HARMONIC, res.field, params).total
        assert energy == pytest.approx(50.47089351278723, rel=1e-10)

    def test_accepted_newton_steps_lower_the_residual(self, setup2d, monkeypatch):
        # with the Jacobian scaled by 0.4 every undamped step is 2.5 times
        # too long and raises the residual; damping must reject it
        g, precond, u0, _ = setup2d
        iterates = self.newton_iterates(monkeypatch, jacobian_scale=0.4)
        params = PerturbationParams(lam=0.1, p=1.5)
        res = descend(g, V_HARMONIC, u0, params, MountainPassConfig(), precond=precond)
        assert res.converged
        assert res.newton_steps >= 2
        resid = [self.residual(g, precond, params, u) for u in iterates + [res.field.values]]
        assert all(b < a for a, b in zip(resid, resid[1:]))

    @pytest.fixture
    def superlu2d(self, monkeypatch):
        """The grid of ``setup2d`` with its step and Newton operators moved to
        SuperLU, and a log of the factor and solve calls of the step owner."""
        monkeypatch.setattr(solver_mod, "_BANDED_LIMIT", 0)
        g = make_grid(2, 4.0, 30)
        precond = Preconditioner(g, V_HARMONIC)
        events = []
        for name in ("factor", "solve"):

            def logged(self, arg, method=getattr(solver_mod._Factorization, name), name=name):
                if self is not precond._lu:
                    events.append(name)
                return method(self, arg)

            monkeypatch.setattr(solver_mod._Factorization, name, logged)
        return g, precond, events

    def test_chord_steps_reuse_the_jacobian_across_stages(self, superlu2d, monkeypatch):
        g, precond, events = superlu2d
        iterates = self.newton_iterates(monkeypatch)
        args = (g, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig())
        _, lagged = continue_to_limit(*args, precond=precond)
        assert lagged.factorizations == events.count("factor")
        assert len(iterates) < lagged.newton_steps
        # without the lag every Newton step factors its own Jacobian
        monkeypatch.setattr(solver_mod._Factorization, "lags_jacobian", False)
        iterates.clear()
        _, fresh = continue_to_limit(*args, precond=precond)
        assert len(iterates) == fresh.newton_steps > lagged.factorizations
        assert lagged.records[-1].energy == pytest.approx(fresh.records[-1].energy, rel=1e-12)

    # the owner's calls per step: a chord trial is a solve before any factor
    KEPT, NEWTON, REFACTORED = ("solve",), ("factor", "solve"), ("solve", "factor", "solve")

    def stepwise(self, superlu2d, iterates, params):
        """The descent from the Gausson on ``superlu2d`` with its own step
        owner, the start of each of its steps, the owner's calls per step
        and the iterates of its Jacobians, and the residuals of the starts
        and of the final field."""
        g, precond, events = superlu2d

        def run(**budget):
            events.clear()
            iterates.clear()
            res = descend(g, V_HARMONIC, gausson_field(g), params, MountainPassConfig(**budget), precond=precond)
            return res, list(events), list(iterates)

        res, _, jacobians = run()
        # the descent is deterministic, so a run cut after m steps ends where
        # step m + 1 of the full run starts, with the full run's first m steps
        # logged; a tolerance met at once gives the start of step 1
        starts, logs = [run(descent_tol=1e9)[0].field.values], [[]]
        for m in range(1, res.iterations + 1):
            cut, log, _ = run(max_outer=m)
            assert cut.iterations == m
            starts.append(cut.field.values)
            logs.append(log)
        assert np.array_equal(starts.pop(), res.field.values)
        assert res.newton_steps == res.iterations == len(starts)
        steps = [tuple(b[len(a):]) for a, b in zip(logs, logs[1:])]
        # every factor is of the Jacobian at its step's iterate
        factored = [u for u, step in zip(starts, steps) if "factor" in step]
        assert all(np.array_equal(a, b) for a, b in zip(jacobians, factored, strict=True))
        resid = [self.residual(g, precond, params, u) for u in starts + [res.field.values]]
        return res, steps, resid

    @pytest.mark.parametrize("jacobian_scale", [1.0, 0.4])
    def test_chord_and_newton_steps_lower_the_residual(self, superlu2d, monkeypatch, jacobian_scale):
        # with the Jacobian scaled by 0.4 every undamped chord step is 2.5
        # times too long, so each is rejected and the Jacobian refactored at
        # the same iterate; at scale 1 chord steps are kept
        iterates = self.newton_iterates(monkeypatch, jacobian_scale=jacobian_scale)
        res, steps, resid = self.stepwise(superlu2d, iterates, PerturbationParams(lam=0.1, p=1.5))
        assert res.converged
        assert steps[0] == self.NEWTON and set(steps) <= {self.KEPT, self.NEWTON, self.REFACTORED}
        if jacobian_scale == 1.0:
            assert steps.count(self.KEPT) >= 2
        else:
            assert steps[1:] == [self.REFACTORED] * (res.newton_steps - 1) and res.newton_steps >= 3
        assert all(b < a for a, b in zip(resid, resid[1:]))

    def test_slow_chord_step_is_kept_and_refactors_at_its_iterate(self, superlu2d, monkeypatch):
        # with the Jacobian scaled by 2.5 every undamped step is 0.4 times
        # too short and cuts the residual by about 0.6: a chord step then
        # lowers it by 1% but not below theta, so it is kept and the next
        # step factors the Jacobian at the iterate it reached
        iterates = self.newton_iterates(monkeypatch, jacobian_scale=2.5)
        res, steps, resid = self.stepwise(superlu2d, iterates, PerturbationParams(lam=0.1, p=1.5))
        assert res.converged and res.discarded_trials == 0
        assert res.newton_steps >= 5
        assert steps[::2] == [self.NEWTON] * len(steps[::2])
        assert steps[1::2] == [self.KEPT] * len(steps[1::2])
        chords = [b / a for (a, b), step in zip(zip(resid, resid[1:]), steps) if step == self.KEPT]
        assert all(solver_mod._CHORD_THETA < ratio < 0.99 for ratio in chords)

    def test_chord_step_that_meets_the_tolerance_keeps_its_factor(self, superlu2d, monkeypatch):
        # the kept chord step of the scaled run above (residual ratio about
        # 0.6) ends a descent whose tolerance is its residual: no factor
        # follows it, and the owner still holds the Jacobian for a next stage
        g, precond, events = superlu2d
        self.newton_iterates(monkeypatch, jacobian_scale=2.5)
        params = PerturbationParams(lam=0.1, p=1.5)

        def run(cfg, **kwargs):
            return descend(g, V_HARMONIC, gausson_field(g), params, cfg, precond=precond, **kwargs)

        first, tol = run(MountainPassConfig(max_outer=1)).residual, run(MountainPassConfig(max_outer=2)).residual
        assert solver_mod._CHORD_THETA * first < tol < first
        events.clear()
        lu = solver_mod._step_factorization(g)
        res = run(MountainPassConfig(descent_tol=tol), step_lu=lu)
        assert res.converged and res.newton_steps == res.iterations == 2
        assert res.residual == tol and res.discarded_trials == 0
        assert events == list(self.NEWTON + self.KEPT)
        assert lu.holds_jacobian

    @pytest.mark.parametrize("jacobian_scale", [1.0, 0.4, 2.5])
    def test_discarded_trials_are_the_trials_not_kept(self, superlu2d, monkeypatch, jacobian_scale):
        # every trial evaluates one preconditioned residual; the descent from
        # the Gausson starts in the Newton finish, after one more
        g, precond, _ = superlu2d
        self.newton_iterates(monkeypatch, jacobian_scale=jacobian_scale)
        evaluations = []
        h1v = solver_mod._h1v_raw

        def counted(*args):
            evaluations.append(args)
            return h1v(*args)

        monkeypatch.setattr(solver_mod, "_h1v_raw", counted)
        params = PerturbationParams(lam=0.1, p=1.5)
        res = descend(g, V_HARMONIC, gausson_field(g), params, MountainPassConfig(), precond=precond)
        assert res.converged and res.newton_steps == res.iterations
        assert res.discarded_trials == len(evaluations) - 1 - res.newton_steps
        assert (res.discarded_trials > 0) == (jacobian_scale == 0.4)

    def test_acceptance_gausson_factors_seven_times(self, monkeypatch):
        # the 2d acceptance Gausson (n = 190, L = 6, V = 2|x|^2 + s with the
        # shift of the benchmark's seed 5), solved on its 95^2 quotient grid:
        # 6 Newton factorizations and the preconditioner's, no trial thrown
        # away, and the energy of a solve that factors at every Newton step
        calls = []
        splu = solver_mod.spla.splu

        def counted(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solver_mod.spla, "splu", counted)
        g = make_grid(2, 6.0, 190)
        args = (
            g, Shifted(Harmonic(2.0), 0.332863), ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5),
            MountainPassConfig(), 1,
        )
        [(_, lagged_energy, lagged)] = find_k_solutions(*args)
        assert len(calls) == 7
        assert lagged.factorizations == 6 and lagged.discarded_trials == 0
        assert lagged.records[-1].resid_precond <= MountainPassConfig().descent_tol
        monkeypatch.setattr(solver_mod._Factorization, "lags_jacobian", False)
        [(_, fresh_energy, fresh)] = find_k_solutions(*args)
        assert fresh.factorizations == fresh.newton_steps > lagged.factorizations
        assert lagged_energy == pytest.approx(fresh_energy, rel=1e-12)

    def test_reports_sum_the_stage_counts(self, setup2d, monkeypatch):
        # banded grids refactor at every Newton step, so the Newton matrix
        # count pins the Newton steps
        g, precond, _, owners = setup2d
        iterates = self.newton_iterates(monkeypatch)
        _, report = continue_to_limit(
            g, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(),
            precond=precond,
        )
        assert report.factorizations == len(owners) >= report.newton_steps == len(iterates) > 0
        assert report.newton_steps <= sum(rec.iterations for rec in report.records)

    @staticmethod
    def deflated_start():
        """On the odd quotient grid of n=32, the j=2 seed deflated against
        the j=4 seed, at lam=0.1."""
        g = quotient_grid(make_grid(1, 4.0, 32), (-1,))
        return g, [structured_seed(g, 4, V_HARMONIC)], structured_seed(g, 2, V_HARMONIC)

    def test_deflated_start_converges_without_a_newton_crawl(self):
        # with plain Newton steps in the deflation span this start reaches
        # the Newton finish where it needs 98 steps; the saddle-free steps
        # hand it over where two suffice
        g, stored, u0 = self.deflated_start()
        res = descend(g, V_HARMONIC, u0, PerturbationParams(lam=0.1, p=1.5), MountainPassConfig(), deflation=stored)
        assert res.converged
        assert res.iterations <= 20

    def test_deflated_newton_steps_count_against_the_budget(self):
        # this start enters the Newton finish after 12 descent steps and
        # needs two Newton steps; the budget stops it after one
        g, stored, u0 = self.deflated_start()
        cfg = MountainPassConfig(max_outer=13)
        res = descend(g, V_HARMONIC, u0, PerturbationParams(lam=0.1, p=1.5), cfg, deflation=stored)
        assert res.iterations - res.newton_steps >= 1
        assert res.newton_steps >= 1
        assert res.iterations <= cfg.max_outer
        assert not res.converged

    def test_one_sign_of_a_stored_solution_suffices(self, monkeypatch):
        # -s spans the same line as s, so the stabilizer drops it and the
        # descent takes the same iterates bit for bit
        g, stored, u0 = self.deflated_start()
        stabilized = []
        subspace = solver_mod._subspace_local_max

        def recorded(*args):
            stabilized.append(subspace(*args))
            return stabilized[-1]

        monkeypatch.setattr(solver_mod, "_subspace_local_max", recorded)
        params, runs = PerturbationParams(lam=0.1, p=1.5), []
        for deflation in (stored, stored + [Field(grid=g, values=-stored[0].values)]):
            stabilized.clear()
            res = descend(g, V_HARMONIC, u0, params, MountainPassConfig(), deflation=deflation)
            runs.append((res, list(stabilized)))
        (one, one_iterates), (both, both_iterates) = runs
        assert one.converged and one.iterations == both.iterations
        assert len(one_iterates) == len(both_iterates) > 1
        assert all(np.array_equal(a, b) for a, b in zip(one_iterates, both_iterates))
        assert np.array_equal(one.field.values, both.field.values)


@pytest.fixture(scope="module")
def mp_result(grid_mid):
    return mountain_pass(
        grid_mid, V_SHIFTED, PerturbationParams(lam=1.0, p=1.5), MountainPassConfig()
    )


class TestMountainPass:
    def test_converges_with_positive_level(self, grid_mid, mp_result):
        assert mp_result.descent.converged
        assert mp_result.descent.residual <= 1e-6
        level = energy_parts(grid_mid, V_SHIFTED, mp_result.field, PerturbationParams(lam=1.0, p=1.5)).total
        assert mp_result.path_max >= level > 0.0

    def test_negated_seed_gives_negated_solution(self, grid_mid, mp_result):
        e = structured_seed(grid_mid, 1, V_SHIFTED)
        neg = Field(grid=grid_mid, values=-e.values)
        flipped = mountain_pass(
            grid_mid,
            V_SHIFTED,
            PerturbationParams(lam=1.0, p=1.5),
            MountainPassConfig(),
            seed=neg,
        )
        params = PerturbationParams(lam=1.0, p=1.5)
        level = energy_parts(grid_mid, V_SHIFTED, mp_result.field, params).total
        assert energy_parts(grid_mid, V_SHIFTED, flipped.field, params).total == pytest.approx(level, rel=1e-10)
        assert float(np.max(np.abs(flipped.field.values + mp_result.field.values))) <= 1e-9

    def test_zero_seed_rejected(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        with pytest.raises(ValueError):
            mountain_pass(grid1d, V_HARMONIC, PerturbationParams(lam=1.0), MountainPassConfig(), seed=z)

    def test_alternating_seed_is_degenerate(self):
        # the gradient energy of (-1)^i outweighs the log term up to 2^60
        g = make_grid(1, 8.0, 1022)
        alt = Field(grid=g, values=(-1.0) ** np.arange(g.npoints))
        with pytest.raises(GeometryFailure):
            mountain_pass(g, V_HARMONIC, PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), seed=alt)

    @staticmethod
    def start_of_descent(monkeypatch, g, params):
        """Run mountain_pass on g; return its result, the field its descent
        starts from, and the energy evaluations made before that."""
        calls = []
        starts = []
        parts_raw, descend_fn = solver_mod._parts_raw, solver_mod.descend

        def counted(*args, **kwargs):
            calls.append(1)
            return parts_raw(*args, **kwargs)

        def recorded(g, potential, u0, *args, **kwargs):
            starts.append((u0.values.copy(), len(calls)))
            return descend_fn(g, potential, u0, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "_parts_raw", counted)
        monkeypatch.setattr(solver_mod, "descend", recorded)
        res = mountain_pass(g, V_SHIFTED, params, MountainPassConfig())
        (u0, evals), = starts
        return res, u0, evals

    def test_start_is_the_peak_of_the_seed_ray(self, grid_mid, monkeypatch):
        g, params = grid_mid, PerturbationParams(lam=1.0, p=1.5)
        res, u0, _ = self.start_of_descent(monkeypatch, g, params)

        def energy(s):
            return energy_parts(g, V_SHIFTED, Field(grid=g, values=s * u0), params).total

        assert res.path_max == energy(1.0)
        assert all(res.path_max >= energy(s) for s in np.arange(1, 4001) / 1000.0)
        assert any(energy(2.0**k) < 0.0 for k in range(61))

    def test_start_costs_at_most_three_energy_evaluations(self, grid_mid, monkeypatch):
        # the seed, its ray peak and the degenerate-ray test; a sampled
        # path would cost one evaluation per point
        _, _, evals = self.start_of_descent(monkeypatch, grid_mid, PerturbationParams(lam=1.0, p=1.5))
        assert evals <= 3

    def test_lambda_zero_rejected(self, grid_mid):
        with pytest.raises(ValueError):
            mountain_pass(
                grid_mid, V_SHIFTED, PerturbationParams(lam=0.0), MountainPassConfig()
            )

    def test_warm_start_comparable_to_cold(self, grid_mid):
        # both starts are close enough for the Newton finish to converge in
        # a few steps (cold 4, warm 3), so the warm start does not halve the
        # descent; assert comparability
        cfg = MountainPassConfig()
        warm_source = mountain_pass(
            grid_mid, V_SHIFTED, PerturbationParams(lam=1.0, p=1.5), cfg
        )
        cold = mountain_pass(grid_mid, V_SHIFTED, PerturbationParams(lam=0.1, p=1.5), cfg)
        warm = descend(
            grid_mid, V_SHIFTED, warm_source.field, PerturbationParams(lam=0.1, p=1.5), cfg
        )
        assert warm.converged
        assert warm.iterations <= cold.descent.iterations + 5
        assert warm.residual <= cfg.descent_tol

    def test_converges_below_the_energy_roundoff_floor(self):
        # toward residual 1e-10 the predicted decrease falls within a few
        # ulps of the energy (about 51), where the Armijo test cannot rank
        # the points; the Newton finish ranks them by the residual instead
        g = make_grid(2, 6.0, 62)
        cfg = MountainPassConfig(descent_tol=1e-10)
        res = mountain_pass(g, V_HARMONIC, PerturbationParams(lam=0.1, p=1.5), cfg)
        assert res.descent.converged
        assert res.descent.residual <= cfg.descent_tol


class TestContinueToLimit:
    def test_records_ordered_and_finite(self, ground_run):
        _, report = ground_run
        lams = [rec.lam for rec in report.records]
        assert lams == sorted(lams, reverse=True)
        assert lams[-1] == 0.0
        assert all(np.isfinite(rec.energy) for rec in report.records)
        assert all(rec.resid_precond >= 0.0 and rec.resid_raw >= 0.0 for rec in report.records)
        assert len(report.trajectory) == len(report.records)

    def test_raw_residual_is_that_of_each_stage_field(self, ground_run, grid_mid):
        # the records reuse the gradient each descent kept for its final
        # iterate; it must be bit-equal to the stage field's own gradient
        _, report = ground_run
        vvals = V_HARMONIC.evaluate(grid_mid).values
        for rec, field in zip(report.records, report.trajectory, strict=True):
            raw = _gradient_raw(grid_mid, vvals, field.values, PerturbationParams(lam=rec.lam, p=1.5))
            assert rec.resid_raw == float(np.sqrt(grid_mid.weight * float(raw @ raw)))

    def test_perturbation_column_is_the_stage_p_terms(self, ground_run, grid_mid):
        # lambda_w1p_p is lam times the regularized p-terms of each stage
        # field's energy parts at its lam, and within 1e-9 of lam times the
        # unregularized ||u||^p
        _, report = ground_run
        vvals = V_HARMONIC.evaluate(grid_mid).values
        assert report.records[-1].lam == 0.0 and report.records[-1].lambda_w1p_p == 0.0
        for rec, field in zip(report.records[:-1], report.trajectory[:-1], strict=True):
            parts = _parts_raw(grid_mid, vvals, field.values, PerturbationParams(lam=rec.lam, p=1.5))
            assert rec.lam > 0.0 and rec.lambda_w1p_p == rec.lam * (parts.p_grad + parts.p_mass)
            assert rec.lambda_w1p_p == pytest.approx(rec.lam * norm_w1p(grid_mid, field, 1.5) ** 1.5, rel=1e-9)

    def test_final_field_close_to_gausson(self, ground_run, grid_mid):
        u, _ = ground_run
        star = gausson_field(grid_mid)
        rel = float(np.linalg.norm(u.values - star.values) / np.linalg.norm(star.values))
        assert rel <= 5e-3

    def test_energies_bracketed(self, ground_run):
        _, report = ground_run
        assert np.isfinite(report.m2_estimate)
        for rec in report.records:
            assert 0.0 < rec.energy <= report.m2_estimate + 1e-9

    def test_limit_identities(self, ground_run, grid_mid):
        # the Nehari identity and its unnormalized form I(u) = mass / 2
        u, report = ground_run
        bound = 20.0 * 1e-6 * norm_h1v(grid_mid, V_HARMONIC, u)
        assert check_nehari(grid_mid, V_HARMONIC, u).margin <= bound
        assert abs(report.records[-1].energy - 0.5 * report.records[-1].mass) <= bound

    def test_warm_start_consistency_bound(self, ground_run, grid_mid):
        _, report = ground_run
        p = 1.5
        tol = 1e-6
        lam_records = [rec for rec in report.records if rec.lam > 0.0]
        for k in range(len(lam_records) - 1):
            a, b = lam_records[k], lam_records[k + 1]
            ua = report.trajectory[k]
            ub = report.trajectory[k + 1]
            gap = abs(a.energy - b.energy)
            wnorm = norm_w1p(grid_mid, ua, p) ** p
            slack = 10.0 * tol * (
                norm_h1v(grid_mid, V_HARMONIC, ua) + norm_h1v(grid_mid, V_HARMONIC, ub)
            )
            assert gap <= (a.lam - b.lam) / p * wnorm + slack

    def test_perturbation_norms_shrink(self, ground_run):
        _, report = ground_run
        seq = [rec.lambda_w1p_p for rec in report.records if rec.lam > 0.0]
        # lam * ||u||_W^p must decay to zero along the schedule
        assert seq[-1] <= 1e-2 * seq[0]
        assert report.records[-1].lambda_w1p_p == 0.0

    def test_nontrivial_mass(self, ground_run):
        _, report = ground_run
        assert report.records[-1].mass >= 1e-6

    def test_limit_checks_use_the_final_record_parts(self, ground_run, grid_mid):
        # the energy and the mass that the trivial-limit test reads are the
        # lam = 0 parts of the returned field, bit for bit
        u, report = ground_run
        vvals = V_HARMONIC.evaluate(grid_mid).values
        parts = solver_mod._parts_raw(grid_mid, vvals, u.values, PerturbationParams(lam=0.0, p=1.5))
        assert report.records[-1].energy == parts.total
        assert report.records[-1].mass == parts.mass

    def test_each_stage_evaluates_its_energy_parts_once(self, grid_mid, monkeypatch):
        # outside its searches, a solve evaluates the energy parts once per
        # stage, at the stage's lam; the trivial-limit test adds none
        lams, depth = [], []
        parts_raw = solver_mod._parts_raw

        def counted(*args):
            if not depth:
                lams.append(args[3].lam)
            return parts_raw(*args)

        def nested(search):
            def wrapped(*args, **kwargs):
                depth.append(search)
                try:
                    return search(*args, **kwargs)
                finally:
                    depth.pop()

            return wrapped

        monkeypatch.setattr(solver_mod, "_parts_raw", counted)
        monkeypatch.setattr(solver_mod, "descend", nested(solver_mod.descend))
        monkeypatch.setattr(solver_mod, "mountain_pass", nested(solver_mod.mountain_pass))
        _, report = continue_to_limit(
            grid_mid, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig()
        )
        assert lams == [rec.lam for rec in report.records]
        assert lams[-1] == 0.0

    def test_stage_i_deflates_against_stage_i_of_each_trajectory(self, ground_run, grid_mid, monkeypatch):
        # the stored solve's stage i enters stage i of the new one, one sign,
        # the mountain pass's descent being stage 0
        _, ground = ground_run
        stored = []
        descend_fn = solver_mod.descend

        def recorded(*args, deflation=(), **kwargs):
            stored.append(list(deflation))
            return descend_fn(*args, deflation=deflation, **kwargs)

        monkeypatch.setattr(solver_mod, "descend", recorded)
        _, report = continue_to_limit(
            grid_mid, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(),
            seed=structured_seed(grid_mid, 2, V_HARMONIC), trajectories=[ground.trajectory],
        )
        assert len(stored) == len(report.records) == len(ground.trajectory)
        for i, fields in enumerate(stored):
            assert [id(f) for f in fields] == [id(ground.trajectory[i])]
