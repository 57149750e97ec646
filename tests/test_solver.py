"""Mountain-pass search, descent, and continuation to the unperturbed limit."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import lse.solver as solver_mod
from lse.energy import Harmonic, PerturbationParams, Shifted, _gradient_raw, el_gradient, energy_total
from lse.grid import Field, _gradient_components, make_grid, neg_laplacian_apply, norm_h1v, norm_w1p
from lse.multiplicity import DeflationSet, structured_seed
from lse.solver import (
    CollapseError,
    ContinuationSchedule,
    ConvergenceFailure,
    GeometryFailure,
    MountainPassConfig,
    Preconditioner,
    SolverError,
    check_geometry,
    continue_to_limit,
    default_seed,
    descend,
    find_t0,
    mountain_pass,
)

from conftest import gausson_field, random_field

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
        assert cfg.path_segments == 32
        assert cfg.descent_tol == 1e-6
        assert cfg.max_outer == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"path_segments": 4},
            {"descent_tol": 0.0},
            {"descent_tol": -1e-6},
            {"max_outer": 0},
            {"armijo_c1": 1.5},
            {"backtrack_ratio": 1.0},
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
        zf = Field(grid=grid1d, values=z)
        back = neg_laplacian_apply(grid1d, zf).values + (vvals + 1.0) * z
        assert float(np.max(np.abs(back - rhs))) <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))


def _coo_linearized_matrix(g, vvals, u, params):
    """The COO assembly of the step operator that the cached stencil
    pattern replaced, kept as the reference for bit equality."""
    lam, p, eps = params.lam, params.p, params.grad_reg_eps
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
    diag = diag + lam * (p - 1.0) * (u * u + params.grad_reg_eps**2) ** ((p - 2.0) / 2.0)
    a_mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.npoints, g.npoints),
    ).tocsr()
    return a_mat + sp.diags(diag)


def _kron_fixed_operator(g, vvals):
    """The Kronecker-sum assembly of (-Lap + V + 1) that the stencil
    pattern replaced, kept as the reference for bit equality."""
    n, h = g.points_per_dim, g.spacing
    lap1 = sp.diags(
        [np.full(n - 1, -1.0 / h**2), np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2)],
        [-1, 0, 1], format="csr",
    )
    eye = sp.identity(n, format="csr")
    a = None
    for d in range(g.dim):
        mats = [eye] * g.dim
        mats[d] = lap1
        term = mats[0]
        for m in mats[1:]:
            term = sp.kron(term, m, format="csr")
        a = term if a is None else a + term
    return a + sp.diags(vvals + 1.0)


def _assert_bit_equal(got, want):
    got, want = got.tocsc(), want.tocsc()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


STENCIL_GRIDS = [(1, 24), (2, 9), (3, 5)]


class TestStepOperators:
    """The step and Newton operators and the fixed operator, all filled
    into one cached stencil pattern per grid."""

    @staticmethod
    def smooth_state(dim, n):
        # at least 2 and increasing along every axis: u and its edge
        # differences stay away from zero, where the log and p terms are
        # not smooth on the scale of a finite difference
        g = make_grid(dim, 3.0, n)
        rng = np.random.default_rng(dim)
        nd = 2.0 + 0.1 * np.indices(g.shape).sum(axis=0) + 0.03 * rng.random(g.shape)
        return g, V_HARMONIC.evaluate(g).values, nd.reshape(-1)

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_newton_matrix_is_the_jacobian(self, dim, n, lam):
        g, vvals, u = self.smooth_state(dim, n)
        params = PerturbationParams(lam=lam, p=1.5)
        v = np.random.default_rng(1).standard_normal(g.npoints)
        t = 1e-5
        fd = (_gradient_raw(g, vvals, u + t * v, params) - _gradient_raw(g, vvals, u - t * v, params)) / (2.0 * t)
        jv = solver_mod._newton_matrix(g, vvals, u, params) @ v
        assert np.linalg.norm(jv - fd) <= 1e-6 * np.linalg.norm(jv)

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_linearized_matrix_at_lambda_zero_is_the_fixed_operator(self, dim, n):
        g, vvals, u = self.smooth_state(dim, n)
        v = np.random.default_rng(2).standard_normal(g.npoints)
        got = solver_mod._linearized_matrix(g, vvals, u, PerturbationParams(lam=0.0)) @ v
        want = neg_laplacian_apply(g, Field(grid=g, values=v)).values + (vvals + 1.0) * v
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * float(np.abs(want).max()))

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_pattern_is_the_canonical_symmetric_stencil(self, dim, n):
        g, vvals, u = self.smooth_state(dim, n)
        for a in (
            solver_mod._linearized_matrix(g, vvals, u, PerturbationParams(lam=0.1)),
            solver_mod._newton_matrix(g, vvals, u, PerturbationParams(lam=0.1)),
        ):
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

    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_assembly_is_bit_equal_to_the_coo_reference(self, dim, n, lam):
        g = make_grid(dim, 3.0, n)
        vvals = V_HARMONIC.evaluate(g).values
        u = 3.0 * np.random.default_rng(dim).standard_normal(g.npoints)
        u[::5] = 0.0  # log-term curvature at its 1e-300 floor
        params = PerturbationParams(lam=lam, p=1.5)
        want = _coo_linearized_matrix(g, vvals, u, params)
        _assert_bit_equal(solver_mod._linearized_matrix(g, vvals, u, params), want)
        _assert_bit_equal(
            solver_mod._newton_matrix(g, vvals, u, params),
            want - sp.diags(3.0 + np.log(u * u + 1e-300)),
        )

    @pytest.mark.parametrize("dim, n", STENCIL_GRIDS)
    def test_fixed_operator_is_bit_equal_to_the_kron_reference(self, dim, n, monkeypatch):
        g = make_grid(dim, 3.0, n)
        factored = []
        factor = solver_mod._Factorization.factor

        def recorded(self, a):
            factored.append(a)
            factor(self, a)

        monkeypatch.setattr(solver_mod._Factorization, "factor", recorded)
        pre = Preconditioner(g, V_SHIFTED)
        got = factored[0] if factored else pre._op  # 3d keeps the operator for CG
        _assert_bit_equal(got, _kron_fixed_operator(g, V_SHIFTED.evaluate(g).values))


class TestSeedAndGeometry:
    def test_default_seed_unit_norm(self, grid1d):
        e = default_seed(grid1d, V_HARMONIC)
        assert norm_h1v(grid1d, V_HARMONIC, e) == pytest.approx(1.0, rel=1e-12)

    def test_find_t0_doubling_contract(self, grid_mid):
        e = default_seed(grid_mid, V_SHIFTED)
        params = PerturbationParams(lam=1.0, p=1.5)
        t0 = find_t0(grid_mid, V_SHIFTED, e, params)
        assert t0 >= 2.0 and t0 == 2.0 ** round(np.log2(t0))
        scaled = Field(grid=grid_mid, values=t0 * e.values)
        assert energy_total(grid_mid, V_SHIFTED, scaled, params) < 0.0
        half = Field(grid=grid_mid, values=0.5 * t0 * e.values)
        assert energy_total(grid_mid, V_SHIFTED, half, params) >= 0.0

    def test_find_t0_doubled_seed_halves(self, grid_mid):
        e = default_seed(grid_mid, V_SHIFTED)
        params = PerturbationParams(lam=1.0, p=1.5)
        t0 = find_t0(grid_mid, V_SHIFTED, e, params)
        doubled = Field(grid=grid_mid, values=2.0 * e.values)
        t0_doubled = find_t0(grid_mid, V_SHIFTED, doubled, params)
        assert t0 / 4.0 <= t0_doubled <= t0

    def test_find_t0_lambda_zero_allowed(self, grid_mid):
        e = default_seed(grid_mid, V_HARMONIC)
        t0 = find_t0(grid_mid, V_HARMONIC, e, PerturbationParams(lam=0.0))
        scaled = Field(grid=grid_mid, values=t0 * e.values)
        assert energy_total(grid_mid, V_HARMONIC, scaled, PerturbationParams(lam=0.0)) < 0.0

    def test_find_t0_zero_seed_rejected(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        with pytest.raises(ValueError):
            find_t0(grid1d, V_HARMONIC, z, PerturbationParams(lam=1.0))

    def test_geometry_positive_at_small_radius(self, grid_mid):
        params = PerturbationParams(lam=1.0, p=1.5)
        alpha = check_geometry(grid_mid, V_HARMONIC, params, 0.5, 200, rng_seed=0)
        assert alpha > 0.0

    def test_geometry_quadratic_lower_bound(self, grid_mid):
        # near rho = 0 the barrier is dominated by the quadratic term
        rho = 1e-3
        for lam in (1e-4, 1.0):
            alpha = check_geometry(
                grid_mid, V_HARMONIC, PerturbationParams(lam=lam, p=1.5), rho, 200, rng_seed=0
            )
            assert alpha >= 0.25 * rho * rho

    def test_geometry_preconditions(self, grid1d):
        params = PerturbationParams(lam=1.0)
        with pytest.raises(ValueError):
            check_geometry(grid1d, V_HARMONIC, params, 0.5, 0)
        with pytest.raises(ValueError):
            check_geometry(grid1d, V_HARMONIC, params, 0.0, 10)


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

    def test_zero_start_is_fixed_point(self, grid1d):
        z = Field(grid=grid1d, values=np.zeros(grid1d.npoints))
        res = descend(grid1d, V_HARMONIC, z, PerturbationParams(lam=1.0), MountainPassConfig())
        assert res.iterations == 0
        assert res.converged
        assert res.residual == 0.0

    def test_energy_monotone_over_random_starts(self, grid1d):
        cfg = MountainPassConfig(max_outer=40)
        params = PerturbationParams(lam=0.5, p=1.5)
        rng = np.random.default_rng(123)
        for _ in range(20):
            u0 = random_field(grid1d, rng, scale=2.0)
            res = descend(grid1d, V_HARMONIC, u0, params, cfg, ray_rescale=False)
            energies = [e0 for e0, _ in res.energy_steps] + [res.energy_steps[-1][1]]
            diffs = np.diff(energies)
            assert np.all(diffs <= 1e-10 * (1.0 + np.abs(energies[:-1])))

    def test_mass_floor_reports_collapse(self, grid1d):
        u0 = random_field(grid1d, np.random.default_rng(3), scale=1e-3)
        res = descend(
            grid1d,
            V_HARMONIC,
            u0,
            PerturbationParams(lam=1.0),
            MountainPassConfig(max_outer=50),
            ray_rescale=False,
            mass_floor=1e6,
        )
        assert res.collapsed


class TestNewtonFinish:
    """Once the residual is small, descend finishes with damped Newton."""

    @pytest.fixture
    def setup2d(self, monkeypatch):
        g = make_grid(2, 4.0, 30)
        precond = Preconditioner(g, V_HARMONIC)  # its factorization is not counted
        orderings = []
        splu = spla.splu

        def counted(*args, **kwargs):
            orderings.append(kwargs.get("permc_spec"))
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        return g, precond, gausson_field(g), orderings

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
        g, precond, u0, orderings = setup2d
        iterates = self.newton_iterates(monkeypatch)
        params = PerturbationParams(lam=0.1, p=1.5)
        res = descend(g, V_HARMONIC, u0, params, MountainPassConfig(), precond=precond)
        assert res.converged
        assert 1 <= res.newton_steps <= res.iterations <= 6
        # one MMD-ordered factorization per iteration, Newton steps included
        assert len(orderings) == res.iterations
        assert set(orderings) == {"MMD_AT_PLUS_A"}
        assert len(iterates) == res.newton_steps
        # the energy that the Armijo descent alone reaches at this tolerance
        energy = energy_total(g, V_HARMONIC, res.field, params)
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

    def test_deflated_newton_steps_count_against_the_budget(self):
        # this start enters the Newton finish after one descent step and
        # needs three more steps; the budget stops it after one
        g = make_grid(1, 4.0, 32)
        ds = DeflationSet(grid=g, potential=V_HARMONIC, solutions=[gausson_field(g)])
        u0 = Field(grid=g, values=20.0 * structured_seed(g, 2, V_HARMONIC).values)
        cfg = MountainPassConfig(max_outer=2)
        res = descend(
            g, V_HARMONIC, u0, PerturbationParams(lam=0.1, p=1.5), cfg,
            deflation=ds, symmetry="odd",
        )
        assert res.newton_steps >= 1
        assert res.iterations <= cfg.max_outer
        assert not res.converged


@pytest.fixture(scope="module")
def mp_result(grid_mid):
    return mountain_pass(
        grid_mid, V_SHIFTED, PerturbationParams(lam=1.0, p=1.5), MountainPassConfig()
    )


class TestMountainPass:
    def test_converges_with_positive_level(self, mp_result):
        assert mp_result.descent.converged
        assert mp_result.descent.residual <= 1e-6
        assert mp_result.c_lambda > 0.0
        assert mp_result.path_max >= mp_result.c_lambda > 0.0

    def test_negated_seed_gives_negated_solution(self, grid_mid, mp_result):
        e = default_seed(grid_mid, V_SHIFTED)
        neg = Field(grid=grid_mid, values=-e.values)
        flipped = mountain_pass(
            grid_mid,
            V_SHIFTED,
            PerturbationParams(lam=1.0, p=1.5),
            MountainPassConfig(),
            seed=neg,
        )
        assert flipped.c_lambda == pytest.approx(mp_result.c_lambda, rel=1e-10)
        assert float(np.max(np.abs(flipped.field.values + mp_result.field.values))) <= 1e-9

    def test_lambda_zero_rejected(self, grid_mid):
        with pytest.raises(ValueError):
            mountain_pass(
                grid_mid, V_SHIFTED, PerturbationParams(lam=0.0), MountainPassConfig()
            )

    def test_warm_start_comparable_to_cold(self, grid_mid):
        # both starts are close enough for the Newton finish to converge in
        # a few steps (cold 4, warm 3), so the warm start's payoff is
        # skipping the path construction, not halving the descent; assert
        # comparability
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
        u, report = ground_run
        bound = 20.0 * 1e-6 * norm_h1v(grid_mid, V_HARMONIC, u)
        assert report.nehari_margin <= bound
        assert report.energy_mass_defect <= bound

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
