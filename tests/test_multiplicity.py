"""Structured seeds and the k-solution driver with its deflation."""

from __future__ import annotations

import functools
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.sparse.linalg

import lse.multiplicity as multiplicity_mod
import lse.solver as solver_mod
from lse.energy import Harmonic, PerturbationParams, Shifted, Tabulated, energy_parts
from lse.grid import Field, _h1v_raw, _integral, fold, make_grid, norm_h1v, quotient_grid
from lse.multiplicity import find_k_solutions, structured_seed
from lse.solver import ContinuationSchedule, MountainPassConfig, continue_to_limit
from lse.verify import check_energy_identity, check_linf, check_nehari

V_HARMONIC = Harmonic(2.0)
V_SHIFTED = Shifted(Harmonic(2.0), 1.0)


@pytest.fixture(scope="module")
def gmid():
    return make_grid(1, 8.0, 254)


def _sign_changes(values):
    trimmed = values[np.abs(values) > 1e-9 * np.abs(values).max()]
    return int(np.count_nonzero(np.diff(np.sign(trimmed)) != 0))


class TestStructuredSeed:
    def test_first_seed_nodeless_positive(self, gmid):
        s1 = structured_seed(gmid, 1, V_HARMONIC)
        assert np.all(s1.values > 0.0)
        assert norm_h1v(gmid, V_HARMONIC, s1) == pytest.approx(1.0, rel=1e-12)

    def test_second_seed_odd_with_one_sign_change(self, gmid):
        s2 = structured_seed(gmid, 2, V_HARMONIC)
        vals = s2.values
        sign_changes = int(np.sum(np.diff(np.sign(vals)) != 0))
        assert sign_changes == 1
        # odd about the box center
        np.testing.assert_allclose(vals, -vals[::-1], atol=1e-14)

    def test_first_two_seeds_orthogonal_by_parity(self, gmid):
        s1 = structured_seed(gmid, 1, V_HARMONIC)
        s2 = structured_seed(gmid, 2, V_HARMONIC)
        prod = _integral(gmid, s1.values * s2.values)
        assert abs(prod) <= 1e-12

    def test_sign_change_count_grows(self, gmid):
        for j in (3, 4, 5):
            s = structured_seed(gmid, j, V_HARMONIC)
            sign_changes = int(np.sum(np.diff(np.sign(s.values)) != 0))
            assert sign_changes == j - 1

    def test_bad_indices(self, gmid):
        with pytest.raises(ValueError):
            structured_seed(gmid, 0, V_HARMONIC)
        with pytest.raises(ValueError, match="under-resolved"):
            structured_seed(gmid, gmid.points_per_dim, V_HARMONIC)
        with pytest.raises(ValueError, match="under-resolved"):
            structured_seed(gmid, gmid.points_per_dim // 2, V_HARMONIC)


@pytest.fixture(scope="module")
def three(gmid):
    sched = ContinuationSchedule()
    params = PerturbationParams(lam=1.0, p=1.5)
    cfg = MountainPassConfig()
    return find_k_solutions(gmid, V_SHIFTED, sched, params, cfg, 3)


class TestFindKSolutions:
    def test_k_must_be_positive(self, gmid):
        with pytest.raises(ValueError):
            find_k_solutions(
                gmid, V_SHIFTED, ContinuationSchedule(), PerturbationParams(lam=1.0),
                MountainPassConfig(), 0,
            )

    def test_three_distinct_increasing(self, three, gmid):
        assert len(three) == 3
        energies = [e for _, e, _ in three]
        assert energies[0] > 0.0
        assert all(b - a >= 1e-6 for a, b in zip(energies, energies[1:]))
        vv = V_SHIFTED.evaluate(gmid).values
        for i, (ui, _, _) in enumerate(three):
            for uj, _, _ in three[i + 1 :]:
                # weighted distance modulo sign
                d = min(
                    _h1v_raw(gmid, vv, ui.values - uj.values),
                    _h1v_raw(gmid, vv, ui.values + uj.values),
                )
                assert d >= 0.1

    def test_harmonic_ladder_in_node_order(self, gmid):
        sols = find_k_solutions(
            gmid, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5),
            MountainPassConfig(), 4,
        )
        energies = [e for _, e, _ in sols]
        assert len(sols) == 4
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert [_sign_changes(u.values) for u, _, _ in sols] == [0, 1, 2, 3]

    def test_each_solution_nehari_consistent(self, three, gmid):
        from lse.verify import check_nehari

        for u, _, _ in three:
            bound = 20.0 * 1e-6 * norm_h1v(gmid, V_SHIFTED, u)
            assert check_nehari(gmid, V_SHIFTED, u).margin <= bound

    def test_k1_matches_plain_continuation(self, gmid):
        sched = ContinuationSchedule()
        params = PerturbationParams(lam=1.0, p=1.5)
        cfg = MountainPassConfig()
        single = find_k_solutions(gmid, V_SHIFTED, sched, params, cfg, 1)
        assert len(single) == 1
        u_direct, rep = continue_to_limit(
            gmid, V_SHIFTED, sched, params, cfg,
            seed=structured_seed(gmid, 1, V_SHIFTED),
        )
        diff = float(np.max(np.abs(single[0][0].values - u_direct.values)))
        assert diff <= 1e-8
        assert single[0][1] == pytest.approx(rep.records[-1].energy, rel=1e-10)

    def test_ladder_takes_one_attempt_per_solution(self, monkeypatch):
        # the ladder_1d shape: seeds 3 and 4 must give nodes 2 and 3 directly
        # instead of returning to the solutions of seeds 1 and 2
        g = make_grid(1, 8.0, 1022)
        calls = []
        solve = multiplicity_mod.continue_to_limit

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", counted)
        sols = find_k_solutions(
            g, Shifted(Harmonic(2.0), 0.3), ContinuationSchedule(),
            PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 4,
        )
        assert len(calls) == 4
        assert [_sign_changes(u.values) for u, _, _ in sols] == [0, 1, 2, 3]

    def test_each_stage_deflates_against_the_same_stage_of_accepted_solves(self, monkeypatch):
        # on a full grid (odd n) every seed shares one sector, so stage i of
        # each attempt stores stage i of every solve accepted before it, one
        # sign each
        g = make_grid(1, 8.0, 255)
        stages, reports = [], []  # per solve: the fields stored at each stage; its report
        descend, solve = solver_mod.descend, multiplicity_mod.continue_to_limit

        def recorded(*args, deflation=(), **kwargs):
            stages[-1].append(list(deflation))
            return descend(*args, deflation=deflation, **kwargs)

        def per_solve(*args, **kwargs):
            stages.append([])
            out = solve(*args, **kwargs)
            reports.append(out[1])
            return out

        monkeypatch.setattr(solver_mod, "descend", recorded)
        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", per_solve)
        sols = find_k_solutions(
            g, V_SHIFTED, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 3,
        )
        assert len(sols) == len(reports) == 3
        for j, (stored_per_stage, rep) in enumerate(zip(stages, reports, strict=True)):
            assert len(stored_per_stage) == len(rep.trajectory) == 6
            for i, stored in enumerate(stored_per_stage):
                assert [id(s) for s in stored] == [id(prev.trajectory[i]) for prev in reports[:j]]

    def test_attempts_deflate_only_against_their_own_sector(self, gmid, monkeypatch):
        # the harmonic V is mirror symmetric and n is even, so odd seeds run on
        # the even quotient grid and even seeds on the odd one; an attempt
        # stores only the solves accepted before it in its own sector
        calls = []  # per attempt: its grid, the trajectories it stored, its report
        solve = multiplicity_mod.continue_to_limit

        def recorded(sg, *args, trajectories=(), **kwargs):
            ids = [id(t) for t in trajectories]
            out = solve(sg, *args, trajectories=trajectories, **kwargs)
            calls.append((sg, ids, out[1]))
            return out

        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", recorded)
        sols = find_k_solutions(
            gmid, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 4,
        )
        assert len(sols) == 4
        grids = [sg for sg, _, _ in calls]
        assert grids[0] is not grids[1] and all(sg is grids[j % 2] for j, sg in enumerate(grids))
        kept = {id(rep) for _, _, rep in sols}
        for j, (sg, ids, _) in enumerate(calls):
            earlier = [rep for prev, _, rep in calls[:j] if prev is sg and id(rep) in kept]
            assert ids == [id(rep.trajectory) for rep in earlier]
        assert [len(ids) for _, ids, _ in calls[:4]] == [0, 0, 1, 1]

    def test_sign_flips_identified_as_duplicates(self, gmid, monkeypatch, caplog):
        # seed 3 (the even sector again) is made to return the negated
        # solution of seed 1; the driver must fold it onto the stored one
        outs = []
        solve = multiplicity_mod.continue_to_limit

        def flipped(*args, **kwargs):
            if len(outs) == 2:
                u, rep = outs[0]
                out = (Field(grid=u.grid, values=-u.values), rep)
            else:
                out = solve(*args, **kwargs)
            outs.append(out)
            return out

        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", flipped)
        with caplog.at_level(logging.INFO, logger="lse.multiplicity"):
            sols = find_k_solutions(
                gmid, V_SHIFTED, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5),
                MountainPassConfig(), 3,
            )
        assert len(sols) == 3
        assert sum(rep is outs[0][1] for _, _, rep in sols) == 1
        folded = [rec.message for rec in caplog.records if "known solution" in rec.message]
        assert "seed 3 converged to a known solution (distance 0.000e+00)" in folded

    def test_shortfall_counts_the_attempts_made(self, caplog):
        # seed 4 needs 4 < n/2 and is rejected on 8 points before any solve
        g = make_grid(1, 4.0, 8)
        with caplog.at_level(logging.INFO, logger="lse.multiplicity"):
            sols = find_k_solutions(
                g, V_HARMONIC, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5),
                MountainPassConfig(), 4,
            )
        assert len(sols) == 3
        messages = [rec.message for rec in caplog.records]
        assert any(m.startswith("seed 4 rejected") for m in messages)
        assert "found 3 of 4 requested solutions in 3 attempts" in messages
        # each solved seed logs the counts of its report
        solved = sorted(m.split(": ", 1)[1] for m in messages if " solved: " in m)
        assert solved == sorted(
            f"{rep.newton_steps} Newton steps, {rep.factorizations} step and Newton factorizations "
            f"(and {rep.coarse_factorizations} on the coarse grid), {rep.discarded_trials} discarded Newton trials"
            for _, _, rep in sols
        )
        assert all(rep.newton_steps > 0 for _, _, rep in sols)


class TestParitySectors:
    """find_k_solutions solves each seed on the quotient grid of its sector when
    the grid and V are mirror-symmetric, and on the full grid otherwise."""

    @staticmethod
    def recorded_solves(monkeypatch):
        calls = []
        solve = multiplicity_mod.continue_to_limit

        def recorded(g, potential, *args, **kwargs):
            out = solve(g, potential, *args, **kwargs)
            calls.append((g, out[1]))
            return out

        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", recorded)
        return calls

    def test_seeds_alternate_axis_zero_parity_on_quotient_grids(self, monkeypatch):
        g = make_grid(2, 5.0, 40)
        calls = self.recorded_solves(monkeypatch)
        sols = find_k_solutions(
            g, V_SHIFTED, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 2,
        )
        assert [qg.mirror for qg, _ in calls] == [(1, 1), (-1, 1)]
        assert all(qg.points_per_dim == 20 for qg, _ in calls)
        # the reports are the solver's own objects; the fields are unfolded
        assert {id(rep) for _, _, rep in sols} == {id(rep) for _, rep in calls}
        for u, _, _ in sols:
            assert u.grid == g
        odd = sols[1][0].nd()
        assert np.array_equal(odd, -np.flip(odd, axis=0))
        assert np.array_equal(odd, np.flip(odd, axis=1))

    @pytest.mark.parametrize("dim, points", [(1, 32), (2, 12), (3, 8)])
    def test_sector_potential_is_the_upper_orthant_of_v(self, monkeypatch, dim, points):
        g = make_grid(dim, 5.0, points)
        seen = []

        def unsolved(sg, potential, *args, **kwargs):
            seen.append((sg, potential.evaluate(sg).values.tobytes()))
            raise solver_mod.ConvergenceFailure("not solved")

        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", unsolved)
        find_k_solutions(g, V_SHIFTED, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 1)
        # every sector's V is V's upper orthant, whatever the sector's parity
        upper = V_SHIFTED.evaluate(g).nd()[(slice(points // 2, None),) * dim].reshape(-1).tobytes()
        assert [sg.mirror for sg, _ in seen] == [(1,) * dim, (-1,) + (1,) * (dim - 1), (1,) * dim]
        assert all(values == upper for _, values in seen)

    @pytest.mark.parametrize("dim, points, asymmetric", [(1, 31, False), (1, 32, True), (3, 13, False)])
    def test_full_grid_without_mirror_symmetry(self, monkeypatch, dim, points, asymmetric):
        g = make_grid(dim, 6.0, points)
        vals = V_SHIFTED.evaluate(g).values.copy()
        if asymmetric:
            vals[0] += 1e-3
        calls = self.recorded_solves(monkeypatch)

        def no_cg(*args, **kwargs):
            raise AssertionError("every grid is solved by factorization")

        monkeypatch.setattr(scipy.sparse.linalg, "cg", no_cg)
        sols = find_k_solutions(
            g, Tabulated(values=Field(grid=g, values=vals)), ContinuationSchedule(),
            PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 1,
        )
        assert len(sols) == 1 and sols[0][0].grid == g
        assert [qg for qg, _ in calls] == [g]

    def test_each_seed_solves_with_its_own_step_owner(self, monkeypatch):
        # on SuperLU grids a step owner keeps a Newton factor for chord steps;
        # one from another seed's solution must never be a new seed's first step
        monkeypatch.setattr(solver_mod, "_BANDED_LIMIT", 0)
        made, stages, solves = [], [], []
        make, descend, solve = solver_mod._step_factorization, solver_mod.descend, multiplicity_mod.continue_to_limit

        def counted(g):
            made.append(make(g))
            return made[-1]

        def recorded(*args, step_lu=None, **kwargs):
            stages.append((step_lu, step_lu.holds_jacobian))
            return descend(*args, step_lu=step_lu, **kwargs)

        def per_solve(*args, **kwargs):
            start = len(stages)
            out = solve(*args, **kwargs)
            solves.append(stages[start:])
            return out

        monkeypatch.setattr(solver_mod, "_step_factorization", counted)
        monkeypatch.setattr(solver_mod, "descend", recorded)
        monkeypatch.setattr(multiplicity_mod, "continue_to_limit", per_solve)
        sols = find_k_solutions(
            make_grid(2, 5.0, 40), V_SHIFTED, ContinuationSchedule(), PerturbationParams(lam=1.0, p=1.5),
            MountainPassConfig(), 2,
        )
        assert len(sols) == len(solves) == len(made) == 2
        assert made[0] is not made[1]
        for owner, descents in zip(made, solves):
            assert len(descents) == 6  # the mountain pass and five continuation stages
            assert all(lu is owner for lu, _ in descents)
            # no factor at the seed's first step; later stages start from the
            # Newton factor of the stage before
            assert [held for _, held in descents] == [False] + [True] * 5
            assert not owner.holds_jacobian  # released when the solve ended


class TestLimitInvariance:
    """The lam -> 0 limit does not depend on how the perturbation is taken
    away: the paper's perturbed critical points converge to critical points
    of the unperturbed energy."""

    @staticmethod
    def energies(g, p=1.5, sched=ContinuationSchedule(), k=1):
        sols = find_k_solutions(g, V_HARMONIC, sched, PerturbationParams(lam=1.0, p=p), MountainPassConfig(), k)
        assert len(sols) == k
        return np.array([energy for _, energy, _ in sols])

    @pytest.mark.parametrize("p", [1.05, 1.15])
    def test_ground_state_near_the_p_edge(self, gmid, p):
        # with the bare p-mass force |u|^(p-2) u this solve failed at
        # p = 1.05 and converged to a wrong field of energy 106.7 at 1.15
        assert self.energies(gmid, p=p) == pytest.approx(self.energies(gmid), rel=1e-12)

    @pytest.mark.parametrize("dim,half_width,points,k", [(1, 8.0, 254, 4), (2, 6.0, 40, 3)])
    def test_limit_energies_independent_of_p_and_schedule(self, dim, half_width, points, k):
        g = make_grid(dim, half_width, points)
        reference = self.energies(g, k=k)
        runs = [self.energies(g, p=p, k=k) for p in (1.3, 1.9)]
        for sched in (
            ContinuationSchedule(ratio=0.3),
            ContinuationSchedule(lambda_start=0.5, ratio=0.5),
            ContinuationSchedule(lambda_start=1e-4, lambda_min=1e-4),
        ):
            runs.append(self.energies(g, sched=sched, k=k))
        for energies in runs:
            assert energies == pytest.approx(reference, rel=1e-10)


def _separable(a: float, s: float):
    """V = a |x|^2 + s."""
    return Harmonic(a) if s == 0.0 else Shifted(Harmonic(a), s)


@functools.cache
def _ladder(points: int, half_width: float, a: float, s: float) -> tuple[tuple[np.ndarray, float], ...]:
    """The three lowest 1d states of v = a x^2 + s at p = 1.3, as (values,
    energy) pairs in energy order."""
    found = find_k_solutions(
        make_grid(1, half_width, points), _separable(a, s), ContinuationSchedule(),
        PerturbationParams(lam=1.0, p=1.3), MountainPassConfig(), 3,
    )
    assert len(found) == 3
    return tuple((u.values, energy) for u, energy, _ in found)


class TestProductStates:
    """On a separable V = sum_d (a x_d^2 + s/N), the product of 1d states
    u_alpha = prod_d u_{alpha_d}(x_d) of v = a x^2 + s/N is a lam = 0 state
    of the N-d grid: the logarithm turns the product into a sum, and the
    grid Laplacian is a Kronecker sum on full and quotient grids alike.  A
    lam = 0 critical point's energy is half its mass, which factorizes, so
    E_alpha = 2^(N-1) prod_d E_{alpha_d}, that is 2^(N-1) e^s prod_d E of the
    unshifted v.  This is an exact oracle for N-d ``find_k_solutions`` that costs
    three 1d solves."""

    P0 = PerturbationParams(lam=0.0, p=1.3)

    # (dim, half width, n, a, s, quotient, products above the linf cap):
    # the separable potentials of scripts/multiplicity_scan.py, harmonic:2.0
    # and shifted:harmonic:0.7:0.3, on its 2d and 3d boxes at even and odd n
    CASES = [
        (dim, half_width, n, a, s, quotient, capped)
        for dim, half_width, n, a, s, capped in [
            (2, 6.0, 40, 2.0, 0.0, 1),
            (2, 6.0, 40, 0.7, 0.3, 0),
            (2, 6.0, 41, 0.7, 0.3, 0),
            (3, 5.0, 16, 2.0, 0.0, 10),
            (3, 5.0, 16, 0.7, 0.3, 1),
            (3, 5.0, 17, 0.7, 0.3, 1),
        ]
        for quotient in ((False, True) if n % 2 == 0 else (False,))
    ]

    @pytest.mark.parametrize("dim, half_width, points, a, s, quotient, capped", CASES)
    def test_products_of_1d_states_are_states(self, dim, half_width, points, a, s, quotient, capped):
        g = make_grid(dim, half_width, points)
        potential = _separable(a, s)
        states = _ladder(points, half_width, a, s / dim)
        share = fold(g, potential.evaluate(g).values, (1,) * dim)
        above_cap = []
        for alpha in itertools.product(range(3), repeat=dim):
            u = functools.reduce(np.multiply.outer, [states[i][0] for i in alpha]).reshape(-1)
            # valid states whose peak fails the amplitude gate of lse solve
            if not check_linf(Field(grid=g, values=u)).passed:
                above_cap.append(alpha)
                continue
            sg, sv = g, potential
            if quotient:
                parity = tuple((-1) ** i for i in alpha)
                sg = quotient_grid(g, parity)
                sv = Tabulated(values=Field(grid=sg, values=share))
                u = fold(g, u, parity)
            field = Field(grid=sg, values=u)
            assert check_nehari(sg, sv, field).passed, alpha
            assert check_energy_identity(sg, sv, field, self.P0).passed, alpha
            want = 2.0 ** (dim - 1) * math.prod(states[i][1] for i in alpha)
            assert energy_parts(sg, sv, field, self.P0).total == pytest.approx(want, rel=1e-12), alpha
        assert len(above_cap) == capped

    @pytest.mark.parametrize(
        "dim, half_width, points, energies",
        [
            (2, 6.0, 40, [41.04958131318686, 909.550684120416, 16796.371848455165]),
            (3, 5.0, 16, [299.41250886791636, 5950.456004541113, 90502.77846171963]),
        ],
    )
    def test_k3_scan_lines_are_the_axis_zero_products(self, dim, half_width, points, energies):
        # the harmonic:2.0, p = 1.3, k = 3 lines of the scan find (0,...,0),
        # (1,0,...,0) and (2,0,...,0)
        found = find_k_solutions(
            make_grid(dim, half_width, points), V_HARMONIC, ContinuationSchedule(),
            PerturbationParams(lam=1.0, p=1.3), MountainPassConfig(), 3,
        )
        found = [energy for _, energy, _ in found]
        assert found == pytest.approx(energies, rel=1e-12)
        states = _ladder(points, half_width, 2.0, 0.0)
        products = [2.0 ** (dim - 1) * states[j][1] * states[0][1] ** (dim - 1) for j in range(3)]
        assert found == pytest.approx(products, rel=1e-12)
