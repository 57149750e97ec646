"""Deflation, structured seeds, and the k-solution driver."""

from __future__ import annotations

import logging

import numpy as np
import pytest

import lse.multiplicity as multiplicity_mod
from lse.energy import Harmonic, PerturbationParams, Shifted, Tabulated
from lse.grid import Field, _h1v_raw, integrate, make_grid, norm_h1v
from lse.multiplicity import (
    DeflationSet,
    ProximityError,
    find_k_solutions,
    structured_seed,
)
from lse.solver import ContinuationSchedule, MountainPassConfig, continue_to_limit

from conftest import random_field

V_HARMONIC = Harmonic(2.0)
V_SHIFTED = Shifted(Harmonic(2.0), 1.0)


@pytest.fixture(scope="module")
def gmid():
    return make_grid(1, 8.0, 254)


def _sign_changes(values):
    trimmed = values[np.abs(values) > 1e-9 * np.abs(values).max()]
    return int(np.count_nonzero(np.diff(np.sign(trimmed)) != 0))


def _unit_direction(g, potential, rng):
    e = random_field(g, rng)
    return Field(grid=g, values=e.values / norm_h1v(g, potential, e))


class TestDeflationSet:
    def test_empty_set_leaves_direction_unchanged(self, gmid):
        ds = DeflationSet(grid=gmid, potential=V_HARMONIC)
        u = random_field(gmid, np.random.default_rng(1))
        assert ds.step_scale(u.values) == 1.0

    def test_unit_distance_doubles_direction(self, gmid):
        rng = np.random.default_rng(2)
        anchor = random_field(gmid, rng)
        ds = DeflationSet(grid=gmid, potential=V_HARMONIC, solutions=[anchor])
        # place the iterate at weighted distance exactly 1 from the anchor
        step = _unit_direction(gmid, V_HARMONIC, rng)
        u = Field(grid=gmid, values=anchor.values + step.values)
        assert ds.step_scale(u.values) == pytest.approx(2.0, rel=1e-10)

    def test_far_iterate_scale_tends_to_shift(self, gmid):
        rng = np.random.default_rng(3)
        anchor = random_field(gmid, rng, scale=0.01)
        ds = DeflationSet(grid=gmid, potential=V_HARMONIC, solutions=[anchor])
        step = _unit_direction(gmid, V_HARMONIC, rng)
        u = Field(grid=gmid, values=anchor.values + 1e6 * step.values)
        assert ds.step_scale(u.values) == pytest.approx(1.0, abs=1e-10)

    def test_proximity_guard(self, gmid):
        rng = np.random.default_rng(4)
        anchor = random_field(gmid, rng)
        ds = DeflationSet(grid=gmid, potential=V_HARMONIC, solutions=[anchor])
        step = _unit_direction(gmid, V_HARMONIC, rng)
        u = Field(grid=gmid, values=anchor.values + 0.01 * step.values)
        with pytest.raises(ProximityError):
            ds.step_scale(u.values)

    def test_construction_rejects_close_pair(self, gmid):
        rng = np.random.default_rng(6)
        a = random_field(gmid, rng)
        b = Field(grid=gmid, values=a.values + 1e-4 * _unit_direction(gmid, V_HARMONIC, rng).values)
        with pytest.raises(ValueError, match="separation"):
            DeflationSet(grid=gmid, potential=V_HARMONIC, solutions=[a, b])

    def test_grid_mismatch(self, gmid, grid1d):
        stray = Field(grid=grid1d, values=np.ones(grid1d.npoints))
        with pytest.raises(ValueError):
            DeflationSet(grid=gmid, potential=V_HARMONIC, solutions=[stray])


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
        prod = integrate(gmid, Field(grid=gmid, values=s1.values * s2.values))
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

    def test_sign_flips_identified_as_duplicates(self, gmid, caplog):
        # even-parity seeds beyond j=1 re-enter the ground basin (possibly
        # with flipped sign); the driver must fold them onto the stored
        # solution rather than report new ones
        sched = ContinuationSchedule()
        params = PerturbationParams(lam=1.0, p=1.5)
        cfg = MountainPassConfig()
        with caplog.at_level(logging.INFO, logger="lse.multiplicity"):
            sols = find_k_solutions(gmid, V_SHIFTED, sched, params, cfg, 3)
        assert len(sols) == 3
        folded = [
            rec for rec in caplog.records
            if "known solution" in rec.message or "did not produce" in rec.message
        ]
        assert folded, "expected at least one rejected or duplicate attempt in the log"


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

    @pytest.mark.parametrize("points, asymmetric", [(31, False), (32, True)])
    def test_full_grid_without_mirror_symmetry(self, monkeypatch, points, asymmetric):
        g = make_grid(1, 6.0, points)
        vals = V_SHIFTED.evaluate(g).values.copy()
        if asymmetric:
            vals[0] += 1e-3
        calls = self.recorded_solves(monkeypatch)
        sols = find_k_solutions(
            g, Tabulated(values=Field(grid=g, values=vals)), ContinuationSchedule(),
            PerturbationParams(lam=1.0, p=1.5), MountainPassConfig(), 1,
        )
        assert len(sols) == 1 and sols[0][0].grid == g
        assert [qg for qg, _ in calls] == [g]
