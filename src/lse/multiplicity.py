"""Multiple critical points via deflation and structured seeding.

Distinct solutions are obtained by rerunning the continuation from seeds
with increasing oscillation (Hermite-function profiles) while *deflating*
the descent direction against everything already found: the step is
multiplied by prod_i (dist(u, u_i)^(-2) + 1), which blows up near stored
solutions and tends to 1 far away, pushing iterates into fresh basins.
Both u_i and -u_i are stored, since the energy is even and sign flips are
not new solutions.  Solutions closer than ``_SEPARATION`` in the weighted
Sobolev norm count as one.

Each seed has a definite parity on every axis.  When the potential is
mirror-symmetric (and the point count even), the seed is solved on the
quotient grid of its parity sector, a 1/2^dim orthant of the box, and
deflated only against solutions of the same sector; critical points of the
energy restricted to a sector are critical points of the full energy
(Palais's principle of symmetric criticality), so the accepted solution is
unfolded to the full grid.  Otherwise every seed runs on the full grid.

Finding k distinct fields this way is evidence for multiplicity, not a
proof; the deflation operator is a computational surrogate for a
topological minimax construction and is documented as such.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite as herm

from .energy import PerturbationParams, Tabulated
from .grid import Field, Grid, _h1v_raw, quotient_grid, unfold
from .solver import (
    CollapseError,
    ContinuationSchedule,
    ConvergenceFailure,
    GeometryFailure,
    MountainPassConfig,
    Preconditioner,
    SolveReport,
    continue_to_limit,
)

__all__ = [
    "ProximityError",
    "DeflationSet",
    "structured_seed",
    "find_k_solutions",
]

log = logging.getLogger(__name__)

# Deflation factor dist^(-_DEFLATION_POWER) + _DEFLATION_SHIFT per stored
# solution, and the weighted-norm distance below which two solutions are the
# same (an iterate within half of it of a stored one is rejected).
_DEFLATION_POWER = 2.0
_DEFLATION_SHIFT = 1.0
_SEPARATION = 0.1


class ProximityError(RuntimeError):
    """Iterate re-entered a deflated basin (closer than separation/2)."""


@dataclass
class DeflationSet:
    """Stored solutions plus the deflation factor they induce.

    The scaling applied to a descent direction at iterate u is prod over
    stored s of (||u - s||_{H1_V}^(-2) + 1); an empty set scales by exactly
    1.  The grid and potential are carried so the weighted norm is
    computable without extra context.
    """

    grid: Grid
    potential: object
    solutions: list[Field] = field(default_factory=list)

    def __post_init__(self) -> None:
        vv = self.potential.evaluate(self.grid).values
        for s in self.solutions:
            if s.grid != self.grid:
                raise ValueError("stored solution lives on a different grid")
        for i, a in enumerate(self.solutions):
            for b in self.solutions[i + 1 :]:
                d = _h1v_raw(self.grid, vv, a.values - b.values)
                if d < _SEPARATION:
                    raise ValueError(f"stored solutions {d:.3e} apart, below separation {_SEPARATION:g}")
        self._vvals = vv

    def step_scale(self, u_flat: np.ndarray) -> float:
        """Deflation factor at the iterate; raises ProximityError inside
        the _SEPARATION/2 guard band of any stored solution."""
        factor = 1.0
        for s in self.solutions:
            d = _h1v_raw(self.grid, self._vvals, u_flat - s.values)
            if d < 0.5 * _SEPARATION:
                raise ProximityError(
                    f"iterate within {d:.3e} of a deflated solution (guard {0.5 * _SEPARATION:g})"
                )
            factor *= d ** (-_DEFLATION_POWER) + _DEFLATION_SHIFT
        return factor


def structured_seed(g: Grid, j: int, potential) -> Field:
    """j-th seed profile: Hermite polynomial of degree j-1 along the first
    axis times a Gaussian envelope, so the seed has j-1 sign changes.

    Normalized to unit weighted-Sobolev norm.  Raises for j >= n/2 (n the
    points per axis across the box), where the oscillations are no longer
    resolved.  On a quotient grid it is the restriction of the full-grid
    seed; only a seed whose parity matches the grid's mirror is meaningful.
    """
    if j < 1:
        raise ValueError(f"seed index j={j} must be at least 1")
    if j >= g.box_points / 2:
        raise ValueError(
            f"seed index j={j} under-resolved on {g.box_points} points per axis "
            f"(need j < n/2)"
        )
    x1 = g.coordinate_arrays()[0]
    coeffs = np.zeros(j)
    coeffs[j - 1] = 1.0
    vals = (herm.hermval(x1, coeffs) * np.exp(-g.radius_squared())).reshape(-1)
    return Field(grid=g, values=vals / _h1v_raw(g, potential.evaluate(g).values, vals))


def find_k_solutions(
    g: Grid,
    potential,
    sched: ContinuationSchedule,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    k: int,
) -> list[tuple[Field, float, SolveReport]]:
    """Collect up to k distinct solutions of the lam -> 0 limit problem.

    Seeds j = 1, 2, ... are tried in order (up to 3k attempts).  When n is
    even and V equals its mirror image on every axis, bit for bit, seed j
    runs on the quotient grid of its sector, axis-0 parity (-1)^(j-1) and
    even on every other axis, with V restricted to it; otherwise on the
    full grid.  Each attempt deflates against the lam-matched continuation
    trajectories of everything accepted so far in its sector, so stage i of
    a new run avoids stage i of the old ones.  Candidates whose unfolded
    field is closer than ``_SEPARATION`` to +-(an accepted solution) are
    rejected as duplicates.  Returns the accepted full-grid fields with
    their energies and the reports of ``continue_to_limit``, sorted by
    energy; a shortfall is logged, not raised.
    """
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    vv = potential.evaluate(g).values
    nd = vv.reshape(g.shape)
    folds = g.points_per_dim % 2 == 0 and all(np.array_equal(nd, np.flip(nd, axis=d)) for d in range(g.dim))
    # parity sector -> (grid, potential, preconditioner, accepted reports)
    sectors: dict[tuple[int, ...], tuple] = {}
    accepted: list[tuple[Field, float, SolveReport]] = []

    def deflation_for_stage(i: int):
        # the sector (sg, sv, reports) of the running attempt
        if not reports:
            return None
        sols: list[Field] = []
        for rep in reports:
            traj = rep.trajectory[min(i, len(rep.trajectory) - 1)]
            sols.append(traj)
            sols.append(Field(grid=sg, values=-traj.values))
        return DeflationSet(grid=sg, potential=sv, solutions=sols)

    for attempt in range(1, 3 * k + 1):
        if len(accepted) >= k:
            break
        key = ((-1) ** (attempt - 1),) + (1,) * (g.dim - 1) if folds else ()
        if key not in sectors:
            sg, sv = g, potential
            if key:
                sg = quotient_grid(g, key)
                sv = Tabulated(values=Field(grid=sg, values=nd[(slice(sg.points_per_dim, None),) * g.dim]))
            sectors[key] = (sg, sv, Preconditioner(sg, sv), [])
        sg, sv, precond, reports = sectors[key]
        try:
            seed = structured_seed(sg, attempt, sv)
        except ValueError as exc:
            log.warning("seed %d rejected: %s", attempt, exc)
            break
        try:
            u, rep = continue_to_limit(
                sg, sv, sched, params, cfg,
                seed=seed, deflation_for_stage=deflation_for_stage, precond=precond,
            )
        except (CollapseError, ConvergenceFailure, GeometryFailure, ProximityError) as exc:
            log.info("seed %d did not produce a solution: %s", attempt, exc)
            continue
        u = unfold(sg, u.values)
        dup = False
        for prev, _, _ in accepted:
            d = min(
                _h1v_raw(g, vv, u.values - prev.values),
                _h1v_raw(g, vv, u.values + prev.values),
            )
            if d < _SEPARATION:
                dup = True
                log.info("seed %d converged to a known solution (distance %.3e)", attempt, d)
                break
        if dup:
            continue
        accepted.append((u, rep.records[-1].energy, rep))
        reports.append(rep)

    accepted.sort(key=lambda item: item[1])
    if len(accepted) < k:
        log.warning("found %d of %d requested solutions in %d attempts",
                    len(accepted), k, 3 * k)
    for (_, e1, _), (_, e2, _) in zip(accepted, accepted[1:]):
        if e2 - e1 < 1e-6:
            log.warning(
                "energies %.8f and %.8f closer than 1e-6: possible duplicates "
                "or symmetry copies", e1, e2,
            )
    return accepted
