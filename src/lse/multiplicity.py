"""Multiple critical points via deflation and structured seeding.

Distinct solutions are obtained by rerunning the continuation from seeds
with increasing oscillation (Hermite-function profiles) while *deflating*
against everything already found: each descent equilibrates its iterate
over the span of the stored solutions by saddle-free Newton steps (see
``lse.solver._subspace_local_max``), which the stored solutions repel,
pushing iterates into fresh basins.  One sign of each stored solution
suffices, since the span of u_i is that of -u_i.  Solutions closer than
``_SEPARATION`` in the weighted Sobolev norm, modulo sign, count as one.

Each seed has a definite parity on every axis.  When the grid folds for
the potential (``lse.grid.fold`` decides, and gives V's share), the seed is
solved on the quotient grid of its parity sector, a 1/2^dim orthant of the
box, and deflated only against solutions of the same sector; critical
points of the energy restricted to a sector are critical points of the full
energy (Palais's principle of symmetric criticality), so the accepted
solution is unfolded to the full grid.  Otherwise every seed runs on the
full grid.

Finding k distinct fields this way is evidence for multiplicity, not a
proof; deflation is a computational surrogate for a topological minimax
construction and is documented as such.
"""

from __future__ import annotations

import logging

from .energy import PerturbationParams, Tabulated
from .grid import Field, Grid, _h1v_raw, fold, quotient_grid, unfold
from .solver import (
    ContinuationSchedule,
    MountainPassConfig,
    Preconditioner,
    SolveReport,
    SolverError,
    continue_to_limit,
    structured_seed,
)

__all__ = [
    "find_k_solutions",
]

log = logging.getLogger(__name__)

# Weighted-norm distance, modulo sign, below which two solutions are the same.
_SEPARATION = 0.1


def find_k_solutions(
    g: Grid,
    potential,
    sched: ContinuationSchedule,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    k: int,
) -> list[tuple[Field, float, SolveReport]]:
    """Collect up to k distinct solutions of the lam -> 0 limit problem.

    Seeds j = 1, 2, ... are tried in order (up to 3k attempts).  When g
    folds for V (``fold``: an even n and V its own mirror image on every
    axis, bit for bit), seed j runs on the quotient grid of its sector,
    axis-0 parity (-1)^(j-1) and even on every other axis, with V's share
    on it; otherwise on the full grid.  Each attempt deflates against the
    lam-matched continuation trajectories of everything accepted so far in
    its sector: stage i of a new run holds stage i of the old ones in its
    saddle-free span (one sign each), which repels it from them.
    Candidates whose unfolded field is closer than ``_SEPARATION`` to
    +-(an accepted solution) are rejected as duplicates.  Returns the accepted full-grid fields with
    their energies and the reports of ``continue_to_limit``, sorted by
    energy; a shortfall is logged, not raised.  Every lam comes from
    ``sched``, so of ``params`` only ``p`` is read.
    """
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    vv = potential.evaluate(g).values
    share = fold(g, vv, (1,) * g.dim)  # V on every sector's quotient grid, None unless g folds for V
    # parity sector -> (grid, potential, preconditioner, accepted trajectories)
    sectors: dict[tuple[int, ...], tuple] = {}
    accepted: list[tuple[Field, float, SolveReport]] = []
    tried = 0  # seeds that reached continue_to_limit
    for attempt in range(1, 3 * k + 1):
        if len(accepted) >= k:
            break
        key = ((-1) ** (attempt - 1),) + (1,) * (g.dim - 1) if share is not None else ()
        if key not in sectors:
            sg, sv = g, potential
            if key:
                sg = quotient_grid(g, key)
                sv = Tabulated(values=Field(grid=sg, values=share))
            sectors[key] = (sg, sv, Preconditioner(sg, sv), [])
        sg, sv, precond, trajectories = sectors[key]
        try:
            seed = structured_seed(sg, attempt, sv)
        except ValueError as exc:
            log.warning("seed %d rejected: %s", attempt, exc)
            break
        tried += 1
        try:
            u, rep = continue_to_limit(
                sg, sv, sched, params, cfg,
                seed=seed, trajectories=trajectories, precond=precond,
            )
        except SolverError as exc:
            log.info("seed %d did not produce a solution: %s", attempt, exc)
            continue
        log.info("seed %d solved: %d Newton steps, %d step and Newton factorizations, "
                 "%d discarded Newton trials", attempt, rep.newton_steps, rep.factorizations, rep.discarded_trials)
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
        trajectories.append(rep.trajectory)

    accepted.sort(key=lambda item: item[1])
    if len(accepted) < k:
        log.warning("found %d of %d requested solutions in %d attempts",
                    len(accepted), k, tried)
    for (_, e1, _), (_, e2, _) in zip(accepted, accepted[1:]):
        if e2 - e1 < 1e-6:
            log.warning(
                "energies %.8f and %.8f closer than 1e-6: possible duplicates "
                "or symmetry copies", e1, e2,
            )
    return accepted
