#!/usr/bin/env python3
"""Find several distinct solutions of one problem by deflated continuation.

Runs the k-solution driver on the 1d harmonic problem and prints, for each
accepted solution: its limit energy, sign-change count (nodal structure),
the final residual, and its descent iterations summed over the lambda
stages.  Then prints the pairwise H^1_V distance matrix (modulo sign) to
show the solutions are genuinely distinct, and the theta proxy trend: at a
critical point the energy equals half the mass integral, so
theta_j = 2 I(u_j) / ||u_j||_2^2 should sit at 1 for every j while I(u_j)
grows with j.

Usage:
    python3 scripts/multiplicity_demo.py
    python3 scripts/multiplicity_demo.py --k 2 --points 254
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from lse.energy import Harmonic, PerturbationParams, Shifted
from lse.grid import Field, make_grid, norm_h1v
from lse.multiplicity import find_k_solutions
from lse.solver import ContinuationSchedule, MountainPassConfig


def sign_changes(values: np.ndarray) -> int:
    trimmed = values[np.abs(values) > 1e-9 * np.abs(values).max()]
    if trimmed.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(trimmed)) != 0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=3, help="number of solutions to find")
    parser.add_argument("--points", type=int, default=1022)
    parser.add_argument("--half-width", type=float, default=8.0)
    parser.add_argument(
        "--potential",
        choices=("harmonic", "shifted"),
        default="harmonic",
        help="harmonic: V=2|x|^2 (Gausson ground state); shifted: V=2|x|^2+1",
    )
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args()

    g = make_grid(1, args.half_width, args.points)
    potential = Harmonic(2.0) if args.potential == "harmonic" else Shifted(Harmonic(2.0), 1.0)
    sched = ContinuationSchedule(lambda_start=1.0, ratio=0.1, lambda_min=1e-4)
    params = PerturbationParams(lam=1.0, p=1.5)
    cfg = MountainPassConfig(descent_tol=args.tol, max_outer=500)

    start = time.perf_counter()
    solutions = find_k_solutions(g, potential, sched, params, cfg, args.k)
    elapsed = time.perf_counter() - start
    print(f"# found {len(solutions)} of {args.k} requested in {elapsed:.2f}s "
          f"(n={args.points}, potential={args.potential})")

    vol = g.spacing
    print(f"{'j':>3} {'energy':>18} {'nodes':>6} {'theta':>10} {'resid_raw':>11} {'iters':>6}")
    for j, (u, energy, report) in enumerate(solutions, start=1):
        mass = vol * float(np.dot(u.values, u.values))
        theta = 2.0 * energy / mass
        nodes = sign_changes(u.values)
        rec = report.records[-1]
        print(f"{j:>3} {energy:>18.10f} {nodes:>6} {theta:>10.6f} {rec.resid_raw:>11.3e} "
              f"{sum(r.iterations for r in report.records):>6}")

    print("\n# pairwise H^1_V distance, modulo sign")
    k = len(solutions)
    header = "      " + "".join(f"{j:>12}" for j in range(1, k + 1))
    print(header)
    for i in range(k):
        row = [f"{i + 1:>4}  "]
        for j in range(k):
            ui, uj = solutions[i][0], solutions[j][0]
            diff = Field(grid=g, values=ui.values - uj.values)
            summ = Field(grid=g, values=ui.values + uj.values)
            dist = min(norm_h1v(g, potential, diff), norm_h1v(g, potential, summ))
            row.append(f"{dist:>12.4f}")
        print("".join(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
