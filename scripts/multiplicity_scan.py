#!/usr/bin/env python3
"""Scan the k-solution driver over a fixed list of multiplicity cases.

Runs ``find_k_solutions`` with the default ``ContinuationSchedule`` and
``MountainPassConfig`` at lam_start = 1 on each case: 1d L = 8 with n = 254
and 255, 2d L = 6 with n = 40 and 41, and 3d L = 5 with n = 16; the
potentials harmonic:2.0, quartic:1.0 and shifted:harmonic:0.7:0.3, the odd
point counts only with the shifted one (the other two vanish at the
origin, which an odd n puts on the grid); p in {1.3, 1.9}; k in {3, 5}, or
k = 3 only in 3d.  That is 38 cases.

Prints one line per case: its label and the sorted lam = 0 energies of the
solutions found (reprs, comma-separated), or the exception it raised.  No
timing is printed, so the outputs of two checkouts diff line by line where
a change to the solver changes which solutions the driver finds.

``--compare OLD NEW`` reads two saved outputs instead and prints the cases
compared, the lines of each case whose outcome changed (its number of
energies, or the exception it raised), and the largest relative difference
|b - a| / max(|a|, |b|) of an energy among the other cases, the rule of
``artifact_digest.py --compare``.  It exits 1 when an outcome changed, or
when the two outputs do not list the same cases.

Usage (the program is imported from PYTHONPATH):
    PYTHONPATH=src python3 scripts/multiplicity_scan.py
    PYTHONPATH=src python3 scripts/multiplicity_scan.py --dims 1
    PYTHONPATH=src python3 scripts/multiplicity_scan.py > old.txt
    PYTHONPATH=src python3 scripts/multiplicity_scan.py --compare old.txt new.txt
"""

from __future__ import annotations

import argparse

from lse.energy import PerturbationParams
from lse.grid import make_grid
from lse.io_cli import build_potential
from lse.multiplicity import find_k_solutions
from lse.solver import ContinuationSchedule, MountainPassConfig, SolverError

# dim -> (half width, point counts)
GRIDS = {1: (8.0, (254, 255)), 2: (6.0, (40, 41)), 3: (5.0, (16,))}
POTENTIALS = ("harmonic:2.0", "quartic:1.0", "shifted:harmonic:0.7:0.3")
SHIFTED = POTENTIALS[2]


def cases(dims):
    """(dim, half width, n, potential descriptor, p, k) of every scanned case."""
    for dim in dims:
        half_width, counts = GRIDS[dim]
        for n in counts:
            for desc in POTENTIALS if n % 2 == 0 else (SHIFTED,):
                for p in (1.3, 1.9):
                    for k in (3, 5) if dim < 3 else (3,):
                        yield dim, half_width, n, desc, p, k


def scan_line(dim, half_width, n, desc, p, k) -> str:
    label = f"dim={dim} n={n} V={desc} p={p} k={k}:"
    try:
        found = find_k_solutions(
            make_grid(dim, half_width, n),
            build_potential(desc),
            ContinuationSchedule(),
            PerturbationParams(lam=1.0, p=p),
            MountainPassConfig(),
            k,
        )
    except (SolverError, ValueError) as exc:
        return f"{label} {type(exc).__name__}: {exc}"
    return f"{label} " + ",".join(repr(energy) for _, energy, _ in found)


def read_scan(path: str) -> dict[str, tuple[int | str, list[float], str]]:
    """Per case label of a saved output: its outcome (the number of energies
    it printed, or the name of the exception it raised), its energies and
    its line."""
    out = {}
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            label, _, rest = line.partition(": ")
            try:
                energies = [float(e) for e in rest.split(",")] if rest else []
            except ValueError:
                out[label] = (rest.partition(":")[0], [], line)
            else:
                out[label] = (len(energies), energies, line)
    return out


def compare(old_path: str, new_path: str) -> int:
    """Print how the cases of NEW differ from those of OLD; 1 on a change of
    an outcome or of the cases listed."""
    old, new = read_scan(old_path), read_scan(new_path)
    common = [label for label in old if label in new]
    changed = [label for label in common if old[label][0] != new[label][0]]
    diffs = [
        (abs(b - a) / max(abs(a), abs(b)), label)
        for label in common if label not in changed
        for a, b in zip(old[label][1], new[label][1]) if a != b
    ]
    worst, where = max(diffs, default=(0.0, None))
    print(f"cases compared: {len(common)} (only in OLD: {len(old.keys() - new.keys())}, "
          f"only in NEW: {len(new.keys() - old.keys())})")
    print(f"outcome changes: {len(changed) or 'none'}")
    for label in changed:
        print(f"  OLD {old[label][2]}\n  NEW {new[label][2]}")
    print(f"largest relative energy difference: {worst!r}" + (f" ({where})" if where is not None else ""))
    return int(bool(changed or old.keys() != new.keys()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", choices=sorted(GRIDS), default=sorted(GRIDS))
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two saved outputs")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    for case in cases(sorted(set(args.dims))):
        print(scan_line(*case), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
