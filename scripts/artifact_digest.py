#!/usr/bin/env python3
"""Digest the artifacts of every config of a benchmark workload.

Runs each config of ``lsebench/workloads.py`` (which it only reads) in
process through ``lse.io_cli``, each into its own temporary output
directory, and prints one line per config: its index, the exit code, a
sha256 over the solution fields, ``diagnostics.csv`` and ``checks.csv``
(each file's name and bytes, in name order), the lam = 0 energy of each
solution as written to ``diagnostics.csv`` (``energies=``, comma-separated
reprs, empty if the run wrote none), and the ``FAIL`` line if the run
printed one.  No timing is printed, so the output of two checkouts diffs
clean exactly when their artifacts are byte-identical, and a change that
is not byte-identical can still be compared by its energies.

``--compare OLD NEW`` reads two saved outputs instead and prints the
configs compared, how many are byte-identical, the exit-code changes, the
changes in the number of energies and the largest relative difference of
a lam = 0 energy.  It exits 1 when an exit code or an energy count changed,
or when the two outputs do not list the same configs.

Usage (the program is imported from PYTHONPATH, the workloads from this
checkout):
    PYTHONPATH=src python3 scripts/artifact_digest.py --workload ladder_1d --seed 5 > old.txt
    PYTHONPATH=src python3 scripts/artifact_digest.py --compare old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from lse.io_cli import parse_config, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "lsebench"))
import workloads  # noqa: E402

ARTIFACTS = ("diagnostics.csv", "checks.csv")


def digest(output_dir: str) -> str:
    """sha256 over the name and bytes of each field file and CSV, by name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(output_dir)):
        if name.endswith(".lsef") or name in ARTIFACTS:
            h.update(name.encode() + b"\0")
            with open(os.path.join(output_dir, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def limit_energies(output_dir: str) -> str:
    """The lam = 0 energies of ``diagnostics.csv``, comma-separated, as
    written (reprs); empty if there is no such file."""
    path = os.path.join(output_dir, "diagnostics.csv")
    if not os.path.exists(path):
        return ""
    with open(path, newline="") as handle:
        return ",".join(row["energy"] for row in csv.DictReader(handle) if float(row["lambda"]) == 0.0)


def digest_line(index: int, cfg: dict) -> str:
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(parse_config(workloads.config_text(cfg, out)), quiet=True)
        fails = [line for line in err.getvalue().splitlines() if line.startswith("FAIL")]
        fields = [f"{index}", f"rc={rc}", f"sha256={digest(out)}", f"energies={limit_energies(out)}"]
        return " ".join(fields + fails[-1:])


def read_digest(path: str) -> dict[int, tuple[str, str, list[float]]]:
    """Per config index of a saved output: its exit code, its sha256 and its
    lam = 0 energies."""
    out = {}
    with open(path) as handle:
        for line in handle:
            index, rc, sha, energies = line.split(" ", 4)[:4]
            values = energies.removeprefix("energies=")
            out[int(index)] = (rc, sha, [float(e) for e in values.split(",")] if values else [])
    return out


def compare(old_path: str, new_path: str) -> int:
    """Print how the digests of NEW differ from those of OLD; 1 on a change
    of an exit code, of an energy count or of the configs listed."""
    old, new = read_digest(old_path), read_digest(new_path)
    common = sorted(old.keys() & new.keys())
    rc_changes = [f"{i}: {old[i][0]} -> {new[i][0]}" for i in common if old[i][0] != new[i][0]]
    count_changes = [f"{i}: {len(old[i][2])} -> {len(new[i][2])}" for i in common if len(old[i][2]) != len(new[i][2])]
    diffs = [
        (abs(b - a) / max(abs(a), abs(b)), i)
        for i in common if len(old[i][2]) == len(new[i][2])
        for a, b in zip(old[i][2], new[i][2]) if a != b
    ]
    worst, where = max(diffs, default=(0.0, None))
    print(f"configs compared: {len(common)} (only in OLD: {len(old.keys() - new.keys())}, "
          f"only in NEW: {len(new.keys() - old.keys())})")
    print(f"byte-identical: {sum(old[i][:2] == new[i][:2] for i in common)}")
    print(f"exit-code changes: {', '.join(rc_changes) or 'none'}")
    print(f"energy-count changes: {', '.join(count_changes) or 'none'}")
    print(f"largest relative energy difference: {worst!r}" + (f" (config {where})" if where is not None else ""))
    return int(bool(rc_changes or count_changes or old.keys() != new.keys()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two saved outputs")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --compare")
    for index, cfg in enumerate(workloads.make_configs(args.workload, args.seed)):
        print(digest_line(index, cfg), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
