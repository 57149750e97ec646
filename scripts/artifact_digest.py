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

Usage (the program is imported from PYTHONPATH, the workloads from this
checkout):
    PYTHONPATH=src python3 scripts/artifact_digest.py --workload ladder_1d --seed 5
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for index, cfg in enumerate(workloads.make_configs(args.workload, args.seed)):
        print(digest_line(index, cfg), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
