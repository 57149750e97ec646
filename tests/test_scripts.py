"""The experiment scripts under scripts/ run to completion on small inputs."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["gausson_convergence.py", "--points", "30", "62"],
        ["multiplicity_demo.py", "--k", "2", "--points", "62"],
    ],
    ids=["gausson_convergence", "multiplicity_demo"],
)
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_artifact_digest_prints_one_line_per_config():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), "--workload", "ladder_1d", "--seed", "5"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # ladder_1d has one config, which solves its k = 4 solutions: four
    # lam = 0 energies and no FAIL line
    match = re.fullmatch(r"0 rc=0 sha256=[0-9a-f]{64} energies=(\S+)\n", proc.stdout)
    assert match
    energies = [float(e) for e in match.group(1).split(",")]
    assert len(energies) == 4 and all(e > 0.0 for e in energies)


def test_artifact_digest_compares_two_saved_outputs(tmp_path):
    sha = ["0" * 64, "1" * 64]
    old = tmp_path / "old.txt"
    old.write_text(
        f"0 rc=0 sha256={sha[0]} energies=4.0,100.0\n"
        f"1 rc=0 sha256={sha[0]} energies=2.0\n"
        f"2 rc=1 sha256={sha[0]} energies= FAIL config potential not positive on the grid\n"
    )
    same = tmp_path / "same.txt"
    same.write_text(
        f"0 rc=0 sha256={sha[0]} energies=4.0,100.0\n"
        f"1 rc=0 sha256={sha[1]} energies=2.0000000002\n"
        f"2 rc=1 sha256={sha[0]} energies= FAIL config potential not positive on the grid\n"
    )
    moved = tmp_path / "moved.txt"
    moved.write_text(
        f"0 rc=1 sha256={sha[1]} energies=4.0\n"
        f"1 rc=0 sha256={sha[0]} energies=2.0\n"
        f"2 rc=1 sha256={sha[0]} energies= FAIL config potential not positive on the grid\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "artifact_digest.py")

    def compare(new):
        argv = [sys.executable, script, "--compare", str(old), str(new)]
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)

    proc = compare(same)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == [
        "configs compared: 3 (only in OLD: 0, only in NEW: 0)",
        "byte-identical: 2",
        "exit-code changes: none",
        "energy-count changes: none",
    ]
    match = re.fullmatch(r"largest relative energy difference: (\S+) \(config 1\)", lines[4])
    assert match and float(match.group(1)) == pytest.approx(1e-10)
    proc = compare(moved)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[1:4] == [
        "byte-identical: 2", "exit-code changes: 0: rc=0 -> rc=1", "energy-count changes: 0: 2 -> 1",
    ]


def test_multiplicity_scan_prints_one_line_per_case():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "multiplicity_scan.py"), "--dims", "1"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the 16 1d cases (12 on n = 254, 4 on n = 255) each find their k
    # solutions, printed as sorted positive energies
    lines = proc.stdout.splitlines()
    assert len(lines) == 16
    for line in lines:
        match = re.fullmatch(r"dim=1 n=25[45] V=\S+ p=1\.[39] k=([35]): (\S+)", line)
        assert match, line
        energies = [float(e) for e in match.group(2).split(",")]
        assert len(energies) == int(match.group(1)) and energies == sorted(energies) and energies[0] > 0.0


def test_multiplicity_scan_compares_two_saved_outputs(tmp_path):
    label = "dim=2 n=40 V=harmonic:2.0 p=1.3 k="
    old = tmp_path / "old.txt"
    old.write_text(
        f"{label}3: 4.0,100.0,2000.0\n"
        f"{label}5: 4.0,100.0\n"
        f"{label}7: ConvergenceFailure: mountain pass stopped at residual 1.000e-03 after 500 iterations\n"
    )
    same = tmp_path / "same.txt"
    same.write_text(
        f"{label}3: 4.0,100.00000001,2000.0\n"
        f"{label}5: 4.0,100.0\n"
        f"{label}7: ConvergenceFailure: mountain pass stopped at residual 2.000e-03 after 500 iterations\n"
    )
    moved = tmp_path / "moved.txt"
    moved.write_text(
        f"{label}3: 4.0,100.0,2000.0\n"
        f"{label}5: 4.0,100.0,150.0\n"
        f"{label}7: 4.0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "multiplicity_scan.py")

    def compare(new):
        argv = [sys.executable, script, "--compare", str(old), str(new)]
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)

    proc = compare(same)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["cases compared: 3 (only in OLD: 0, only in NEW: 0)", "outcome changes: none"]
    match = re.fullmatch(rf"largest relative energy difference: (\S+) \({re.escape(label)}3\)", lines[2])
    assert match and float(match.group(1)) == pytest.approx(1e-10)
    # an added energy and an exception that became a solution both change
    # the outcome; the cases that keep theirs are still compared
    proc = compare(moved)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "cases compared: 3 (only in OLD: 0, only in NEW: 0)",
        "outcome changes: 2",
        f"  OLD {label}5: 4.0,100.0",
        f"  NEW {label}5: 4.0,100.0,150.0",
        f"  OLD {label}7: ConvergenceFailure: mountain pass stopped at residual 1.000e-03 after 500 iterations",
        f"  NEW {label}7: 4.0",
        "largest relative energy difference: 0.0",
    ]


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "b.py").write_text(
        '"""Module docstring\n\nover three lines."""\n\n'
        "# a comment\nimport os  # a trailing comment counts\n\n\n"
        "class A:\n    '''Class docstring.'''\n\n    def f(self):\n"
        '        """One line."""\n        return """not a docstring"""\n'
    )
    (tmp_path / "a.py").write_text("x = 1\n")
    argv = [sys.executable, str(ROOT / "scripts" / "code_lines.py"), "--src", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a 1\nb 4\ntotal 5\n"
    # the package itself: one row per module, and their sum
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")], cwd=ROOT, capture_output=True, text=True, timeout=60)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in rows[:-1]] == sorted(p.stem for p in (ROOT / "src" / "lse").glob("*.py"))
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1]) > 0
