"""Correctness gates on the artifacts of one solved config.

The gates read the files ``lse solve`` emits (LSEF1 fields, diagnostics.csv,
checks.csv) and recompute what they check with their own numpy code, so a
defect in the program's quadrature cannot hide itself.  Each gate returns a
list of error strings; an empty list means the outputs are right.
"""

from __future__ import annotations

import math
import os

import numpy as np

import workloads

GATE_CHECKS = ("nehari", "energy_identity", "linf")
FAIL_STAGES = ("config", "io", "solve", "verify")
# Acceptance-suite bounds: 2d energy within 2% and profile overlap above
# 0.999 (criterion 2); 1d energy within 0.01 of the closed form, scaled by
# e^s with the potential shift (criterion 1); distinct solutions at least 0.1
# apart in H^1_V modulo sign with energies increasing by at least 1e-6, and
# Nehari / energy-mass defects within 20 tol ||u||_{H^1_V} (criteria 6, 8).
GAUSSON_2D_REL = 0.02
GAUSSON_OVERLAP = 0.999
GAUSSON_1D_ABS = 0.01
SEPARATION = 0.1
ENERGY_GAP = 1e-6
IDENTITY_FACTOR = 20.0


def read_field(path: str) -> tuple[int, int, float, np.ndarray]:
    """(dim, points, half_width, values) of an LSEF1 file."""
    with open(path, "rb") as handle:
        if handle.readline() != b"LSEF1\n":
            raise ValueError(f"{path}: bad magic")
        dim, points, half = handle.readline().split()
        values = np.frombuffer(handle.read(), dtype="<f8")
    dim, points = int(dim), int(points)
    if values.size != points**dim:
        raise ValueError(f"{path}: {values.size} values for {dim}d n={points}")
    return dim, points, float(half), values


def read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.split(",") for line in handle.read().splitlines()[1:]]


def final_energies(diag_rows: list[list[str]]) -> list[float]:
    """Limit (last-stage) energy of each solution j, in j order."""
    last: dict[int, float] = {}
    for row in diag_rows:
        last[int(row[0])] = float(row[2])
    return [last[j] for j in sorted(last)]


def _radius_squared(dim: int, points: int, half: float) -> np.ndarray:
    h = 2.0 * half / (points + 1)
    x = -half + h * np.arange(1, points + 1)
    r2 = np.zeros((points,) * dim)
    for d in range(dim):
        shape = [1] * dim
        shape[d] = points
        r2 = r2 + (x**2).reshape(shape)
    return r2.reshape(-1)


class _Quadrature:
    """Integrals of one field with zero Dirichlet exterior."""

    def __init__(self, dim: int, points: int, half: float, vvals: np.ndarray) -> None:
        self.dim, self.points = dim, points
        self.h = 2.0 * half / (points + 1)
        self.vol = self.h**dim
        self.vvals = vvals

    def grad_sq(self, u: np.ndarray) -> float:
        nd = u.reshape((self.points,) * self.dim)
        total = 0.0
        for d in range(self.dim):
            pad = [(0, 0)] * self.dim
            pad[d] = (1, 1)
            diff = np.diff(np.pad(nd, pad), axis=d) / self.h
            total += float((diff * diff).sum())
        return total * self.vol

    def h1v(self, u: np.ndarray) -> float:
        return math.sqrt(self.grad_sq(u) + self.vol * float((self.vvals * u * u).sum()))

    def identity_defects(self, u: np.ndarray) -> tuple[float, float]:
        """(Nehari margin, |I(u) - mass/2|) as the acceptance suite defines them."""
        kin = self.grad_sq(u) + self.vol * float((self.vvals * u * u).sum())
        u2 = u * u
        log_int = self.vol * float(np.sum(np.where(u2 > 0.0, u2 * np.log(np.where(u2 > 0.0, u2, 1.0)), 0.0)))
        mass = self.vol * float(u2.sum())
        energy = 0.5 * (kin + mass) - 0.5 * log_int
        return abs(kin - log_int) / (1.0 + abs(kin)), abs(energy - 0.5 * mass)


def check_outcome(cfg: dict, outdir: str, result: dict) -> list[str]:
    """Gate every config: exit 0 with k solutions whose gate checks all pass
    in checks.csv, or a nonzero exit whose last stderr line is ``FAIL <stage>``."""
    if result["traceback"]:
        return [f"raised instead of exiting: {result['traceback'].strip().splitlines()[-1]}"]
    if result["rc"] != 0:
        words = result["fail_line"].split()
        if len(words) < 2 or words[0] != "FAIL" or words[1] not in FAIL_STAGES:
            return [f"exit {result['rc']} without a FAIL <stage> line (last line {result['fail_line']!r})"]
        return []
    errors = []
    rows = read_csv(os.path.join(outdir, "checks.csv"))
    solutions = sorted({int(row[0]) for row in rows})
    if solutions != list(range(1, cfg["k_solutions"] + 1)):
        errors.append(f"checks.csv covers solutions {solutions}, expected 1..{cfg['k_solutions']}")
    for row in rows:
        if row[1] in GATE_CHECKS and row[4] != "1":
            errors.append(f"solution {row[0]} failed gate {row[1]} (margin {row[2]})")
    return errors


def energy_rel_err(cfg: dict, outdir: str) -> float:
    """Relative error of the ground-state energy against the closed form."""
    energy = final_energies(read_csv(os.path.join(outdir, "diagnostics.csv")))[0]
    reference = workloads.reference_energy(cfg["dim"], cfg["harmonic_a"], cfg["shift"])
    return abs(energy - reference) / reference


def check_gausson_2d(cfg: dict, outdir: str) -> list[str]:
    errors = []
    err = energy_rel_err(cfg, outdir)
    if not err <= GAUSSON_2D_REL:
        errors.append(f"energy off the closed form by {err:.3e} (bound {GAUSSON_2D_REL})")
    dim, points, half, u = read_field(os.path.join(outdir, "u_1.lsef"))
    star = np.exp(-_radius_squared(dim, points, half))
    overlap = abs(float(u @ star)) / (float(np.linalg.norm(u)) * float(np.linalg.norm(star)))
    if not overlap > GAUSSON_OVERLAP:
        errors.append(f"profile overlap {overlap:.6f} not above {GAUSSON_OVERLAP}")
    return errors


def check_ladder_1d(cfg: dict, outdir: str) -> list[str]:
    errors = []
    energies = final_energies(read_csv(os.path.join(outdir, "diagnostics.csv")))
    reference = workloads.reference_energy(cfg["dim"], cfg["harmonic_a"], cfg["shift"])
    if not abs(energies[0] - reference) <= GAUSSON_1D_ABS * math.exp(cfg["shift"]):
        errors.append(f"ground energy {energies[0]!r} off the closed form {reference!r}")
    if not all(b - a >= ENERGY_GAP for a, b in zip(energies, energies[1:])):
        errors.append(f"energies not strictly increasing: {energies}")
    fields = []
    for j in range(1, cfg["k_solutions"] + 1):
        dim, points, half, u = read_field(os.path.join(outdir, f"u_{j}.lsef"))
        fields.append(u)
    vvals = cfg["harmonic_a"] * _radius_squared(dim, points, half) + cfg["shift"]
    quad = _Quadrature(dim, points, half, vvals)
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            dist = min(quad.h1v(fields[i] - fields[j]), quad.h1v(fields[i] + fields[j]))
            if not dist >= SEPARATION:
                errors.append(f"solutions {i + 1} and {j + 1} only {dist:.3e} apart")
    for j, u in enumerate(fields, start=1):
        bound = IDENTITY_FACTOR * cfg["tol_grad"] * quad.h1v(u)
        nehari, energy_mass = quad.identity_defects(u)
        if not (nehari <= bound and energy_mass <= bound):
            errors.append(f"solution {j}: Nehari {nehari:.3e} / energy-mass {energy_mass:.3e} above {bound:.3e}")
    return errors


WORKLOAD_GATES = {"gausson_2d": check_gausson_2d, "ladder_1d": check_ladder_1d}
