"""Acceptance suite: the shipped guarantees, one test per criterion.

Each test is an end-to-end statement about the package at its published
tolerances, anchored by the closed-form Gaussian solution of the log
Schrodinger equation with V(x) = 2|x|^2 (energy (1/2)e^2 sqrt(pi/2) in 1d,
(1/2)e^4 (pi/2) in 2d and (1/2)e^6 (pi/2)^(3/2) in 3d).  Run with ``pytest tests/test_acceptance.py -v``
for one pass/fail line per criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from lse.energy import Harmonic, PerturbationParams, energy_parts
from lse.grid import Field, make_grid, norm_h1v
from lse.io_cli import main, read_field, write_field
from lse.multiplicity import find_k_solutions
from lse.solver import (
    ContinuationSchedule,
    MountainPassConfig,
    Preconditioner,
    check_geometry,
    continue_to_limit,
)
from lse.verify import check_energy_identity, check_gradient_fd, check_log_sobolev, check_nehari, check_scaling

V = Harmonic(2.0)
TOL_GRAD = 1e-6
SCHED = ContinuationSchedule(lambda_start=1.0, ratio=0.1, lambda_min=1e-4)
PARAMS = PerturbationParams(lam=1.0, p=1.5)
CFG = MountainPassConfig(descent_tol=TOL_GRAD, max_outer=500)

LAMBDAS = (0.0, 0.37, 1.0)
PS = (1.2, 1.5, 1.9)


def gausson_values(g) -> np.ndarray:
    return np.exp(float(g.dim)) * np.exp(-g.radius_squared().ravel())


def limit_identity_bound(g, u) -> float:
    return 20.0 * TOL_GRAD * norm_h1v(g, V, u)


def energy_mass_defect(g, u) -> float:
    vol = g.spacing**g.dim
    mass = vol * float(np.dot(u.values, u.values))
    return abs(energy_parts(g, V, u, PerturbationParams(lam=0.0)).total - 0.5 * mass)


@pytest.fixture(scope="module")
def run1d():
    g = make_grid(1, 8.0, 1022)  # h ~ 1/64, even count keeps the origin off-grid
    u, report = continue_to_limit(g, V, SCHED, PARAMS, CFG)
    return g, u, report


@pytest.fixture(scope="module")
def run2d():
    g = make_grid(2, 6.0, 190)  # h ~ 1/16 per axis
    u, report = continue_to_limit(g, V, SCHED, PARAMS, CFG)
    return g, u, report


@pytest.fixture(scope="module")
def run_k3():
    g = make_grid(1, 8.0, 1022)
    return g, find_k_solutions(g, V, SCHED, PARAMS, CFG, 3)


def test_criterion_01_gausson_recovery_1d(run1d):
    g, u, report = run1d
    star = gausson_values(g)
    rel_l2 = float(np.linalg.norm(u.values - star) / np.linalg.norm(star))
    energy = report.records[-1].energy
    assert rel_l2 <= 5e-3
    assert abs(energy - 4.63036) <= 0.01
    assert report.records[-1].lam == 0.0
    assert report.wall_time <= 60.0


def test_criterion_02_gausson_recovery_2d(run2d):
    g, u, report = run2d
    energy = report.records[-1].energy
    assert abs(energy - 42.88) / 42.88 <= 0.02
    star = gausson_values(g)
    overlap = float(np.dot(u.values, star) / (np.linalg.norm(u.values) * np.linalg.norm(star)))
    assert overlap > 0.999  # same profile, not an accidental energy match
    assert report.wall_time <= 300.0


def test_criterion_03_gradient_consistency():
    for n in (17, 33):
        g = make_grid(1, 4.0, n)
        for lam in LAMBDAS:
            for p in PS:
                res = check_gradient_fd(g, V, PerturbationParams(lam=lam, p=p), trials=20)
                assert res.margin <= 1e-6, (n, lam, p, res.margin)
                assert res.passed


def test_criterion_04_energy_identity():
    g = make_grid(1, 4.0, 33)
    for lam in LAMBDAS:
        for p in PS:
            params = PerturbationParams(lam=lam, p=p)
            rng = np.random.default_rng(4000 + int(100 * lam) + int(10 * p))
            for _ in range(100):
                u = Field(grid=g, values=rng.uniform(-2.0, 2.0, g.npoints))
                res = check_energy_identity(g, V, u, params)
                assert res.margin <= 1e-10, (lam, p, res.margin)


def test_criterion_05_scaling_equivariance():
    g = make_grid(1, 4.0, 32)
    rng = np.random.default_rng(55)
    for _ in range(50):
        u = Field(grid=g, values=rng.uniform(-2.0, 2.0, g.npoints))
        for mu in (0.3, 1.0, -2.0):
            res = check_scaling(g, V, u, mu)
            assert res.margin <= 1e-12, (mu, res.margin)


def test_criterion_06_limit_identities(run1d):
    g, u, report = run1d
    bound = limit_identity_bound(g, u)
    res = check_nehari(g, V, u, tolerance=bound)
    assert res.passed, (res.margin, bound)
    assert report.nehari_margin <= bound
    assert energy_mass_defect(g, u) <= bound
    assert report.energy_mass_defect <= bound


def test_criterion_07_lambda_uniform_bounds(run1d):
    _, _, report = run1d
    energies = [rec.energy for rec in report.records]
    assert all(e > 0.0 for e in energies)
    assert all(e <= report.m2_estimate + 1e-9 for e in energies)
    positive = [rec.lambda_w1p_p for rec in report.records if rec.lam > 0.0]
    assert all(v > 0.0 for v in positive)
    # decays to zero within a factor-2 envelope: never more than doubles
    # step to step, and the final perturbed stage is down two orders
    assert all(b <= 2.0 * a for a, b in zip(positive, positive[1:]))
    assert positive[-1] <= 1e-2 * positive[0]
    assert report.records[-1].lam == 0.0
    assert report.records[-1].lambda_w1p_p == 0.0


def test_criterion_08_multiplicity(run_k3):
    g, solutions = run_k3
    assert len(solutions) == 3
    energies = [energy for _, energy, _ in solutions]
    assert all(b - a >= 1e-6 for a, b in zip(energies, energies[1:]))
    fields = [u for u, _, _ in solutions]
    for i in range(3):
        for j in range(i + 1, 3):
            diff = Field(grid=g, values=fields[i].values - fields[j].values)
            summ = Field(grid=g, values=fields[i].values + fields[j].values)
            dist = min(norm_h1v(g, V, diff), norm_h1v(g, V, summ))
            assert dist >= 0.1, (i, j, dist)
    for u in fields:
        bound = limit_identity_bound(g, u)
        assert check_nehari(g, V, u, tolerance=bound).passed
        assert energy_mass_defect(g, u) <= bound


def test_criterion_09_log_sobolev_suite(run1d):
    # random smooth fields: preconditioner-smoothed noise at mixed amplitudes
    # (the inequality is a continuum statement; fields whose discrete gradient
    # blows up with the mesh, like lone spikes, are outside its scope)
    g = make_grid(1, 8.0, 128)
    pre = Preconditioner(g, V)
    rng = np.random.default_rng(99)
    for _ in range(100):
        w = pre.solve(rng.standard_normal(g.npoints))
        w = w / np.abs(w).max() * 10 ** rng.uniform(-1, 1)
        u = Field(grid=g, values=w)
        for a in (0.5, 1.0, 2.0):
            res = check_log_sobolev(g, u, a)
            assert res.passed, (a, res.margin)
    gf = make_grid(1, 8.0, 1022)
    gausson = Field(grid=gf, values=gausson_values(gf))
    for a in (0.5, 1.0):
        assert check_log_sobolev(gf, gausson, a).passed


def test_criterion_10_geometry_probe():
    g = make_grid(1, 8.0, 254)
    rho = 1e-3
    for lam in (1e-4, 1.0):
        alpha = check_geometry(g, V, PerturbationParams(lam=lam, p=1.5), rho, 200)
        assert alpha >= 0.25 * rho**2, (lam, alpha)


def test_criterion_11_determinism_and_io(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dim=1\nhalf_width=8.0\npoints=126\npotential=harmonic:2.0\np=1.5\n"
        "lambda_start=1.0\nlambda_ratio=0.1\nlambda_min=1e-4\ntol_grad=1e-6\n"
        "max_outer=500\nk_solutions=1\nrng_seed=42\noutput_dir=unused\n"
        "emit=fields,diagnostics,checks\n"
    )
    outa, outb = tmp_path / "a", tmp_path / "b"
    assert main(["solve", str(cfg), "--output-dir", str(outa), "--quiet"]) == 0
    assert main(["solve", str(cfg), "--output-dir", str(outb), "--quiet"]) == 0
    assert (outa / "diagnostics.csv").read_bytes() == (outb / "diagnostics.csv").read_bytes()
    fields = sorted(outa.glob("u_*.lsef"))
    assert fields
    for path in fields:
        g, u = read_field(str(path))
        copy = tmp_path / ("rt_" + path.name)
        write_field(str(copy), g, u)
        assert copy.read_bytes() == path.read_bytes()
        _, u2 = read_field(str(copy))
        assert u2.values.tobytes() == u.values.tobytes()


def test_criterion_12_gausson_recovery_3d():
    # solved on the even quotient grid (15^3 of the 30^3 unknowns) and
    # unfolded; the energy lies below the closed form by the O(h^2)
    # discretization error, whose size relative to N b h^2 (b = 1 for
    # V = 2|x|^2) is about 0.25 on every grid measured (0.247 at n = 30,
    # 0.248 at n = 38)
    g = make_grid(3, 4.0, 30)
    ((u, energy, report),) = find_k_solutions(g, V, SCHED, PARAMS, CFG, 1)
    assert u.grid == g
    reference = 0.5 * np.exp(6.0) * (np.pi / 2.0) ** 1.5
    ratio = (reference - energy) / reference / (3.0 * g.spacing**2)
    assert 0.2 <= ratio <= 0.3, ratio
    star = gausson_values(g)
    overlap = float(np.dot(u.values, star) / (np.linalg.norm(u.values) * np.linalg.norm(star)))
    assert overlap > 0.999
    assert check_nehari(g, V, u, tolerance=limit_identity_bound(g, u)).passed
    assert report.wall_time <= 60.0
