"""Tests of the benchmark itself: ``python -m pytest lsebench``."""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gates  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lse import io_cli  # noqa: E402
from lse.energy import Harmonic, PerturbationParams, Shifted  # noqa: E402
from lse.grid import make_grid  # noqa: E402
from lse.solver import ContinuationSchedule, MountainPassConfig, continue_to_limit  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.make_configs(workload, 7) == workloads.make_configs(workload, 7)
    assert workloads.make_configs(workload, 7) != workloads.make_configs(workload, 8)


def test_reference_energies_match_the_closed_forms():
    # (1/2) e^2 sqrt(pi/2) in 1d and (1/2) e^4 (pi/2) in 2d, times e^s when shifted
    assert workloads.reference_energy(1, 2.0) == pytest.approx(0.5 * math.e**2 * math.sqrt(math.pi / 2), rel=1e-15)
    assert workloads.reference_energy(1, 2.0) == pytest.approx(4.6304, abs=1e-4)
    assert workloads.reference_energy(2, 2.0) == pytest.approx(0.5 * math.e**4 * math.pi / 2, rel=1e-15)
    assert workloads.reference_energy(1, 2.0, 0.3) == pytest.approx(math.exp(0.3) * 4.630404, rel=1e-6)


@pytest.mark.parametrize("a", [0.5, 2.0, 3.7])
def test_closed_form_gaussian_solves_the_equation(a):
    # -u'' + a x^2 u = u log u^2 for u = e^b exp(-b x^2), checked by
    # central differences at a few points
    b = workloads.gausson_b(a)
    x = np.linspace(-2.0, 2.0, 9)
    h = 1e-4

    def u(t):
        return math.e**b * np.exp(-b * t * t)

    lap = (u(x + h) - 2.0 * u(x) + u(x - h)) / (h * h)
    residual = -lap + a * x * x * u(x) - u(x) * np.log(u(x) ** 2)
    assert np.max(np.abs(residual)) < 1e-5 * np.max(u(x))


def test_shifted_reference_energy_matches_a_discrete_solve():
    # the shift is an exact equivariance of the discrete problem, so the
    # shifted limit energy is e^s times the unshifted one to solver tolerance
    g = make_grid(1, 8.0, 126)
    sched = ContinuationSchedule(lambda_start=1.0, ratio=0.1, lambda_min=1e-4)
    params = PerturbationParams(lam=1.0, p=1.5)
    cfg = MountainPassConfig(descent_tol=1e-6, max_outer=500)
    _, base = continue_to_limit(g, Harmonic(2.0), sched, params, cfg)
    _, shifted = continue_to_limit(g, Shifted(Harmonic(2.0), 0.3), sched, params, cfg)
    ratio = shifted.records[-1].energy / base.records[-1].energy
    assert ratio == pytest.approx(math.exp(0.3), rel=1e-6)
    ref = workloads.reference_energy(1, 2.0)
    err = abs(base.records[-1].energy - ref) / ref
    # on a coarse grid the error is the O(h^2) discretization error
    assert 0.1 < err / workloads.discretization_scale(
        {"dim": 1, "half_width": 8.0, "points": 126, "harmonic_a": 2.0}) < 0.5


@pytest.mark.parametrize("seed", range(5))
def test_every_sweep_config_parses(seed):
    configs = workloads.make_configs("sweep", seed)
    assert len(configs) >= 100
    for cfg in configs:
        spec = io_cli.parse_config(workloads.config_text(cfg, "out"))
        assert (spec.dim, spec.points, spec.p, spec.k_solutions) == (
            cfg["dim"], cfg["points"], cfg["p"], cfg["k_solutions"])
    assert {cfg["dim"] for cfg in configs} == {1, 2, 3}
    assert {cfg["k_solutions"] for cfg in configs} == {1, 2}
    assert {cfg["potential"].split(":")[0] for cfg in configs} == {"harmonic", "quartic", "shifted"}
    assert max(cfg["points"] for cfg in configs if cfg["dim"] == 2) <= 46
    assert min(cfg["p"] for cfg in configs) < 1.1


def test_sweep_seed_moves_only_cost_neutral_inputs():
    # sizes, exponents and potential families are the same for every seed;
    # the seed picks rng_seed and the offset of each shifted potential
    def shape(cfg):
        head, *rest = cfg["potential"].split(":")
        return (cfg["dim"], cfg["points"], cfg["half_width"], cfg["p"], cfg["k_solutions"],
                head, tuple(rest[:-1] if head == "shifted" else rest))

    first, second = workloads.make_configs("sweep", 1), workloads.make_configs("sweep", 2)
    assert [shape(cfg) for cfg in first] == [shape(cfg) for cfg in second]
    assert [cfg["rng_seed"] for cfg in first] != [cfg["rng_seed"] for cfg in second]
    assert [cfg["shift"] for cfg in first] != [cfg["shift"] for cfg in second]


def test_percentile_averages_the_ranks_around_it():
    # few values: the nearest rank; 120 values: the mean of ranks 105..111
    assert bench_run._percentile([3.0, 1.0, 2.0], 0.9) == 3.0
    values = [float(i) for i in range(1, 121)]
    assert bench_run._percentile(values, 0.9) == pytest.approx(108.0)
    assert bench_run._percentile(values, 0.5) == pytest.approx(60.0)
    # failed configs (+inf) count once they reach the window, not before
    assert math.isfinite(bench_run._percentile(values[:-9] + [math.inf] * 9, 0.9))
    assert bench_run._percentile(values[:-9] + [math.inf] * 10, 0.9) == math.inf


def _tiny_config(tmp_path) -> str:
    cfg = dict(workloads.make_configs("sweep", 0)[0], dim=1, points=32, half_width=6.0,
               potential="harmonic:2.0", p=1.5, k_solutions=1)
    return workloads.config_text(cfg, str(tmp_path / "out"))


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    originals = {(path, attr): spans._resolve(path).__dict__[attr] for path, attr, _ in spans.TARGETS}
    spans.assert_pristine()
    tracer = spans.Tracer(0.0)
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="tracing wrapper"):
            spans.assert_pristine()
        assert io_cli.run(io_cli.parse_config(_tiny_config(tmp_path)), quiet=True) == 0
    finally:
        tracer.uninstall()
    for (path, attr), original in originals.items():
        assert spans._resolve(path).__dict__[attr] is original
    spans.assert_pristine()
    names = {span[1] for span in tracer.spans}
    assert {"io_cli.run", "solver.splu", "energy.parts", "grid.stencil", "verify.nehari"} <= names


def test_self_times_account_for_the_root_span(tmp_path):
    import time

    tracer = spans.Tracer(time.perf_counter())
    tracer.install()
    try:
        io_cli.run(io_cli.parse_config(_tiny_config(tmp_path)), quiet=True)
    finally:
        tracer.uninstall()
    path = str(tmp_path / "spans.jsonl")
    tracer.dump(path, time.perf_counter())
    span_list = spans.load(path)
    root = span_list[0][3] - span_list[0][2]
    assert sum(spans.self_times(span_list).values()) == pytest.approx(root, rel=1e-9)
    assert all(value >= -1e-9 for value in spans.self_times(span_list).values())


def test_outcome_gate_requires_a_fail_line():
    cfg = {"k_solutions": 1}
    failed = {"rc": 1, "fail_line": "FAIL solve found 0 of 1 requested solutions", "traceback": ""}
    assert gates.check_outcome(cfg, "unused", failed) == []
    silent = dict(failed, fail_line="found 0 of 1 requested solutions")
    assert gates.check_outcome(cfg, "unused", silent)
    raised = dict(failed, traceback="Traceback ...\nValueError: boom\n")
    assert gates.check_outcome(cfg, "unused", raised)
