"""Benchmark for lse: time to a verified solution, end to end and per layer.

    python3 lsebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The seed only generates the workload's configs (see workloads.py).

This is a closed loop with one client: every sample is a fresh child
process (child.py) that starts after the previous one has exited, with
BLAS/OpenMP pinned to ``THREADS`` threads.  Every sample's outputs go
through the correctness gates (gates.py); a wrong output makes the run an
error, not a sample.

``--trace 0`` reports the end-to-end metrics: ``SETUP_PROBES`` setup-only
children, then solve samples until ``--seconds`` have passed since the
first of them started (at least one sample).
``--trace 1`` runs one untraced and ``TRACED_RUNS`` traced solve children
and reports the per-layer metrics from the spans (spans.py), the tracing
overhead, and a self-time table; the exact counts must repeat across the
traced children.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it describe the environment
and each sample.  Exit status is 0 only for a run whose outputs are correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import gates
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

THREADS = 1
SETUP_PROBES = 5
# Half-width, as a share of the ranks, of the window config_p50_s and
# config_p90_s average over (see _percentile).
PERCENTILE_WINDOW = 0.025
TRACED_RUNS = 2
# Every child must have exited this long after the start, so the run ends
# within 180 s of its start.
DEADLINE_S = 170.0
EXACT_COUNTS = (
    "solver.iterations", "solver.factorizations", "solver.lu_fill", "solver.step_assemblies",
    "energy.gradient_calls", "energy.parts_calls", "grid.stencil_calls", "multiplicity.attempts",
    "multiplicity.accepted", "io_cli.bytes_written", "trace.spans",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def _percentile(values: list[float], q: float) -> float:
    """Percentile as the mean of the order statistics within
    PERCENTILE_WINDOW of the nearest rank (the nearest rank alone for fewer
    than 1 / PERCENTILE_WINDOW values).  Averaging the neighbouring ranks
    keeps the jitter of the single config that lands on the rank out of the
    figure.  +inf entries (failed configs) sort last and make the result
    +inf once they reach the window."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    half = int(PERCENTILE_WINDOW * len(ordered))
    window = ordered[max(0, rank - half):rank + half + 1]
    return sum(window) / len(window)


def _src_lines(src: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


class Bench:
    """One benchmark run: the workload's configs, a work directory and the
    children it starts there."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.configs = workloads.make_configs(workload, seed)
        self.work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.errors: list[str] = []
        self.outcomes: list[tuple[int, str]] = []  # (config index, hash of its artifacts or exit)
        self.children = 0

    def child(self, mode: str, trace: bool = False) -> tuple[float, dict, str]:
        """Run one child to completion; returns (wall seconds, result, tag)."""
        self.children += 1
        tag = f"{mode}{self.children}"
        job = {
            "src": self.src,
            "configs": [workloads.config_text(cfg, f"{tag}/c{i}") for i, cfg in enumerate(self.configs)],
        }
        paths = {key: os.path.join(self.work, f"{tag}.{key}") for key in ("job", "result", "spans", "log")}
        with open(paths["job"], "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, paths["job"], paths["result"]]
        if trace:
            cmd += ["--trace", paths["spans"]]
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        with open(paths["log"], "wb") as log:
            began = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=log, stderr=log)
            try:
                rc = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"child {tag} did not finish within the run's {DEADLINE_S:g} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - began
        if rc != 0:
            with open(paths["log"], encoding="utf-8", errors="replace") as handle:
                tail = handle.read().strip().splitlines()[-5:]
            raise BenchError(f"child {tag} exited {rc}: " + " | ".join(tail))
        with open(paths["result"], encoding="utf-8") as handle:
            return wall, json.load(handle), tag

    def gate_sample(self, tag: str, result: dict) -> dict:
        """Gate every config of one solve sample, then delete its artifacts.

        Returns per-sample figures: latencies (+inf for a failed config),
        energy errors against closed forms, and the iteration count read
        from diagnostics.csv (the serialized SolveReport.records).
        """
        latencies, errs, errs_h2, failures, iterations, failed = [], [], [], [], 0, 0
        for i, (cfg, res) in enumerate(zip(self.configs, result["configs"])):
            outdir = os.path.join(self.work, tag, f"c{i}")
            where = f"{tag} config {i}"
            self.errors += [f"{where}: {e}" for e in gates.check_outcome(cfg, outdir, res)]
            if res["rc"] != 0 or res["traceback"]:
                failed += 1
                failures.append(
                    f"failed config {i}: dim={cfg['dim']} points={cfg['points']} half_width={cfg['half_width']} "
                    f"potential={cfg['potential']} p={cfg['p']} k={cfg['k_solutions']}: "
                    f"{res['fail_line'] or 'traceback'}"
                )
                latencies.append(math.inf)
                if self.workload in gates.WORKLOAD_GATES:
                    self.errors.append(f"{where}: no solution ({res['fail_line'] or 'traceback'})")
                self.outcomes.append((i, f"exit {res['rc']} {res['fail_line']}"))
                continue
            latencies.append(res["latency_s"])
            check = gates.WORKLOAD_GATES.get(self.workload)
            if check is not None:
                self.errors += [f"{where}: {e}" for e in check(cfg, outdir)]
            if cfg["harmonic_a"] is not None:
                errs.append(gates.energy_rel_err(cfg, outdir))
                errs_h2.append(errs[-1] / workloads.discretization_scale(cfg))
            digest = hashlib.sha256()
            for name in ("diagnostics.csv", "checks.csv"):
                with open(os.path.join(outdir, name), "rb") as handle:
                    digest.update(handle.read())
            self.outcomes.append((i, digest.hexdigest()))
            iterations += sum(int(row[5]) for row in gates.read_csv(os.path.join(outdir, "diagnostics.csv")))
        shutil.rmtree(os.path.join(self.work, tag), ignore_errors=True)
        return {"latencies": latencies, "errs": errs, "errs_h2": errs_h2, "iterations": iterations,
                "failed": failed, "failures": failures}

    def check_repeats(self) -> None:
        """Every config must give byte-identical diagnostics.csv and
        checks.csv (or the same failure) in every sample of the run."""
        seen: dict[int, set[str]] = defaultdict(set)
        for i, outcome in self.outcomes:
            seen[i].add(outcome)
        for i, outcomes in sorted(seen.items()):
            if len(outcomes) > 1:
                self.errors.append(f"config {i}: artifacts differ between samples ({len(outcomes)} variants)")


def timed(bench: Bench, seconds: float) -> tuple[dict, int, int, list[str]]:
    lines = []
    setups = []
    for _ in range(SETUP_PROBES):
        _, res, _ = bench.child("setup")
        setups.append(res["setup_s"])
    lines.append("env " + json.dumps(environment(bench, res)))
    walls, rss, latencies, errs = [], [], [], []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while not walls or time.perf_counter() - measure_start < seconds:
        wall, res, tag = bench.child("solve")
        sample = bench.gate_sample(tag, res)
        walls.append(wall)
        rss.append(res["peak_rss_mb"])
        latencies += sample["latencies"]
        if sample["errs"]:
            errs.append(statistics.median(sample["errs_h2"]))
        attempted += len(bench.configs)
        failed += sample["failed"]
        lines.append(
            f"sample {len(walls)}: wall_s={wall:.4f} configs={len(bench.configs)} failed={sample['failed']} "
            f"solver.iterations={sample['iterations']} peak_rss_mb={res['peak_rss_mb']:.1f} "
            f"energy_rel_err(median)={statistics.median(sample['errs'] or [math.nan]):.4e}"
        )
        if len(walls) == 1:
            lines += sample["failures"]
    bench.check_repeats()
    lines.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "solved_ratio": ((attempted - failed) / attempted, "ratio"),
        "energy_err_h2": (statistics.median(errs) if errs else math.nan, "1"),
        "config_p50_s": (_percentile(latencies, 0.5), "s"),
        "config_p90_s": (_percentile(latencies, 0.9), "s"),
    }
    return metrics, attempted, failed, lines


def layer_metrics(span_list: list[tuple], iterations: int) -> dict:
    """Per-layer counts and times of one traced child."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    by_id = {span[0]: span for span in span_list}
    fill = 0
    descent_iters = 0
    descent_parts = 0
    bytes_written = 0
    accepted_ids: dict[int, set] = defaultdict(set)
    attempts = []
    for span in span_list[1:]:
        _, name, start, end, parent, run_id, extra = span
        count[name] += 1
        total[name] += end - start
        if name == "solver.continue_to_limit":
            attempts.append((run_id, extra, end - start))
        elif extra == "raised":
            continue
        elif name == "solver.splu":
            fill = max(fill, extra)
        elif name == "solver.descend":
            descent_iters += extra
        elif name == "energy.parts" and by_id[parent][1] == "solver.descend":
            descent_parts += 1
        elif name == "io_cli.write":
            bytes_written += extra
        elif name == "multiplicity.find_k_solutions":
            accepted_ids[run_id].update(extra)
    accepted = sum(len(ids) for ids in accepted_ids.values())
    wasted = sum(dur for run_id, extra, dur in attempts if extra not in accepted_ids[run_id])
    self_time = spans.self_times(span_list)
    layer_self: dict[str, float] = defaultdict(float)
    for span in span_list:
        layer_self[spans.layer_of(span[1])] += self_time[span[0]]
    root = span_list[0][3] - span_list[0][2]
    if abs(sum(layer_self.values()) - root) > 1e-6 * max(1.0, root):
        raise BenchError(f"self times sum to {sum(layer_self.values())!r}, root span lasts {root!r}")
    out = {
        "solver.iterations": (iterations, "count"),
        "solver.factorizations": (count["solver.splu"], "count"),
        "solver.factor_s": (total["solver.splu"], "s"),
        "solver.lu_fill": (fill, "nnz"),
        "solver.step_assemblies": (count["solver.step_assemble"], "count"),
        "solver.step_assemble_s": (total["solver.step_assemble"], "s"),
        "solver.subspace_s": (total["solver.subspace"], "s"),
        "solver.newton_s": (total["solver.newton"], "s"),
        "solver.precond_setup_s": (total["solver.precond_setup"], "s"),
        "solver.precond_solve_s": (total["solver.precond_solve"], "s"),
        "solver.energy_evals_per_iter": (descent_parts / max(1, descent_iters), "count/iter"),
        "energy.gradient_calls": (count["energy.gradient"], "count"),
        "energy.gradient_s": (total["energy.gradient"], "s"),
        "energy.parts_calls": (count["energy.parts"], "count"),
        "energy.parts_s": (total["energy.parts"], "s"),
        "grid.stencil_calls": (count["grid.stencil"], "count"),
        "grid.stencil_s": (total["grid.stencil"], "s"),
        "multiplicity.attempts": (len(attempts), "count"),
        "multiplicity.accepted": (accepted, "count"),
        "multiplicity.accept_ratio": (accepted / max(1, len(attempts)), "ratio"),
        "multiplicity.wasted_s": (wasted, "s"),
        "verify.checks_s": (sum(t for name, t in total.items() if spans.layer_of(name) == "verify"), "s"),
        "io_cli.parse_s": (total["io_cli.parse"], "s"),
        "io_cli.emit_s": (total["io_cli.write"], "s"),
        "io_cli.bytes_written": (bytes_written, "B"),
        "trace.spans": (len(span_list), "count"),
        "trace.root_s": (root, "s"),
    }
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    return out


def traced(bench: Bench) -> tuple[dict, int, int, list[str]]:
    lines = []
    wall_u, res, tag = bench.child("solve")
    lines.append("env " + json.dumps(environment(bench, res)))
    sample = bench.gate_sample(tag, res)
    attempted, failed = len(bench.configs), sample["failed"]
    lines.append(f"untraced: wall_s={wall_u:.4f} solver.iterations={sample['iterations']}")
    runs = []
    for _ in range(TRACED_RUNS):
        wall, res, tag = bench.child("solve", trace=True)
        span_list = spans.load(os.path.join(bench.work, f"{tag}.spans"))
        sample = bench.gate_sample(tag, res)
        attempted += len(bench.configs)
        failed += sample["failed"]
        layer = layer_metrics(span_list, sample["iterations"])
        layer["trace.wall_s"] = (wall, "s")
        layer["trace.unattributed_s"] = (wall - layer["trace.root_s"][0], "s")
        runs.append(layer)
        lines.append(f"traced: wall_s={wall:.4f} spans={len(span_list)}")
    bench.check_repeats()
    for name in EXACT_COUNTS:
        values = {run[name][0] for run in runs}
        if len(values) > 1:
            bench.errors.append(f"{name} differs between traced runs: {sorted(values)}")
    metrics = {
        name: (runs[0][name][0] if name in EXACT_COUNTS else statistics.median(run[name][0] for run in runs), unit)
        for name, (_, unit) in runs[0].items()
    }
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - wall_u, "s")
    lines.append("self time by layer (median of traced runs):")
    wall_t = metrics["trace.wall_s"][0]
    for layer in spans.LAYERS:
        value = metrics[f"{layer}.self_s"][0]
        lines.append(f"  {layer:<13}{value:10.4f} s  {100.0 * value / wall_t:6.2f}%")
    unattributed = metrics["trace.unattributed_s"][0]
    lines.append(f"  {'unattributed':<13}{unattributed:10.4f} s  {100.0 * unattributed / wall_t:6.2f}%"
                 "  (interpreter start and exit, span dump)")
    lines.append(f"  {'traced wall':<13}{wall_t:10.4f} s; untraced {wall_u:.4f} s; "
                 f"overhead {metrics['trace.overhead_s'][0]:+.4f} s")
    return metrics, attempted, failed, lines


def environment(bench: Bench, child_result: dict) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": child_result["python"],
        "numpy": child_result["numpy"],
        "scipy": child_result["scipy"],
        "blas_threads": THREADS,
        "src_lines": _src_lines(bench.src),
        "workload": bench.workload,
        "configs": len(bench.configs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "lse", "__init__.py")):
        print(f"lsebench: no lse package under {os.path.join(root, 'src')}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    os.makedirs(bench.work)
    try:
        if args.trace:
            metrics, attempted, failed, lines = traced(bench)
        else:
            metrics, attempted, failed, lines = timed(bench, args.seconds)
    except BenchError as exc:
        print(f"lsebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass
    for line in lines:
        print(line)
    for error in bench.errors:
        print(f"GATE {error}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bench.errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
