"""One benchmark sample, run in a fresh interpreter.

    python3 child.py setup JOB RESULT
    python3 child.py solve JOB RESULT [--trace SPANS]

``setup`` times what a solve pays before its first iteration: importing
``lse``, parsing each config, building its grid and potential and
constructing its ``Preconditioner``.  ``solve`` drives the public entry
points ``lse.io_cli.parse_config`` and ``lse.io_cli.run`` over every config
of the job, one after another, and records each exit code, latency and last
stderr line.  With ``--trace`` the layers are wrapped (see spans.py) and the
spans are written to SPANS when the job ends; without it, the child checks
that it runs the program's own, unwrapped functions.

JOB is a JSON object {"src": <dir>, "configs": [<config text>, ...]};
RESULT receives a JSON object.  The parent sets PYTHONPATH to JOB["src"].
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _import_lse(src: str):
    import lse
    import lse.io_cli

    here = os.path.dirname(os.path.abspath(lse.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise RuntimeError(f"imported lse from {here}, not from {src}")
    return lse.io_cli


def setup(job: dict) -> dict:
    io_cli = _import_lse(job["src"])
    from lse.energy import validate_potential
    from lse.grid import make_grid
    from lse.solver import Preconditioner

    for text in job["configs"]:
        spec = io_cli.parse_config(text)
        g = make_grid(spec.dim, spec.half_width, spec.points)
        potential = io_cli.build_potential(spec.potential)
        validate_potential(g, potential)
        Preconditioner(g, potential)
    return {"setup_s": time.perf_counter() - T0, **_versions()}


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def _solve_one(io_cli, text: str) -> dict:
    err = io.StringIO()
    tb = ""
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            rc = io_cli.run(io_cli.parse_config(text), quiet=True)
        except Exception:
            rc = 1
            tb = traceback.format_exc()
    latency = time.perf_counter() - start
    lines = err.getvalue().strip().splitlines()
    return {"rc": rc, "latency_s": latency, "fail_line": lines[-1] if lines else "", "traceback": tb}


def solve(job: dict, spans_path: str | None) -> dict:
    io_cli = _import_lse(job["src"])
    import spans

    tracer = None
    if spans_path is not None:
        tracer = spans.Tracer(T0)
        tracer.install()
    else:
        spans.assert_pristine()
    results = []
    for run_id, text in enumerate(job["configs"]):
        if tracer is not None:
            tracer.next_run(run_id)
        results.append(_solve_one(io_cli, text))
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path, end)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"configs": results, "peak_rss_mb": peak_rss_mb, **_versions()}


def main(argv: list[str]) -> int:
    mode, job_path, result_path = argv[:3]
    spans_path = argv[4] if argv[3:4] == ["--trace"] else None
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    if mode == "setup":
        result = setup(job)
    elif mode == "solve":
        result = solve(job, spans_path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
