"""Every config the schema accepts ends in solutions or a clean FAIL line.

Random configs across dimensions, even and odd point counts (full and
quotient grids), exponents up to the edges of (1, 2), the built-in
potential families, schedules, tolerances and budgets: ``run`` must return
0, or 1 with a last stderr line ``FAIL config|solve|verify <detail>``,
and never raise.
"""

from __future__ import annotations

import contextlib
import io
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lse.io_cli import parse_config, run


@st.composite
def configs(draw) -> dict:
    coeff = draw(st.floats(0.5, 4.0))
    family = draw(st.sampled_from(["harmonic", "quartic", "shifted:harmonic", "shifted:quartic"]))
    potential = f"{family}:{coeff!r}"
    if family.startswith("shifted"):
        potential += f":{draw(st.floats(-1.0, 2.0))!r}"
    lambda_start = draw(st.floats(0.05, 1.0))
    return {
        "dim": draw(st.integers(1, 3)),
        "half_width": draw(st.floats(2.0, 8.0)),
        "points": draw(st.integers(4, 24)),
        "potential": potential,
        "p": draw(st.floats(1.01, 1.99)),
        "lambda_start": lambda_start,
        "lambda_ratio": draw(st.floats(0.05, 0.5)),
        "lambda_min": lambda_start * draw(st.floats(1e-3, 1.0)),
        "tol_grad": draw(st.floats(1e-8, 1e-4)),
        "max_outer": draw(st.integers(1, 100)),
        "k_solutions": draw(st.integers(1, 2)),
        "rng_seed": draw(st.integers(0, 2**31 - 1)),
        "emit": "fields,diagnostics,checks",
    }


def _pinned(dim: int, points: int, potential: str, k: int) -> dict:
    return {
        "dim": dim, "half_width": 4.0, "points": points, "potential": potential, "p": 1.6,
        "lambda_start": 1.0, "lambda_ratio": 0.1, "lambda_min": 1e-3, "tol_grad": 1e-6,
        "max_outer": 100, "k_solutions": k, "rng_seed": 1, "emit": "fields,diagnostics,checks",
    }


# besides the random draws, one solve on each path: a 3d quotient grid, and
# full grids from an odd point count in 1d (two sectors' seeds), 2d and 3d
@settings(max_examples=25, deadline=None, derandomize=True)
@given(cfg=configs())
@example(cfg=_pinned(3, 12, "shifted:harmonic:2.0:0.5", 1))
@example(cfg=_pinned(3, 13, "shifted:harmonic:2.0:0.5", 1))
@example(cfg=_pinned(1, 31, "shifted:harmonic:2.0:1.0", 2))
@example(cfg=_pinned(2, 15, "shifted:quartic:1.0:0.5", 1))
def test_every_config_solves_or_fails_cleanly(cfg):
    with tempfile.TemporaryDirectory() as out:
        text = "".join(f"{key}={value}\n" for key, value in dict(cfg, output_dir=out).items())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(parse_config(text), quiet=True)
    lines = err.getvalue().strip().splitlines()
    if rc != 0:
        words = lines[-1].split() if lines else []
        assert rc == 1, rc
        assert words[:1] == ["FAIL"] and words[1:2] in (["config"], ["solve"], ["verify"]), lines[-1:]
