"""Seeded inputs for the benchmark workloads.

The seed only generates inputs: every workload is a list of config dicts in
the schema of ``lse.io_cli.parse_config`` (all keys except ``output_dir``,
which the child process assigns).  The same (workload, seed) pair always
gives the same list.

Harmonic potentials have a closed-form ground state.  For V = a|x|^2 + s in
N dimensions, u(x) = e^(s/2) e^(bN) exp(-b|x|^2) with
b = (1 + sqrt(1 + 4a)) / 4, so the ground-state energy is
e^s * (1/2) e^(2bN) (pi / 2b)^(N/2).  The factor e^s is the exact scaling
equivariance u -> e^(s/2) u, V -> V + s, which holds for the discrete
problem too; shifting the potential therefore varies the inputs without
losing the reference energy.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("gausson_2d", "ladder_1d", "sweep")

_DEFAULTS = {
    "lambda_start": 1.0,
    "lambda_ratio": 0.1,
    "lambda_min": 1e-4,
    "tol_grad": 1e-6,
    "max_outer": 500,
    "emit": "fields,diagnostics,checks",
}

_KEY_ORDER = (
    "dim", "half_width", "points", "potential", "p", "lambda_start", "lambda_ratio",
    "lambda_min", "tol_grad", "max_outer", "k_solutions", "rng_seed", "output_dir", "emit",
)

# Sweep strata: (dim, points, half_width, p, k, point bins, p bins).  Each
# stratum is a full grid of cells over (point bin, p bin) with one config per
# cell, so the sweep covers sizes, exponents and solution counts in fixed
# proportions.  The values inside each cell (box, points, p, potential family
# and coefficient) are drawn once from a fixed generator, SWEEP_BASE, and are
# the same for every seed: which configs fail and how long each takes depend
# on them (near p = 1 one config of a cell solves in 0.2 s and its neighbour
# fails after 4 s), so drawing them per seed made the sweep's wall time and
# latency percentiles move with the seed as much as with the program.  The
# seed draws what the scaling equivariance keeps cost-neutral: the offset of
# every shifted potential and every rng_seed.  Most configs are 1d with k=1,
# which take well under 0.1 s each: that keeps the median latency inside
# their mode rather than on the sparse stretch above it.
# Two strata hold the known failures, so every sweep has them: p near 1
# does not converge today (ROADMAP item 4; measured up to p = 1.17), nor
# does dim=3 at n >= 12 with p <= 1.5 (ROADMAP item 3); small 3d grids
# (n <= 8) with p >= 1.5 do solve.
# The p band between the edge and the main range, small 3d grids with
# p < 1.5 and 3d at n >= 12 with larger p are left out: there the outcome
# flips from config to config, and a 3d solve that succeeds at n >= 12 takes
# 5-10 s, which would make the sweep's failure count and cost hinge on a
# single config.
SWEEP_BASE = "lsebench:sweep:base"
SWEEP_STRATA = (
    (1, (16, 64), (4.0, 8.0), (1.2, 1.95), 1, 9, 10),
    (1, (16, 64), (4.0, 8.0), (1.2, 1.95), 2, 3, 4),
    (2, (10, 30), (4.0, 6.0), (1.2, 1.95), 1, 3, 4),
    (3, (6, 8), (3.0, 5.0), (1.5, 1.95), 1, 1, 3),
    (3, (12, 16), (3.0, 5.0), (1.2, 1.5), 1, 1, 2),
    (1, (16, 64), (4.0, 8.0), (1.02, 1.06), 1, 1, 1),
)


def gausson_b(a: float) -> float:
    """Decay rate b of the Gaussian ground state for V = a|x|^2."""
    return (1.0 + math.sqrt(1.0 + 4.0 * a)) / 4.0


def reference_energy(dim: int, a: float, shift: float = 0.0) -> float:
    """Closed-form ground-state energy for V = a|x|^2 + shift on R^dim."""
    b = gausson_b(a)
    return math.exp(shift) * 0.5 * math.exp(2.0 * b * dim) * (math.pi / (2.0 * b)) ** (dim / 2.0)


def discretization_scale(cfg: dict) -> float:
    """N b h^2, the size of the leading O(h^2) relative energy error of the
    Gaussian ground state on the config's grid (h the grid spacing)."""
    h = 2.0 * cfg["half_width"] / (cfg["points"] + 1)
    return cfg["dim"] * gausson_b(cfg["harmonic_a"]) * h * h


def config_text(cfg: dict, output_dir: str) -> str:
    """Render a config dict as ``key=value`` lines for ``parse_config``."""
    values = dict(cfg, output_dir=output_dir)
    return "".join(f"{key}={values[key]}\n" for key in _KEY_ORDER)


def _config(rng: random.Random, **fields) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update(fields)
    cfg["rng_seed"] = rng.randrange(0, 2**31)
    return cfg


def _shifted_gausson(rng: random.Random, **fields) -> list[dict]:
    """One acceptance-style config on V = 2|x|^2 + s with a seeded shift s."""
    s = round(rng.uniform(0.0, 0.45), 6)
    cfg = _config(rng, potential=f"shifted:harmonic:2.0:{s!r}", p=1.5, **fields)
    cfg.update(harmonic_a=2.0, shift=s)
    return [cfg]


def _gausson_2d(rng: random.Random) -> list[dict]:
    return _shifted_gausson(rng, dim=2, half_width=6.0, points=190, k_solutions=1)


def _ladder_1d(rng: random.Random) -> list[dict]:
    return _shifted_gausson(rng, dim=1, half_width=8.0, points=1022, k_solutions=4)


def _in_bin(rng: random.Random, lo: float, hi: float, index: int, bins: int) -> float:
    """Uniform draw inside bin ``index`` of ``bins`` equal bins of [lo, hi)."""
    return lo + (index + rng.random()) / bins * (hi - lo)


def _potential(family: int, coeff: float, shift: float, base_quartic: bool) -> tuple[str, float | None]:
    """Family 0 harmonic, 1 quartic, 2 shifted harmonic or quartic; returns
    the descriptor and the harmonic coefficient (None without closed form)."""
    if family == 0:
        return f"harmonic:{coeff!r}", coeff
    if family == 1:
        return f"quartic:{coeff!r}", None
    base = "quartic" if base_quartic else "harmonic"
    return f"shifted:{base}:{coeff!r}:{shift!r}", None if base_quartic else coeff


def _sweep(rng: random.Random) -> list[dict]:
    base = random.Random(SWEEP_BASE)
    configs = []
    for dim, points, half_width, p_range, k, n_bins, p_bins in SWEEP_STRATA:
        cells = [(nb, pb) for nb in range(n_bins) for pb in range(p_bins)]
        for i, (nb, pb) in enumerate(cells):
            family = i % 3
            coeff = round(base.uniform(0.5, 4.0), 4)
            base_quartic = base.random() < 0.5
            shift = round(rng.uniform(0.0, 1.0), 4) if family == 2 else 0.0
            potential, a = _potential(family, coeff, shift, base_quartic)
            cfg = _config(
                rng,
                dim=dim,
                half_width=round(base.uniform(*half_width), 3),
                points=2 * round(_in_bin(base, *points, nb, n_bins) / 2),
                potential=potential,
                p=round(_in_bin(base, *p_range, pb, p_bins), 4),
                k_solutions=k,
            )
            cfg.update(harmonic_a=a, shift=shift)
            configs.append(cfg)
    base.shuffle(configs)
    return configs


_GENERATORS = {"gausson_2d": _gausson_2d, "ladder_1d": _ladder_1d, "sweep": _sweep}


def make_configs(workload: str, seed: int) -> list[dict]:
    """The config dicts of one workload for one seed.

    Each dict holds every config key except ``output_dir``, plus
    ``harmonic_a`` and ``shift`` when the potential is a|x|^2 + shift, which
    has a closed-form ground state (``harmonic_a`` is None otherwise).
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"lsebench:{workload}:{seed}"))
