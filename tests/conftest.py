"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lse.grid import Field, _gradient_components, _neg_div, make_grid, quotient_grid

# Numerical kernels have wildly varying per-example cost; wall-clock deadlines
# only produce flaky failures on loaded CI boxes.
settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def grid1d():
    """Small 1D grid with the origin off-grid (even interior count)."""
    return make_grid(1, 4.0, 32)


@pytest.fixture
def grid2d():
    return make_grid(2, 3.0, 16)


def random_field(g, rng, scale=1.0):
    return Field(grid=g, values=scale * rng.standard_normal(g.npoints))


def neg_laplacian(g, values):
    """The (2*dim+1)-point negative Laplacian of a flat value array, as the
    negative divergence of its edge gradient."""
    return _neg_div(g, _gradient_components(g, values.reshape(g.shape))).reshape(-1)


def gausson_field(g):
    """Exact closed-form solution for the doubled-square-well potential."""
    r2 = g.radius_squared().ravel()
    return Field(grid=g, values=np.exp(float(g.dim)) * np.exp(-r2))


# Full grids of even and odd n, and quotient grids with mixed mirror faces
BATCH_GRIDS = [
    (dim, n, mirror)
    for dim, n in [(1, 24), (2, 10), (3, 8)]
    for n, mirror in [(n, ()), (n + 1, ()), (n, (-1, 1, -1)[:dim]), (n, (1, -1, 1)[:dim])]
]


def batch_grid(dim, n, mirror):
    g = make_grid(dim, 3.0, n)
    return quotient_grid(g, mirror) if mirror else g


def batch_fields(g, rows=5):
    """Rows of random fields with exact and signed zeros, and a zero row."""
    rng = np.random.default_rng(g.npoints)
    u = rng.uniform(-2.0, 2.0, (rows, g.npoints))
    u[:, ::7] = 0.0
    u[1, ::5] = -0.0
    u[-1] = 0.0
    return u
