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


def face_zero_fields(g, rows=5):
    """``batch_fields`` whose rows 1 and 2 hold signed zeros on the first
    and the last slab of every axis: the mirror face of a quotient grid
    and the points next to each last edge, in opposite signs."""
    u = batch_fields(g, rows)
    nd = u.reshape((rows,) + g.shape)
    for d in range(g.dim):
        lead = (slice(None),) * d
        nd[(1,) + lead + (0,)] = nd[(2,) + lead + (-1,)] = -0.0
        nd[(1,) + lead + (-1,)] = nd[(2,) + lead + (0,)] = 0.0
    return u


# Plain references for the raw grid kernels, written with np.diff,
# ndarray.sum and sum() over a generator; the kernels must give their bytes.


def reference_gradient_components(g, nd):
    """Per axis, np.diff of the zero-padded array with the first edge
    replaced by ``Grid.first_edge`` times u, divided by h."""
    comps = []
    batch = nd.ndim - g.dim
    for d, factor in enumerate(g.first_edge):
        pad = [(0, 0)] * nd.ndim
        pad[batch + d] = (1, 1)
        c = np.diff(np.pad(nd, pad), axis=batch + d)
        first = (slice(None),) * (batch + d) + (0,)
        c[first] = factor * nd[first]
        comps.append(c / g.spacing)
    return comps


def reference_neg_div(g, fluxes):
    out = np.zeros(fluxes[0].shape[: fluxes[0].ndim - g.dim] + g.shape)
    for d, f in enumerate(fluxes):
        out -= np.diff(f, axis=d - g.dim) / g.spacing
    return out


def reference_edge_integral(g, per_axis):
    batch = per_axis[0].ndim - g.dim
    total = sum(c.reshape(c.shape[:batch] + (-1,)).sum(axis=-1) for c in per_axis)
    for d, parity in enumerate(g.mirror):
        if parity < 0:
            face = per_axis[d][(slice(None),) * (batch + d) + (0,)]
            total = total - 0.5 * face.sum(axis=tuple(range(batch, face.ndim)))
    return total * g.weight if batch else float(total * g.weight)


def reference_integral(g, values):
    total = values.sum(axis=-1) * g.weight
    return total if values.ndim > 1 else float(total)


def assert_same_bytes(got, want):
    """Equal type, shape and bytes, so that a signed zero counts."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
