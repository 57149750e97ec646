"""Uniform tensor grids on a truncated box with zero Dirichlet exterior.

The computational domain is the open box (-L, L)^dim.  A grid stores only
interior points: per axis there are ``n`` of them with spacing
``h = 2L / (n + 1)``, so the coordinate of interior index ``i`` is
``-L + (i + 1) h`` and the boundary values at +-L are identically zero by
convention.  Scalar fields are stored flat in row-major (C) order, last
axis fastest.

Differential operators follow a summation-by-parts pairing:

* ``forward_gradient`` returns, per axis, the ``n + 1`` forward-difference
  edge values of each grid line, *including* the two boundary-adjacent
  edges (difference against the zero exterior).
* ``neg_laplacian_apply`` is the standard ``2*dim + 1`` point stencil.

With both boundary edges included the discrete identity

    integrate(neg_laplacian_apply(u) * v) == h^dim * sum(grad u . grad v)

holds to machine precision, which the energy routines rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "EdgeGradient",
    "make_grid",
    "forward_gradient",
    "neg_laplacian_apply",
    "integrate",
    "norm_h1v",
    "norm_w1p",
]


@dataclass(frozen=True)
class Grid:
    """Uniform interior-point grid on (-half_width, half_width)^dim."""

    dim: int
    half_width: float
    points_per_dim: int
    spacing: float

    @property
    def npoints(self) -> int:
        """Total number of interior points."""
        return self.points_per_dim**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        """nd array shape (points_per_dim,) * dim."""
        return (self.points_per_dim,) * self.dim

    def axis_coords(self) -> np.ndarray:
        """Interior coordinates along one axis (all axes are identical)."""
        n, h = self.points_per_dim, self.spacing
        return -self.half_width + h * np.arange(1, n + 1)

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        x = self.axis_coords()
        out = []
        for d in range(self.dim):
            shape = [1] * self.dim
            shape[d] = self.points_per_dim
            out.append(x.reshape(shape))
        return out

    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the interior points, shape ``self.shape``."""
        r2 = np.zeros(self.shape)
        for c in self.coordinate_arrays():
            r2 = r2 + c**2
        return r2


@dataclass(frozen=True)
class Field:
    """Scalar field sampled at the interior points of a grid.

    ``values`` is a flat float64 array in row-major order.  It is marked
    read-only after construction; treat fields as immutable and build new
    ones instead of mutating in place.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if vals.size != self.grid.npoints:
            raise ValueError(
                f"field length mismatch: got {vals.size} values for a grid "
                f"with {self.grid.npoints} interior points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def nd(self) -> np.ndarray:
        """Read-only nd view of the values."""
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True)
class EdgeGradient:
    """Forward-difference gradient; component d lives on the axis-d edges.

    Component d has shape equal to the grid shape except axis d, which has
    ``points_per_dim + 1`` entries (one per edge of each grid line,
    boundary edges included).
    """

    grid: Grid
    components: tuple[np.ndarray, ...]


def make_grid(dim: int, half_width: float, points_per_dim: int) -> Grid:
    """Build a validated grid.

    ``spacing`` is ``2 * half_width / (points_per_dim + 1)``; with an even
    point count the origin falls between grid points.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dimension out of range: dim={dim} (must be 1, 2 or 3)")
    half_width = float(half_width)
    if not np.isfinite(half_width) or half_width <= 0.0:
        raise ValueError(f"nonpositive extent: half_width={half_width}")
    if points_per_dim < 3:
        raise ValueError(
            f"too few points: points_per_dim={points_per_dim} (need at least 3)"
        )
    spacing = 2.0 * half_width / (points_per_dim + 1)
    return Grid(dim=dim, half_width=half_width, points_per_dim=int(points_per_dim), spacing=spacing)


def _require_same_grid(g: Grid, u: Field) -> None:
    if u.grid != g:
        raise ValueError(
            f"grid mismatch: field lives on {u.grid.dim}d n={u.grid.points_per_dim} "
            f"L={u.grid.half_width}, expected {g.dim}d n={g.points_per_dim} L={g.half_width}"
        )


def _gradient_components(g: Grid, nd: np.ndarray) -> list[np.ndarray]:
    """Edge-difference components of an nd value array (zero exterior)."""
    comps = []
    for d in range(g.dim):
        lead = (slice(None),) * d
        c = np.empty(nd.shape[:d] + (nd.shape[d] + 1,) + nd.shape[d + 1:])
        # as differencing the zero-padded array: 0 - u keeps a +0.0 edge +0.0
        c[lead + (0,)] = nd[lead + (0,)]
        np.subtract(nd[lead + (slice(1, None),)], nd[lead + (slice(None, -1),)], out=c[lead + (slice(1, -1),)])
        np.subtract(0.0, nd[lead + (slice(-1, None),)], out=c[lead + (slice(-1, None),)])
        c /= g.spacing
        comps.append(c)
    return comps


def forward_gradient(g: Grid, u: Field) -> EdgeGradient:
    """Forward-difference gradient of u, boundary edges included."""
    _require_same_grid(g, u)
    return EdgeGradient(grid=g, components=tuple(_gradient_components(g, u.nd())))


def neg_laplacian_apply(g: Grid, u: Field) -> Field:
    """Apply the (2*dim+1)-point negative Laplacian with zero Dirichlet data."""
    _require_same_grid(g, u)
    nd = u.nd()
    out = np.zeros_like(nd)
    inv_h2 = 1.0 / g.spacing**2
    n = g.points_per_dim
    for d in range(g.dim):
        lo = [slice(None)] * g.dim
        hi = [slice(None)] * g.dim
        lo[d] = slice(0, n - 1)
        hi[d] = slice(1, n)
        acc = 2.0 * nd.copy()
        acc[tuple(lo)] -= nd[tuple(hi)]
        acc[tuple(hi)] -= nd[tuple(lo)]
        out += acc * inv_h2
    return Field(grid=g, values=out.reshape(-1))


def integrate(g: Grid, u: Field) -> float:
    """Quadrature h^dim * sum(values) over the interior points."""
    _require_same_grid(g, u)
    return float(g.spacing**g.dim * u.values.sum())


def _edge_cell_volume(g: Grid) -> float:
    # Each edge value carries the same h^dim weight as a grid point; the
    # extra edge per line is the boundary-adjacent one.
    return g.spacing**g.dim


def norm_h1v(g: Grid, potential, u: Field) -> float:
    """Weighted Sobolev norm sqrt( sum|grad u|^2 h^dim + integral V u^2 ).

    ``potential`` is any object with an ``evaluate(grid) -> Field`` method
    (see the potential classes in :mod:`lse.energy`).
    """
    _require_same_grid(g, u)
    vvals = potential.evaluate(g).values
    w = _edge_cell_volume(g)
    kinetic = sum(float((c**2).sum()) for c in _gradient_components(g, u.nd())) * w
    weighted = float((vvals * u.values**2).sum()) * g.spacing**g.dim
    return float(np.sqrt(kinetic + weighted))


def norm_w1p(g: Grid, u: Field, p: float) -> float:
    """Unweighted W^{1,p} norm ( sum|grad u|^p h^dim + integral |u|^p )^(1/p)."""
    _require_same_grid(g, u)
    if not 1.0 < p < 2.0:
        raise ValueError(f"exponent out of range: p={p} (must satisfy 1 < p < 2)")
    w = _edge_cell_volume(g)
    grad_part = sum(float((np.abs(c) ** p).sum()) for c in _gradient_components(g, u.nd())) * w
    mass_part = float((np.abs(u.values) ** p).sum()) * g.spacing**g.dim
    return float((grad_part + mass_part) ** (1.0 / p))
