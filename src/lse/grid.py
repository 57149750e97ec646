"""Uniform tensor grids on a truncated box with zero Dirichlet exterior.

The computational domain is the open box (-L, L)^dim.  A grid stores only
interior points: per axis there are ``n`` of them with spacing
``h = 2L / (n + 1)``, so the coordinate of interior index ``i`` is
``h * (i - (n - 1) / 2)``, exactly antisymmetric (so an odd ``n`` puts the
origin on the grid), and the boundary values at +-L are identically zero
by convention.  Scalar fields are stored flat in row-major (C) order, last
axis fastest.

A *quotient* grid (``mirror`` nonempty) stores only the orthant x > 0 of a
full grid with an even ``n``: ``n / 2`` points per axis at ``h * (j + 1/2)``,
bit for bit the upper half of the full coordinates.  The face x_d = 0 is a
mirror of parity ``mirror[d]`` (+1 even, -1 odd), across which ``unfold``
continues the field.  Every kernel below acts on a quotient field exactly
as on its unfolded field: the mirror edge of the gradient is ``0`` (even)
or ``2 u / h`` (odd), an edge sum counts the mirror edge at half weight (the
full grid shares it between the two halves), and a point integral weighs
each point by ``Grid.weight`` = 2^dim h^dim.

Differential operators follow a summation-by-parts pairing:

* ``forward_gradient`` returns, per axis, the ``n + 1`` forward-difference
  edge values of each grid line, *including* the two boundary-adjacent
  edges (difference against the zero exterior, or against the mirror).
* ``neg_laplacian_apply`` is the negative divergence of that gradient,
  which is the standard ``2*dim + 1`` point stencil.

With both boundary edges included the discrete identity

    integrate(neg_laplacian_apply(u) * v) == h^dim * sum(grad u . grad v)

holds to machine precision, which the energy routines rely on.  Each of
these quantities has one raw-array kernel here (``_gradient_components``,
``_neg_div``, ``_edge_integral``, ``_grad_sq``, ``_h1v_raw``) that the
Field-validated public functions and the solver's hot path share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "quotient_grid",
    "unfold",
    "forward_gradient",
    "neg_laplacian_apply",
    "integrate",
    "norm_h1v",
    "norm_w1p",
]


@dataclass(frozen=True)
class Grid:
    """Uniform interior-point grid on (-half_width, half_width)^dim, or with
    ``mirror`` (one parity per axis) its quotient on the orthant x > 0."""

    dim: int
    half_width: float
    points_per_dim: int
    spacing: float
    mirror: tuple[int, ...] = ()

    @property
    def npoints(self) -> int:
        """Total number of stored points."""
        return self.points_per_dim**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        """nd array shape (points_per_dim,) * dim."""
        return (self.points_per_dim,) * self.dim

    @property
    def box_points(self) -> int:
        """Points per axis across the whole box (twice the stored ones on a
        quotient grid)."""
        return 2 * self.points_per_dim if self.mirror else self.points_per_dim

    @functools.cached_property
    def weight(self) -> float:
        """Quadrature weight of one stored point: h^dim, times the 2^dim
        mirror images of a quotient point."""
        return (2 ** len(self.mirror)) * self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        """Stored coordinates along one axis (all axes are identical)."""
        n, h = self.points_per_dim, self.spacing
        if self.mirror:
            return h * (np.arange(n) + 0.5)
        return h * (np.arange(n) - (n - 1) / 2)

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


def quotient_grid(g: Grid, mirror: tuple[int, ...]) -> Grid:
    """The orthant x > 0 of the full grid g (even point count) with a mirror
    face of parity ``mirror[d]`` (+1 even, -1 odd) at x_d = 0."""
    if g.mirror or g.points_per_dim % 2 or len(mirror) != g.dim or not set(mirror) <= {1, -1}:
        raise ValueError(
            f"no quotient with mirror={mirror} of {g.dim}d n={g.points_per_dim} mirror={g.mirror}: "
            "needs a full grid, an even n and a parity of +1 or -1 per axis"
        )
    return replace(g, points_per_dim=g.points_per_dim // 2, mirror=tuple(mirror))


def unfold(g: Grid, u: np.ndarray) -> Field:
    """The full-grid field whose quotient on g is the flat array u."""
    nd = u.reshape(g.shape)
    for d, parity in enumerate(g.mirror):
        nd = np.concatenate([parity * np.flip(nd, axis=d), nd], axis=d)
    return Field(grid=replace(g, points_per_dim=g.box_points, mirror=()), values=nd.reshape(-1))


def _require_same_grid(g: Grid, u: Field) -> None:
    if u.grid != g:
        raise ValueError(
            f"grid mismatch: field lives on {u.grid.dim}d n={u.grid.points_per_dim} "
            f"L={u.grid.half_width}, expected {g.dim}d n={g.points_per_dim} L={g.half_width}"
        )


def _gradient_components(g: Grid, nd: np.ndarray) -> list[np.ndarray]:
    """Edge-difference components of an nd value array (zero exterior; the
    first edge of a quotient axis differences against the mirror point)."""
    comps = []
    for d in range(g.dim):
        lead = (slice(None),) * d
        c = np.empty(nd.shape[:d] + (nd.shape[d] + 1,) + nd.shape[d + 1:])
        if g.mirror:  # u minus its mirror image parity * u
            c[lead + (0,)] = (1 - g.mirror[d]) * nd[lead + (0,)]
        else:  # u minus the zero exterior
            c[lead + (0,)] = nd[lead + (0,)]
        np.subtract(nd[lead + (slice(1, None),)], nd[lead + (slice(None, -1),)], out=c[lead + (slice(1, -1),)])
        # as differencing the zero-padded array: 0 - u keeps a +0.0 edge +0.0
        np.subtract(0.0, nd[lead + (slice(-1, None),)], out=c[lead + (slice(-1, None),)])
        c /= g.spacing
        comps.append(c)
    return comps


def forward_gradient(g: Grid, u: Field) -> tuple[np.ndarray, ...]:
    """Forward-difference gradient of u, boundary edges included.

    Component d lives on the axis-d edges: its shape is the grid shape
    except axis d, which has ``points_per_dim + 1`` entries (one per edge
    of each grid line).
    """
    _require_same_grid(g, u)
    return tuple(_gradient_components(g, u.nd()))


def _neg_div(g: Grid, fluxes: list[np.ndarray]) -> np.ndarray:
    """Negative divergence of per-axis edge fluxes, back on the points."""
    out = np.zeros(g.shape)
    for d, f in enumerate(fluxes):
        out -= np.diff(f, axis=d) / g.spacing
    return out


def neg_laplacian_apply(g: Grid, u: Field) -> Field:
    """Apply the (2*dim+1)-point negative Laplacian with zero Dirichlet data."""
    _require_same_grid(g, u)
    return Field(grid=g, values=_neg_div(g, _gradient_components(g, u.nd())).reshape(-1))


def integrate(g: Grid, u: Field) -> float:
    """Quadrature weight * sum(values) over the stored points (on a quotient
    grid, the integral over the box of the field's even extension)."""
    _require_same_grid(g, u)
    return float(g.weight * u.values.sum())


def _edge_integral(g: Grid, per_axis) -> float:
    """Sum of per-axis edge arrays, functions of the gradient components
    that vanish with them, times the point weight.  Each edge carries the
    weight of a grid point, and a mirror edge, which a quotient shares with
    its image, half of it; an even one is 0 and skipped."""
    total = sum(float(c.sum()) for c in per_axis)
    for d, parity in enumerate(g.mirror):
        if parity < 0:
            total -= 0.5 * float(per_axis[d][(slice(None),) * d + (0,)].sum())
    return total * g.weight


def _grad_sq(g: Grid, u: np.ndarray) -> float:
    """sum |grad u|^2 h^dim of a flat value array."""
    return _edge_integral(g, [c * c for c in _gradient_components(g, u.reshape(g.shape))])


def _h1v_raw(g: Grid, vvals: np.ndarray, u: np.ndarray) -> float:
    """norm_h1v on raw flat arrays (no Field validation)."""
    return float(np.sqrt(_grad_sq(g, u) + float((vvals * u * u).sum()) * g.weight))


def norm_h1v(g: Grid, potential, u: Field) -> float:
    """Weighted Sobolev norm sqrt( sum|grad u|^2 h^dim + integral V u^2 ).

    ``potential`` is any object with an ``evaluate(grid) -> Field`` method
    (see the potential classes in :mod:`lse.energy`).
    """
    _require_same_grid(g, u)
    return _h1v_raw(g, potential.evaluate(g).values, u.values)


def norm_w1p(g: Grid, u: Field, p: float) -> float:
    """Unweighted W^{1,p} norm ( sum|grad u|^p h^dim + integral |u|^p )^(1/p)."""
    _require_same_grid(g, u)
    if not 1.0 < p < 2.0:
        raise ValueError(f"exponent out of range: p={p} (must satisfy 1 < p < 2)")
    grad_part = _edge_integral(g, [np.abs(c) ** p for c in _gradient_components(g, u.nd())])
    mass_part = float((np.abs(u.values) ** p).sum()) * g.weight
    return float((grad_part + mass_part) ** (1.0 / p))
