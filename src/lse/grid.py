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
continues the field; ``fold``, its inverse, decides whether a full grid
folds for an array and gives the array's share.  This module alone knows
how a quotient grid relates to its full grid, and how grids of one box and
mirror relate to each other: ``coarse_grid`` halves the stored points per
axis, and ``transfer`` maps a field between two such grids by separable
linear interpolation, zero at +-L and mirrored across a quotient face.
Every kernel below acts on a quotient field exactly as on its unfolded
field: the mirror edge of the gradient is ``Grid.first_edge`` times u / h,
``0`` (even) or ``2 u / h`` (odd), and an edge sum counts the mirror edge
at half weight (the full grid shares it between the two halves).

Point weights have one home too: ``_integral`` (a point sum) and ``_inner``
(a dot product) turn point values into integrals, and with
``_edge_integral`` they are the only readers of ``Grid.weight``, which is
h^dim per stored point, times its 2^dim mirror images on a quotient grid.

Differential operators follow a summation-by-parts pairing:

* ``_gradient_components`` returns, per axis, the ``n + 1``
  forward-difference edge values of each grid line, *including* the two
  boundary-adjacent edges (difference against the zero exterior, or
  against the mirror).
* ``_neg_div`` of that gradient is the negative Laplacian, the standard
  ``2*dim + 1`` point stencil.

With both boundary edges included the discrete identity

    _inner(g, _neg_div(grad u), v) == _edge_integral(g, grad u * grad v)

holds to machine precision, which the energy routines rely on.  Each of
these quantities has one raw-array kernel here (``_gradient_components``,
``_neg_div``, ``_edge_integral``, ``_integral``, ``_inner``, ``_grad_sq``,
``_h1v_raw``) that the Field-validated ``norm_h1v``, the energy, the
solver's hot path and the checks share.  The first four also take batch
axes ahead of the grid axes (``_integral`` a leading (B, N) axis), one
field per row, and give each row the bytes of its call alone; ``_inner``
takes an (r, N) matrix as one BLAS matrix-vector product, whose rows agree
with single calls to round-off.

A solve calls these kernels thousands of times on grids small enough that
numpy's per-call overhead outweighs the arithmetic, so they take their
index tuples from ``_axis_plan``, cached per (ndim, axis), difference by
slice subtraction and reduce with ``np.add.reduce``: the operations and
their order, and so every byte, are those of ``np.diff`` and ``ndarray.sum``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "norm_h1v",
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

    @functools.cached_property
    def first_edge(self) -> tuple[int, ...]:
        """Per axis, the factor of u in the difference on its first edge:
        1 against the zero exterior, 1 - parity against a mirror."""
        return tuple(1 - parity for parity in self.mirror) or (1,) * self.dim

    @property
    def folds(self) -> bool:
        """Whether the grid has quotient grids: a full grid of even n."""
        return not self.mirror and self.points_per_dim % 2 == 0

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
        if not np.isfinite(vals).all():
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
    if not g.folds or len(mirror) != g.dim or not set(mirror) <= {1, -1}:
        raise ValueError(
            f"no quotient with mirror={mirror} of {g.dim}d n={g.points_per_dim} mirror={g.mirror}: "
            "needs a full grid, an even n and a parity of +1 or -1 per axis"
        )
    return replace(g, points_per_dim=g.points_per_dim // 2, mirror=tuple(mirror))


def fold(g: Grid, values: np.ndarray, parity: tuple[int, ...]) -> np.ndarray | None:
    """The share of the flat full-grid array ``values`` on every quotient
    grid of g, its orthant x > 0, if g folds and values is its own mirror
    image times ``parity[d]`` on every axis d, bit for bit; None otherwise.
    ``unfold`` onto a quotient grid of mirror ``parity`` gives values back."""
    nd = values.reshape(g.shape)
    if not g.folds or not all(np.array_equal(nd, s * np.flip(nd, axis=d)) for d, s in enumerate(parity)):
        return None
    return nd[(slice(g.points_per_dim // 2, None),) * g.dim].reshape(-1)


def unfold(g: Grid, u: np.ndarray) -> Field:
    """The full-grid field whose quotient on g is the flat array u."""
    nd = u.reshape(g.shape)
    for d, parity in enumerate(g.mirror):
        nd = np.concatenate([parity * np.flip(nd, axis=d), nd], axis=d)
    return Field(grid=replace(g, points_per_dim=g.box_points, mirror=()), values=nd.reshape(-1))


def coarse_grid(g: Grid) -> Grid:
    """The grid of g's box and mirror with ``points_per_dim // 2`` stored
    points per axis."""
    m = g.points_per_dim // 2
    if g.mirror:
        return quotient_grid(make_grid(g.dim, g.half_width, 2 * m), g.mirror)
    return make_grid(g.dim, g.half_width, m)


def transfer(src: Grid, dst: Grid, u: np.ndarray, parity: tuple[int, ...] | None = None) -> np.ndarray:
    """The flat array on dst of the separable piecewise-linear interpolant
    of the flat array u on src, for two grids of one box and mirror: the
    same map restricts to a coarser grid and prolongs to a finer one.

    Along each axis the interpolant's nodes are the stored points, +-L,
    where it is zero, and on a quotient grid the mirror image of the first
    point instead of -L, where it takes that point's value times
    ``parity[d]`` (default: the grids' mirror, as for a field of the
    sector; a potential is even on every axis).  Each weight is the hat
    function 1 - |x - node| / h of its own node, so on a full grid the
    interpolant of a mirror-symmetric array is symmetric bit for bit.
    """
    if (src.dim, src.half_width, src.mirror) != (dst.dim, dst.half_width, dst.mirror):
        raise ValueError(
            f"no transfer from {src.dim}d L={src.half_width} mirror={src.mirror} "
            f"to {dst.dim}d L={dst.half_width} mirror={dst.mirror}: needs one box and mirror"
        )
    parity = src.mirror if parity is None else parity
    xs, xd, h = src.axis_coords(), dst.axis_coords(), src.spacing
    nodes = np.concatenate(([-xs[0] if src.mirror else -src.half_width], xs, [src.half_width]))
    k = np.searchsorted(nodes, xd, side="right") - 1  # node left of each dst point
    bcast = (slice(None),) + (None,) * (src.dim - 1)
    w_left = (1.0 - (xd - nodes[k]) / h)[bcast]
    w_right = (1.0 - (nodes[k + 1] - xd) / h)[bcast]
    nd = u.reshape(src.shape)
    for d in range(src.dim):
        a = np.moveaxis(nd, d, 0)
        low = parity[d] * a[:1] if src.mirror else np.zeros_like(a[:1])
        ext = np.concatenate([low, a, np.zeros_like(a[:1])])
        nd = np.moveaxis(w_left * ext[k] + w_right * ext[k + 1], 0, d)
    return np.ascontiguousarray(nd).reshape(-1)


def _require_same_grid(g: Grid, u: Field) -> None:
    if u.grid != g:
        raise ValueError(
            f"grid mismatch: field lives on {u.grid.dim}d n={u.grid.points_per_dim} "
            f"L={u.grid.half_width}, expected {g.dim}d n={g.points_per_dim} L={g.half_width}"
        )


@functools.lru_cache(maxsize=16)  # ndim <= 4: a batch axis and three grid axes
def _axis_plan(ndim: int, axis: int) -> tuple:
    """Index tuples along ``axis`` of an ndim-array: its first entry, all
    but the first, all but the last, the interior and its last entry."""
    lead = (slice(None),) * axis
    return lead + (0,), lead + (slice(1, None),), lead + (slice(None, -1),), lead + (slice(1, -1),), lead + (-1,)


def _gradient_components(g: Grid, nd: np.ndarray) -> list[np.ndarray]:
    """Edge-difference components of an nd value array (zero exterior; the
    first edge of a quotient axis differences against the mirror point).
    Batch axes ahead of the grid axes are kept in every component."""
    comps = []
    batch = nd.ndim - g.dim
    for d, factor in enumerate(g.first_edge):
        axis = batch + d
        first, tail, head, inner, last = _axis_plan(nd.ndim, axis)
        c = np.empty(nd.shape[:axis] + (nd.shape[axis] + 1,) + nd.shape[axis + 1:])
        c[first] = factor * nd[first]
        np.subtract(nd[tail], nd[head], out=c[inner])
        # as differencing the zero-padded array: 0 - u keeps a +0.0 edge +0.0
        c[last] = 0.0 - nd[last]
        c /= g.spacing
        comps.append(c)
    return comps


def _neg_div(g: Grid, fluxes: list[np.ndarray]) -> np.ndarray:
    """Negative divergence of per-axis edge fluxes, back on the points
    (batch axes ahead of the grid axes are kept)."""
    out = None
    for d, f in enumerate(fluxes):
        _, tail, head, _, _ = _axis_plan(f.ndim, f.ndim - g.dim + d)
        div = np.subtract(f[tail], f[head])
        div /= g.spacing
        # 0.0 - div, not -div: as differencing from a zero array, a +0.0 stays +0.0
        out = np.subtract(0.0, div, out=div) if out is None else np.subtract(out, div, out=out)
    return out


def _edge_integral(g: Grid, per_axis):
    """Sum of per-axis edge arrays, functions of the gradient components
    that vanish with them, times the point weight.  Each edge carries the
    weight of a grid point, and a mirror edge, which a quotient shares with
    its image, half of it; an even one is 0 and skipped.  A float for one
    field; with batch axes ahead of the grid axes, an array of one value
    per field."""
    batch = per_axis[0].ndim - g.dim
    total = 0
    for c in per_axis:
        total = total + np.add.reduce(c.reshape(c.shape[:batch] + (-1,)), axis=-1)
    for d, parity in enumerate(g.mirror):
        if parity < 0:
            face = per_axis[d][_axis_plan(per_axis[d].ndim, batch + d)[0]]
            total = total - 0.5 * np.add.reduce(face, axis=tuple(range(batch, face.ndim)))
    return total * g.weight if batch else float(total * g.weight)


def _integral(g: Grid, values: np.ndarray):
    """Integral of a flat point field: its point sum times the point weight.
    A float for one field; a (B, N) batch gives an array of B values."""
    total = np.add.reduce(values, axis=-1) * g.weight
    return total if values.ndim > 1 else float(total)


def _inner(g: Grid, a: np.ndarray, b: np.ndarray):
    """Inner product of flat point fields: np.dot(a, b) times the point
    weight.  A float for two fields; an (r, N) matrix a gives r values, its
    matrix-vector product, equal to single calls only to round-off."""
    total = np.dot(a, b) * g.weight
    return total if total.ndim else float(total)


def _grad_sq(g: Grid, u: np.ndarray) -> float:
    """sum |grad u|^2 h^dim of a flat value array."""
    return _edge_integral(g, [c * c for c in _gradient_components(g, u.reshape(g.shape))])


def _h1v_raw(g: Grid, vvals: np.ndarray, u: np.ndarray) -> float:
    """norm_h1v on raw flat arrays (no Field validation)."""
    return float(np.sqrt(_grad_sq(g, u) + _integral(g, vvals * u * u)))


def norm_h1v(g: Grid, potential, u: Field) -> float:
    """Weighted Sobolev norm sqrt( sum|grad u|^2 h^dim + integral V u^2 ).

    ``potential`` is any object with an ``evaluate(grid) -> Field`` method
    (see the potential classes in :mod:`lse.energy`).
    """
    _require_same_grid(g, u)
    return _h1v_raw(g, potential.evaluate(g).values, u.values)

