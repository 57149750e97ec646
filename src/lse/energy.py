"""Energy functional for the logarithmic Schrodinger equation on a grid.

The unperturbed energy of a field u is

    I(u) = 1/2 * integral( |grad u|^2 + (V + 1) u^2 ) - 1/2 * integral( u^2 log u^2 )

and the solver works with a p-perturbed version (1 < p < 2, 0 <= lam <= 1)

    I_lam(u) = lam/p * ( integral |grad u|^p + integral |u|^p ) + I(u)

whose critical points converge to solutions of  -Lap u + V u = u log u^2
as lam -> 0.  Both degenerate p-terms are regularized with the weight
w(t) = (t^2 + eps^2)^((p-2)/2).  The gradient term pairs w(grad u) with
|grad u|^2 on every edge, and the energy and its gradient use the *same*
weight, so its share of the discrete counterpart of the algebraic identity

    2 I_lam(u) - <I_lam'(u), u> = (2-p)/p * lam * (p-terms) + integral u^2

holds to round-off.  The mass term is integral ((u^2 + eps^2)^(p/2) -
eps^p), whose exact derivative w(u) u replaces |u|^(p-2) u, the force
with an infinite slope at u = 0 that stalls the descent as p -> 1.  Its
share of the identity holds only up to lam * |sum (w(u) eps^2 - eps^p)| *
vol, at most lam * eps^p times the box volume, not to round-off.

Only this module knows the perturbation term: eps, the weight and its
slope ``_p_slope`` (which the solver's step operator takes from here), the
range of p and ``norm_w1p``, the unregularized norm the p-terms are tested
against.

The raw kernels ``_parts_raw`` and ``_gradient_raw`` take one flat field or
a (B, N) batch of them, and give each row the bytes of its call alone, so
independent fields (the difference points of the solver's subspace
Hessian, the trials of the gradient check) cost one call.  The point
weights are not known here: every point integral is :mod:`lse.grid`'s
``_integral`` and every edge sum its ``_edge_integral``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, _edge_integral, _gradient_components, _integral, _neg_div, _require_same_grid

__all__ = [
    "Harmonic",
    "Quartic",
    "Shifted",
    "Tabulated",
    "PerturbationParams",
    "EnergyParts",
    "log_nonlin",
    "log_density",
    "validate_potential",
    "energy_parts",
    "el_gradient",
    "residual_original",
    "norm_w1p",
]


# The smallest positive float: max(|t|, _TINY) is |t| for every t != 0, and
# log(_TINY) is finite, so t * _log_abs(t) is 0 at t = 0 without a warning.
_TINY = np.finfo(np.float64).smallest_subnormal


def _log_abs(t: np.ndarray) -> np.ndarray:
    """log|t| for t != 0, and a finite value at t = 0."""
    return np.log(np.maximum(np.abs(t), _TINY))


def log_nonlin(t):
    """t * log(t^2), extended continuously by 0 at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    out = 2.0 * (t * _log_abs(t))
    return out if out.ndim else float(out)


def log_density(t):
    """t^2 * log(t^2), extended continuously by 0 at t = 0.

    Negative exactly for 0 < |t| < 1, zero at |t| in {0, 1}, positive
    for |t| > 1.
    """
    t = np.asarray(t, dtype=np.float64)
    out = 2.0 * ((t * t) * _log_abs(t))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# potentials


def _sampled(cache: dict, g: Grid, values) -> Field:
    """The Field of ``values()`` on g, computed on the first call for g."""
    if g not in cache:
        # an overflow on a huge box is reported by the check below, by name
        with np.errstate(over="ignore", invalid="ignore"):
            vals = values().reshape(-1)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"potential not finite on the grid ({g.dim}d n={g.points_per_dim} L={g.half_width!r})")
        cache[g] = Field(grid=g, values=vals)
    return cache[g]


@dataclass(eq=False)
class Harmonic:
    """V(x) = a |x|^2 with a > 0."""

    a: float
    _cache: dict = field(default_factory=dict, repr=False)

    def evaluate(self, g: Grid) -> Field:
        return _sampled(self._cache, g, lambda: self.a * g.radius_squared())


@dataclass(eq=False)
class Quartic:
    """V(x) = c |x|^4 with c > 0."""

    c: float
    _cache: dict = field(default_factory=dict, repr=False)

    def evaluate(self, g: Grid) -> Field:
        return _sampled(self._cache, g, lambda: self.c * g.radius_squared() ** 2)


@dataclass(eq=False)
class Shifted:
    """base potential plus a constant shift."""

    base: object
    shift: float
    _cache: dict = field(default_factory=dict, repr=False)

    def evaluate(self, g: Grid) -> Field:
        return _sampled(self._cache, g, lambda: self.base.evaluate(g).values + self.shift)


@dataclass(eq=False)
class Tabulated:
    """Potential given by a stored field, or lazily read from a field file."""

    values: Field | None = None
    path: str | None = None

    def evaluate(self, g: Grid) -> Field:
        if self.values is None:
            if self.path is None:
                raise ValueError("tabulated potential has neither values nor a file path")
            from .io_cli import read_field

            _, self.values = read_field(self.path)
        if self.values.grid != g:
            raise ValueError(
                f"grid mismatch: tabulated potential sampled on "
                f"{self.values.grid.dim}d n={self.values.grid.points_per_dim}, "
                f"requested {g.dim}d n={g.points_per_dim}"
            )
        return self.values


def validate_potential(g: Grid, potential) -> float:
    """Evaluate V on the grid and return V0 = min V; errors if V0 <= 0 (with
    a hint when a grid point sits at the origin) or V is not finite."""
    v0 = float(potential.evaluate(g).values.min())
    if v0 <= 0.0:
        hint = " (an odd point count puts the origin on the grid; use an even count or shift the potential)"
        raise ValueError(f"potential not positive on the grid: min V = {v0}{hint if 0.0 in g.axis_coords() else ''}")
    return v0


# ---------------------------------------------------------------------------
# perturbed energy


# eps of the weight (t^2 + eps^2)^((p-2)/2) of both p-terms; the solver's
# step operator reads it only through ``_p_weights`` and ``_p_slope``.
_GRAD_REG_EPS = 1e-10


@dataclass(frozen=True)
class PerturbationParams:
    """Perturbation strength lam in {0} U (0, 1], exponent p in (1, 2)."""

    lam: float
    p: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"perturbation strength out of range: lam={self.lam}")
        if not 1.0 < self.p < 2.0:
            raise ValueError(f"exponent p={self.p} outside the open interval (1, 2)")


@dataclass(frozen=True)
class EnergyParts:
    """Scalar ingredients of I_lam(u), each already integrated over the box.

    p_grad and p_mass are the regularized p-terms sum w |grad u|^2 h^dim
    and integral ((u^2 + eps^2)^(p/2) - eps^p); grad_sq is sum |grad u|^2 h^dim,
    v_mass is integral V u^2, mass is integral u^2 and log_int is
    integral u^2 log u^2.
    """

    lam: float
    p: float
    p_grad: float
    p_mass: float
    grad_sq: float
    v_mass: float
    mass: float
    log_int: float

    @property
    def total(self) -> float:
        return (
            self.lam / self.p * (self.p_grad + self.p_mass)
            + 0.5 * (self.grad_sq + self.v_mass + self.mass)
            - 0.5 * self.log_int
        )


def _p_weights(t2: np.ndarray, p: float) -> np.ndarray:
    """The p-term weight w(t) = (t^2 + eps^2)^((p-2)/2) of each entry, given
    its square t2 = t * t."""
    return (t2 + _GRAD_REG_EPS * _GRAD_REG_EPS) ** ((p - 2.0) / 2.0)


def _p_slope(t: np.ndarray, p: float) -> np.ndarray:
    """d/dt (w(t) t) = w(t) (1 + (p-2) t^2 / (t^2 + eps^2)), in (0, w(t)], of
    each entry: the edge coefficient of the p-gradient term's Hessian."""
    t2 = t * t
    return _p_weights(t2, p) * (1.0 + (p - 2.0) * t2 / (t2 + _GRAD_REG_EPS * _GRAD_REG_EPS))


def _parts_raw(g: Grid, vvals: np.ndarray, u: np.ndarray, params: PerturbationParams) -> EnergyParts:
    """energy_parts on raw flat arrays (no Field validation); solver hot path.
    For a batch u of shape (B, N) every part is an array of B values, each
    bit-equal to the part of its row alone."""
    comps = _gradient_components(g, u.reshape(u.shape[:-1] + g.shape))
    squares = [c * c for c in comps]
    uu = u * u
    grad_sq = _edge_integral(g, squares)
    v_mass = _integral(g, vvals * u * u)
    mass = _integral(g, uu)
    log_int = _integral(g, log_density(u))
    if params.lam > 0.0:
        p_grad = _edge_integral(g, [_p_weights(c2, params.p) * c * c for c, c2 in zip(comps, squares)])
        eps2 = _GRAD_REG_EPS * _GRAD_REG_EPS
        p_mass = _integral(g, (uu + eps2) ** (params.p / 2.0) - eps2 ** (params.p / 2.0))
    else:
        p_grad = p_mass = 0.0
    return EnergyParts(
        lam=params.lam,
        p=params.p,
        p_grad=p_grad,
        p_mass=p_mass,
        grad_sq=grad_sq,
        v_mass=v_mass,
        mass=mass,
        log_int=log_int,
    )


def energy_parts(g: Grid, potential, u: Field, params: PerturbationParams) -> EnergyParts:
    """Compute all scalar pieces of I_lam(u) in one pass."""
    _require_same_grid(g, u)
    return _parts_raw(g, potential.evaluate(g).values, u.values, params)


def _gradient_raw(g: Grid, vvals: np.ndarray, u: np.ndarray, params: PerturbationParams) -> np.ndarray:
    """el_gradient on raw flat arrays (no Field validation); solver hot path.
    A batch u of shape (B, N) gives the B gradients as rows."""
    comps = _gradient_components(g, u.reshape(u.shape[:-1] + g.shape))
    lap = _neg_div(g, comps).reshape(u.shape)
    core = lap + vvals * u - log_nonlin(u)
    if params.lam > 0.0:
        fluxes = [_p_weights(c * c, params.p) * c for c in comps]
        p_part = _neg_div(g, fluxes).reshape(u.shape) + _p_weights(u * u, params.p) * u
        core = core + params.lam * p_part
    return core


def el_gradient(g: Grid, potential, u: Field, params: PerturbationParams) -> Field:
    """Euler-Lagrange gradient G with _inner(g, G, phi) = <I_lam'(u), phi>.

    G = lam * ( -div(w grad u) + w(u) u ) + ( -Lap u + V u - u log u^2 );
    the (V + 1) u term of the quadratic part and the +u from the derivative
    of the log term cancel.
    """
    _require_same_grid(g, u)
    return Field(grid=g, values=_gradient_raw(g, potential.evaluate(g).values, u.values, params))


def residual_original(g: Grid, potential, u: Field) -> Field:
    """Pointwise residual -Lap u + V u - u log u^2 of the unperturbed equation,
    which is el_gradient at lam = 0."""
    return el_gradient(g, potential, u, PerturbationParams(lam=0.0))


def norm_w1p(g: Grid, u: Field, p: float) -> float:
    """Unregularized W^{1,p} norm ( sum|grad u|^p h^dim + integral |u|^p )^(1/p)."""
    _require_same_grid(g, u)
    PerturbationParams(lam=0.0, p=p)  # the range check of p
    grad_part = _edge_integral(g, [np.abs(c) ** p for c in _gradient_components(g, u.nd())])
    mass_part = _integral(g, np.abs(u.values) ** p)
    return float((grad_part + mass_part) ** (1.0 / p))
