"""Mountain-pass search and perturbation-to-zero continuation.

The perturbed energy has a strict local minimum at 0, is unbounded below
along rays, and its nontrivial critical points are saddles whose single
downhill direction is (numerically) the ray through the point itself.
``descend`` runs one loop of steps.  While far from a critical point it
interleaves two moves:

* an exact one-dimensional re-maximization of I_lam(t * u) over t > 0
  (the ray profile is strictly unimodal, so the peak is a scalar root
  find), which removes the unstable ray component, and
* an Armijo descent step, which contracts everything else.  Its
  direction s solves A s = el_gradient(u), with A the SPD linearization
  ``_linearized_matrix`` at the iterate, factored on every step.

The residual is the weighted norm of z solving the fixed (-Lap + V + 1) z
= el_gradient(u) of ``Preconditioner``.  That operator is A at lam = 0,
where A does not depend on the iterate, and the Newton Jacobian below is
A with its diagonal shifted: ``_linearized_matrix`` returns all three as
their values on one cached CSC stencil pattern per grid,
``_stencil_pattern``.  The banded owner scatters those values into its
band; only the SuperLU owner wraps them in a CSC matrix.

Every linear solve is direct, on every grid.  The per-iterate
factorization of the step or Newton operator is LAPACK banded LU when the
stencil's band is narrow (1d grids and small 2d and 3d grids) and SuperLU
otherwise, chosen by one size rule, ``_step_factorization``; the fixed
operator is always factored by SuperLU.

Every function here works on a full grid and on a quotient grid of one
parity sector alike, without telling them apart: :mod:`lse.grid` folds and
unfolds, its kernels carry the mirror faces, and the operators weigh each
axis's first edge on their face diagonals by the grid's ``first_edge``
factor.  A quotient grid is factored in every dimension, and its iterates
stay in their sector exactly, since the sector is the space they live in.

Once that residual is at most ``_NEWTON_RESID``, every further step of
the same loop is a ``_newton_polish`` step: damped Newton on the true
Jacobian ``_newton_matrix``.  It has one acceptance rule for every trial,
chord or damped Newton: keep it if it lowers the residual by 1%.  Near
a critical point it converges in a few steps whatever the Morse index, so
it needs neither the ray rescale nor the deflation span; warm-started lam
stages typically start there.  One budget, cfg.max_outer, counts both
kinds of step, and a mass integral below the constant ``_MASS_FLOOR``
stops any descent as collapsed; ``continue_to_limit`` rejects a limit
below it as trivial.
On SuperLU grids a Newton Jacobian factor is kept for chord steps, across
iterates and lam stages alike, while they contract the residual by
``_CHORD_THETA`` or reach the descent tolerance; after a slower kept chord
step the next step factors the Jacobian at the iterate it reached.
``continue_to_limit`` makes one step owner per solve and hands it to every
stage.  Banded grids refactor at every step.

Energy is nonincreasing across each accepted Armijo step; the ray
rescale between steps moves back *up* to the ridge by construction, and
the Newton steps are monotone in the residual instead.

``mountain_pass`` starts the descent at the exact peak of the ray through
a seed profile, the maximum of I_lam over the path t -> t * e from 0, and
returns the descent's field with that path maximum.
``continue_to_limit`` drives lam down a geometric schedule with warm
starts and finishes with a lam = 0 solve.  On a grid whose step operator
SuperLU factors while that of its ``lse.grid.coarse_grid`` is banded, it
first runs the lam_start mountain pass on the coarse grid, with V, the seed
and the deflation fields restricted by ``lse.grid.transfer``, and hands
the prolonged coarse solution to the fine mountain pass as its seed: nested
iteration, as in full multigrid.  Newton's step count does not depend on
the mesh, so the fine finish starts near its solution and factors about
half as often.  Every lam stage still runs on the requested grid.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import hermite as herm
from scipy.linalg.lapack import dgbtrf as _gbtrf
from scipy.linalg.lapack import dgbtrs as _gbtrs

from .energy import (
    PerturbationParams,
    Tabulated,
    _gradient_raw,
    _log_abs,
    _p_slope,
    _parts_raw,
    validate_potential,
)
from .grid import (
    Field,
    Grid,
    _axis_plan,
    _gradient_components,
    _h1v_raw,
    _inner,
    _integral,
    coarse_grid,
    transfer,
)

__all__ = [
    "MountainPassConfig",
    "ContinuationSchedule",
    "LambdaRecord",
    "SolveReport",
    "DescentResult",
    "MountainPassResult",
    "SolverError",
    "GeometryFailure",
    "CollapseError",
    "ConvergenceFailure",
    "structured_seed",
    "descend",
    "mountain_pass",
    "continue_to_limit",
]


class SolverError(RuntimeError):
    """Base class for solver control-flow failures."""


class GeometryFailure(SolverError):
    """The seed ray has no point of negative energy to end a path at."""


class CollapseError(SolverError):
    """The iterate collapsed to (numerically) zero."""


class ConvergenceFailure(SolverError):
    """Residual tolerance not reached within the iteration budget."""


# Armijo sufficient-decrease constant, step ratio per backtrack, and the
# backtracks after which ``descend`` reports a stagnated line search.
_ARMIJO_C1 = 1e-4
_BACKTRACK_RATIO = 0.5
_MAX_BACKTRACKS = 40
# Saddle-free Newton steps of ``_subspace_local_max`` per outer iteration.
_SUBSPACE_MAX_INNER = 10
# Most lam stages a ContinuationSchedule may have.  The paper's schedule
# (1, 0.1, ..., 1e-4) has 5 and the longest run anywhere in the project has
# 13; a ratio near 1 with a tiny lambda_min (0.9999999 down to 1e-300 is
# about 6.9e9 stages) could never finish, so ``lambdas`` stops past it.
_MAX_STAGES = 100


@dataclass(frozen=True)
class MountainPassConfig:
    """Stopping rule of every descent: the preconditioned residual at which
    it has converged and its iteration budget, Newton steps included.  The
    line-search settings are the module constants above."""

    descent_tol: float = 1e-6
    max_outer: int = 500

    def __post_init__(self) -> None:
        if not self.descent_tol > 0.0:
            raise ValueError(f"descent_tol={self.descent_tol} must be positive")
        if self.max_outer < 1:
            raise ValueError(f"max_outer={self.max_outer} must be at least 1")


@dataclass(frozen=True)
class ContinuationSchedule:
    """Geometric lam schedule: start, start*ratio, ... down to lambda_min."""

    lambda_start: float = 1.0
    ratio: float = 0.1
    lambda_min: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_start <= 1.0:
            raise ValueError(f"lambda_start={self.lambda_start} out of (0, 1]")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(
                f"ratio={self.ratio} must lie in the open interval (0, 1) or the schedule never terminates"
            )
        if not 0.0 < self.lambda_min <= self.lambda_start:
            raise ValueError(f"lambda_min={self.lambda_min} out of (0, lambda_start]")
        if len(self.lambdas()) > _MAX_STAGES:
            raise ValueError(
                f"schedule of more than {_MAX_STAGES} stages (ratio={self.ratio}, lambda_min={self.lambda_min})"
            )

    def lambdas(self) -> list[float]:
        """lambda_start * ratio^k while at least lambda_min (less 1e-9 of it,
        for rounding); the list stops one past ``_MAX_STAGES``."""
        out = []
        lam = self.lambda_start
        while lam >= self.lambda_min * (1.0 - 1e-9) and len(out) <= _MAX_STAGES:
            out.append(lam)
            lam *= self.ratio
        return out


@dataclass(frozen=True)
class LambdaRecord:
    lam: float
    energy: float
    resid_precond: float
    resid_raw: float
    iterations: int
    mass: float
    lambda_w1p_p: float
    linf: float


@dataclass
class SolveReport:
    """Per-stage continuation diagnostics.

    records are ordered by decreasing lam with the lam = 0 stage last;
    trajectory holds the converged field of each stage.  m2_estimate is the
    maximum of I_lam_start on the ray through the start of the fine
    mountain pass (the seed, or the prolonged coarse solution).  It bounds
    every stage energy of an undeflated solve, whose first stage reaches
    the ground level of I_lam_start, the least ray maximum of any field,
    and whose later stages lie lower; it bounds no deflated solve.
    newton_steps, factorizations and discarded_trials sum those of the
    stages' descents on the requested grid; coarse_factorizations counts
    the step and Newton factorizations of the coarse mountain pass.  The
    identities a solution satisfies are checked by :mod:`lse.verify`, not
    here.
    """

    records: list[LambdaRecord] = field(default_factory=list)
    trajectory: list[Field] = field(default_factory=list)
    m2_estimate: float = float("nan")
    newton_steps: int = 0
    factorizations: int = 0
    discarded_trials: int = 0
    coarse_factorizations: int = 0


@dataclass
class DescentResult:
    field: Field
    iterations: int
    residual: float
    converged: bool
    stagnated: bool = False
    collapsed: bool = False
    newton_steps: int = 0  # the part of ``iterations`` taken by the Newton finish
    factorizations: int = 0  # of the step and Newton operators, by the step owner
    discarded_trials: int = 0  # Newton-finish trials evaluated and not kept
    gradient: np.ndarray | None = None  # el_gradient of ``field`` once converged


@dataclass
class MountainPassResult:
    field: Field
    path_max: float
    descent: DescentResult


# ---------------------------------------------------------------------------
# sparse factorizations and the preconditioner

# Minimum degree on the pattern of A^T + A.  Every operator factored here is
# a structurally symmetric stencil matrix, for which this ordering gives
# about half the LU fill of SuperLU's default (COLAMD) on 2d grids.
_ORDERING = "MMD_AT_PLUS_A"


class _Factorization:
    """Owner of one sparse LU factorization of an operator on an n^dim grid,
    given as its values on ``_stencil_pattern(dim, n)``; every splu in the
    solver is here, and so is the only CSC matrix it builds.

    It holds the factors of the fixed operator for ``Preconditioner``, or
    those of the step or Newton operator of a solve when their band is too
    wide for ``_BandedFactorization`` (see ``_step_factorization``).
    ``factor`` frees the old factors before it builds the new ones, so the
    two are never alive at once.  ``relax=1, panel_size=1`` give the same
    fill as SuperLU's defaults and factor faster on every stencil grid
    measured (2d 95^2 quotient 27 -> 19 ms, 3d 20^3 quotient 578 -> 197 ms).

    A SuperLU factor costs many solves, so ``_newton_polish`` keeps a Newton
    Jacobian factor for later chord steps (``lags_jacobian``) and marks it
    with ``holds_jacobian``; every ``factor`` call, failed ones included,
    and ``release`` clear the mark, and so does ``_newton_polish`` after a
    chord step that contracts too little.
    """

    lags_jacobian = True

    def __init__(self, dim: int, n: int) -> None:
        self._indptr, self._indices, _, _ = _stencil_pattern(dim, n)
        self.release()

    def release(self) -> None:
        self._lu = None
        self.holds_jacobian = False

    def factor(self, values: np.ndarray) -> None:
        self.release()
        size = self._indptr.size - 1
        a = sp.csc_matrix((values, self._indices, self._indptr), shape=(size, size))
        try:
            self._lu = spla.splu(a, permc_spec=_ORDERING, relax=1, panel_size=1)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ConvergenceFailure(f"operator is singular ({exc})") from None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@functools.lru_cache(maxsize=8)  # a solve uses one grid per sector
def _band_slots(dim: int, n: int) -> np.ndarray:
    """Flat position, in the Fortran-ordered LAPACK band array of shape
    (3*bw + 1, n^dim) with bw = n^(dim-1), of each data position of
    ``_stencil_pattern(dim, n)``: entry (i, j) goes to row 2*bw + i - j of
    column j.  Shared by every caller, so it is read-only."""
    indptr, indices, _, _ = _stencil_pattern(dim, n)
    bw = n ** (dim - 1)
    cols = np.repeat(np.arange(n**dim), np.diff(indptr))
    slots = (2 * bw + indices - cols) + (3 * bw + 1) * cols
    slots.setflags(write=False)
    return slots


class _BandedFactorization:
    """Owner of one LAPACK banded LU (dgbtrf/dgbtrs) of a step operator on
    an n^dim grid, given as its values on ``_stencil_pattern(dim, n)``,
    which ``factor`` scatters straight into the band.  In C point order the
    stencil's band is bw = n^(dim-1) wide on each side.

    A banded factor costs about one solve, so Newton refactors at every
    step: lagging it on every grid measured more iterations and more time
    (``sweep`` at seed 5: 1895 -> 5705 iterations, +21% to +32% in-process
    pass time; ``ladder_1d`` 82 -> 153 iterations)."""

    lags_jacobian = False

    def __init__(self, dim: int, n: int) -> None:
        self._bw = n ** (dim - 1)
        self._slots = _band_slots(dim, n)
        self._shape = (3 * self._bw + 1, n**dim)
        self.release()

    def release(self) -> None:
        self._lu = self._piv = None
        self.holds_jacobian = False

    def factor(self, values: np.ndarray) -> None:
        self.release()
        band = np.zeros(self._shape, order="F")
        band.reshape(-1, order="F")[self._slots] = values
        lu, piv, info = _gbtrf(band, self._bw, self._bw, overwrite_ab=1)
        if info > 0:
            raise ConvergenceFailure(f"step operator is singular (zero pivot in column {info})")
        self._lu, self._piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = _gbtrs(self._lu, self._bw, self._bw, rhs, self._piv)
        return x


# Banded LU of a stencil operator costs about N * bw^2 flops and has no
# ordering or symbolic phase.  Time of factor plus solve against SuperLU,
# Newton Jacobian on even quotient grids, one thread: 1d 511 0.23; 2d 15^2
# 0.21, 55^2 0.71, 60^2 0.78, 75^2 0.98, 95^2 1.41; 3d 8^3 0.33, 10^3
# 0.49, 12^3 0.62, 15^3 0.81.  The bound keeps a margin below both
# crossovers (2d about 75^2 at N * bw^2 = 3e7; 3d above 15^3).
_BANDED_LIMIT = 10_000_000


def _banded(g: Grid) -> bool:
    """Whether the step and Newton operators on g get banded LU: their band
    is narrow."""
    bw = g.points_per_dim ** (g.dim - 1)
    return g.npoints * bw * bw <= _BANDED_LIMIT


def _step_factorization(g: Grid) -> _Factorization | _BandedFactorization:
    """Owner of the per-iterate factorization of the step and Newton
    operators on g: banded LU when the band is narrow, else SuperLU."""
    owner = _BandedFactorization if _banded(g) else _Factorization
    return owner(g.dim, g.points_per_dim)


class Preconditioner:
    """Solves the fixed operator (-Lap + V + 1) z = rhs, the step operator
    ``_linearized_matrix`` at lam = 0; factored once per (grid, potential).

    ``solve`` measures the preconditioned residual of every iterate.  The
    Armijo step solves the iterate-dependent ``_linearized_matrix`` at the
    stage's lam, and the Newton finish solves with the Jacobian
    ``_newton_matrix``; ``descend`` factors both apart from this one, in
    the step owner of its solve (see the module docstring).  The fixed
    operator has one SuperLU factorization on every grid, whatever its band
    (one factorize per grid, many cheap solves, bit-reproducible).
    """

    def __init__(self, g: Grid, potential) -> None:
        vvals = potential.evaluate(g).values
        self._lu = _Factorization(g.dim, g.points_per_dim)
        self._lu.factor(_linearized_matrix(g, vvals, np.zeros(g.npoints), PerturbationParams(lam=0.0)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@functools.lru_cache(maxsize=8)  # a solve uses one grid
def _stencil_pattern(dim: int, n: int) -> tuple:
    """CSC (indptr, indices, diag, edges) of the (2*dim+1)-point stencil on
    an n^dim grid: data positions of the diagonal (point order), and per axis
    d of the entries (a, b), (b, a) of each interior edge a -> b (C order of
    the edge array).  Shared by every caller, so every array is read-only."""
    idx = np.arange(n**dim).reshape((n,) * dim)
    lo = [idx[(slice(None),) * d + (slice(0, n - 1),)].reshape(-1) for d in range(dim)]
    hi = [idx[(slice(None),) * d + (slice(1, n),)].reshape(-1) for d in range(dim)]
    rows = np.concatenate([idx.reshape(-1)] + [e for d in range(dim) for e in (lo[d], hi[d])])
    cols = np.concatenate([idx.reshape(-1)] + [e for d in range(dim) for e in (hi[d], lo[d])])
    order = np.lexsort((rows, cols))  # by column, then by row
    pos = np.empty_like(order)  # data position of each (rows, cols) entry
    pos[order] = np.arange(order.size)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols)))).astype(np.int32)
    indices = rows[order].astype(np.int32)
    parts = [block.copy() for block in np.split(pos, np.cumsum([n**dim] + [lo[0].size] * (2 * dim - 1)))]
    for arr in (indptr, indices, *parts):
        arr.setflags(write=False)
    return indptr, indices, parts[0], tuple(zip(parts[1::2], parts[2::2]))


def _linearized_matrix(
    g: Grid, vvals: np.ndarray, u: np.ndarray, params: PerturbationParams, diag_shift: np.ndarray | None = None
) -> np.ndarray:
    """Sparse SPD linearization, as its values on ``_stencil_pattern``: the
    Armijo step operator at every lam, and at lam = 0 (where it does not
    depend on u) the fixed operator of ``Preconditioner``.

    This is (-Lap + V + 1) plus the exact second derivative of both
    p-terms: lam ``_p_slope`` of each edge difference as the edge
    coefficient of the p-gradient term's divergence form, and lam
    ``_p_slope(u)``, the derivative of the p-mass flux lam w(u) u, on the
    diagonal.  Without the latter, the |u|^(p-1) nonlinearity makes
    preconditioned descent oscillate around the nearly-sparse tail instead
    of settling on it.  Filled into ``_stencil_pattern``, less
    ``diag_shift`` on the diagonal if given.  The
    first edge of each axis enters the face diagonal with ``Grid.first_edge``
    times its coefficient, as d(first edge)/du = first_edge / h: once
    against the zero exterior, 0 (even) or 2 (odd) times against a mirror.
    """
    lam, p = params.lam, params.p
    h2 = g.spacing**2
    _, indices, diag_pos, edges = _stencil_pattern(g.dim, g.points_per_dim)
    data = np.empty(indices.size)
    diag = np.zeros(g.shape)
    for d, (c, (lower, upper)) in enumerate(zip(_gradient_components(g, u.reshape(g.shape)), edges)):
        first, tail, head, inner, _ = _axis_plan(g.dim, d)
        coeff = 1.0 + lam * _p_slope(c, p)
        coeff[first] *= g.first_edge[d]
        diag += (coeff[head] + coeff[tail]) / h2
        data[lower] = data[upper] = -(coeff[inner] / h2).reshape(-1)
    diag = diag.reshape(-1) + vvals + 1.0 + lam * _p_slope(u, p)
    data[diag_pos] = diag if diag_shift is None else diag - diag_shift
    return data


def _newton_matrix(g: Grid, vvals: np.ndarray, u: np.ndarray, params: PerturbationParams) -> np.ndarray:
    """Jacobian of el_gradient at u (sparse, symmetric, indefinite), as
    its values on ``_stencil_pattern``, at every lam.

    Equals the SPD step operator minus the zeroth-order surrogate (the +1)
    and minus the log-term curvature 2 log|u| + 2, the derivative of
    ``log_nonlin`` with its ``_log_abs`` floor, taken off its diagonal
    before the fill; at grid zeros of u the log curvature is a large
    positive diagonal, which correctly freezes those entries.
    """
    return _linearized_matrix(g, vvals, u, params, diag_shift=3.0 + 2.0 * _log_abs(u))


# ---------------------------------------------------------------------------
# ray geometry


def structured_seed(g: Grid, j: int, potential) -> Field:
    """j-th seed profile: Hermite polynomial of degree j-1 along the first
    axis times a Gaussian envelope, so the seed has j-1 sign changes.

    Normalized to unit weighted-Sobolev norm.  Raises for j >= n/2 (n the
    points per axis across the box), where the oscillations are no longer
    resolved.  On a quotient grid it is the restriction of the full-grid
    seed; only a seed whose parity matches the grid's mirror is meaningful.
    """
    if j < 1:
        raise ValueError(f"seed index j={j} must be at least 1")
    if j >= g.box_points / 2:
        raise ValueError(
            f"seed index j={j} under-resolved on {g.box_points} points per axis "
            f"(need j < n/2)"
        )
    x1 = g.coordinate_arrays()[0]
    coeffs = np.zeros(j)
    coeffs[j - 1] = 1.0
    vals = (herm.hermval(x1, coeffs) * np.exp(-g.radius_squared())).reshape(-1)
    return Field(grid=g, values=vals / _h1v_raw(g, potential.evaluate(g).values, vals))


def _ray_peak_factor(parts, params: PerturbationParams) -> float:
    """t* > 0 maximizing I_lam(t u) given the energy parts of u.

    In s = log t, d/dt I_lam(t u) / (2 m t) = psi(s) = b e^((p-2) s) + s0 - s
    with b = lam P / (2 m) and s0 = (Q - S) / (2 m), the lam = 0 peak, where
    P = p-terms, Q = |grad u|^2 + V-mass, m = mass, S = log integral.  psi
    is strictly decreasing and convex with psi(s0) = b e^((p-2) s0) >= 0, so
    its unique root is the peak, and Newton's method from s0 clipped to
    [-50, 50] rises to it without passing it.  The iterates are capped at
    50, and when psi <= 0 already at the clipped start (the root lies below
    -50) the start is the answer, so at lam = 0 this is exp(clip(s0)).
    """
    m = parts.mass
    if m <= 0.0:
        return 1.0
    s0 = (parts.grad_sq + parts.v_mass - parts.log_int) / (2.0 * m)
    b = params.lam * (parts.p_grad + parts.p_mass) / (2.0 * m)
    k = params.p - 2.0
    s = float(np.clip(s0, -50.0, 50.0))
    # psi <= 0 or a step at rounding level ends the iteration
    for _ in range(100):
        be = b * math.exp(k * s)
        f = be + (s0 - s)
        if f <= 0.0:
            break
        s, prev = min(s + f / (1.0 - k * be), 50.0), s
        if s - prev <= 4.0 * np.finfo(float).eps * abs(s):
            break
    return float(np.exp(s))


def _subspace_local_max(
    g: Grid,
    vvals: np.ndarray,
    u: np.ndarray,
    params: PerturbationParams,
    others: list[np.ndarray],
    tol: float,
) -> np.ndarray:
    """Move u toward a nearby local maximum of I_lam restricted to
    span{u, others}, by capped saddle-free Newton steps in the span
    coordinates.  With no other direction in the span it returns the exact
    peak of the ray through u.

    The span is how deflation works: ``others`` are the previously found
    solutions (one sign each; a direction collinear with an earlier column,
    such as -s after s, is dropped).  Near a higher critical point the extra
    downhill directions (besides the ray) point roughly along the found
    solutions, so equilibrating over their span stabilizes the outer descent
    the same way the exact 1-d ray solve does for the ground state.  Each
    step solves with |H|, the in-span
    Hessian with its eigenvalues replaced by their moduli (Dauphin et al.,
    NeurIPS 2014), so it ascends along every eigendirection.  Plain Newton
    would also converge onto the stored solutions, which are critical points
    of the restriction, and hand the outer descent a known solution; the
    saddle-free step is repelled by them.  The step cap keeps the ascent
    local, since an uncapped in-span ascent would run off along high
    logarithmic ridges.
    """
    cols = [u]
    for s in others:
        keep = True
        for b in cols:
            cos2 = float(s @ b) ** 2 / (float(s @ s) * float(b @ b) + 1e-300)
            if cos2 > 1.0 - 1e-12:
                keep = False
                break
        if keep:
            cols.append(s)
    if len(cols) == 1:
        parts = _parts_raw(g, vvals, u, params)
        return _ray_peak_factor(parts, params) * u
    q, _ = np.linalg.qr(np.stack(cols, axis=1))
    r = q.shape[1]
    c = q.T @ u
    scale = float(np.sqrt(c @ c))
    delta = 1e-6 * (1.0 + scale)
    for _ in range(_SUBSPACE_MAX_INNER):
        v = q @ c
        # the gradient at v and at its r difference points, in one call
        points = np.empty((r + 1, v.size))
        points[0] = v
        np.add(v, np.multiply(delta, q.T, out=points[1:]), out=points[1:])
        grads = _gradient_raw(g, vvals, points, params)
        gv = grads[0]
        gc = _inner(g, q.T, gv)
        if float(np.sqrt(gc @ gc)) <= tol:
            break
        hess = np.empty((r, r))
        for i in range(r):
            hess[:, i] = _inner(g, q.T, grads[i + 1] - gv) / delta
        try:
            w, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
        except np.linalg.LinAlgError:
            break
        if not (np.abs(w) > 0.0).all():
            break
        dc = vecs @ ((vecs.T @ gc) / np.abs(w))
        dn = float(np.sqrt(dc @ dc))
        cap = 0.3 * (1.0 + scale)
        if dn > cap:
            dc *= cap / dn
        c = c + dc
    return q @ c


# ---------------------------------------------------------------------------
# descent


# A kept chord step (with the lagged Jacobian factor of an earlier iterate
# or lam stage) keeps that factor for the next step when it lowers the
# preconditioned residual below this fraction of the current one, or to the
# descent tolerance; otherwise the next step refactors at its iterate.
# SuperLU factorizations / iterations per solve and time, through
# find_k_solutions, in process, one thread (gausson_2d at seed 5):
#   theta       0 (no lag)       0.25            0.5             0.75            0.9
#   gausson_2d  17 / 16 0.148 s  12 / 32 0.127   7 / 32 0.088    7 / 50 0.105    7 / 96 0.149
#   3d n = 40   17 / 16 1.70 s   9 / 25 0.94     7 / 31 0.79     6 / 55 0.72     5 / 90 0.71
# (3d: the shifted Gausson V = 2|x|^2 + 0.5, L = 5, a 20^3 quotient; counts
# include the preconditioner's factor; times are the best of 3).  On
# gausson_2d every other column takes 19% or more longer than 0.5; in 3d,
# 0.75 and 0.9 are up to 10% faster, but above 0.5 the 2d chord steps crawl.
_CHORD_THETA = 0.5


def _newton_polish(
    g: Grid,
    vvals: np.ndarray,
    u: np.ndarray,
    grad: np.ndarray,
    resid: float,
    params: PerturbationParams,
    precond: Preconditioner,
    lu: _Factorization | _BandedFactorization,
    result: DescentResult,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """One damped Newton step on el_gradient = 0 from the iterate u, with
    gradient ``grad`` and preconditioned residual ``resid``; returns the
    accepted (u, grad, resid), or None when no damping lowers the residual.

    Every trial, chord or Newton, is kept when its residual is finite and
    below 0.99 * ``resid``; each one that is not adds to
    ``result.discarded_trials``.  When ``lu`` holds a Newton Jacobian
    factor, of an earlier iterate or lam stage, the step first tries the
    undamped chord step u - J_old^-1 grad.  A kept chord step keeps the
    factor for the next step when it contracts the residual below
    ``_CHORD_THETA`` times ``resid`` or reaches the descent tolerance
    ``tol``; otherwise the next step factors the Jacobian at the kept
    iterate.  A chord trial that is not kept, or no held factor, factors the
    Jacobian ``_newton_matrix`` at u into ``lu`` (kept for later chord
    steps if ``lu.lags_jacobian``, counted in ``result.factorizations``) and
    halves the Newton step (at most seven times) until a trial is kept.
    """

    def trial(cand):
        """(cand, its gradient, its residual) if that residual is finite and
        below 0.99 * resid, else None."""
        gnew = _gradient_raw(g, vvals, cand, params)
        rnew = _h1v_raw(g, vvals, precond.solve(gnew))
        if np.isfinite(rnew) and rnew < 0.99 * resid:
            return cand, gnew, rnew
        result.discarded_trials += 1
        return None

    if lu.holds_jacobian:
        step = trial(u - lu.solve(grad))
        if step is not None:
            lu.holds_jacobian = step[2] < _CHORD_THETA * resid or step[2] <= tol
            return step
    lu.factor(_newton_matrix(g, vvals, u, params))
    lu.holds_jacobian = lu.lags_jacobian
    result.factorizations += 1
    delta = lu.solve(grad)
    damp = 1.0
    for _ in range(8):
        step = trial(u - damp * delta)
        if step is not None:
            return step
        damp *= 0.5
    return None


# Preconditioned residual at or below which ``descend`` finishes with
# Newton.  Every threshold from 0.3 to 10 solves the same benchmark
# configs; from 3 up the factorization counts of the 2d and sweep
# workloads level off.
_NEWTON_RESID = 3.0
# Mass integral below which ``descend`` reports a collapse to zero and
# ``continue_to_limit`` rejects its limit as trivial.
_MASS_FLOOR = 1e-8


def descend(
    g: Grid,
    potential,
    u0: Field,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    *,
    deflation: Sequence[Field] = (),
    precond: Preconditioner | None = None,
    step_lu: _Factorization | _BandedFactorization | None = None,
) -> DescentResult:
    """Preconditioned Armijo descent, ray-stabilized, finished by damped
    Newton, in one loop of steps.

    Terminates when the preconditioned residual (weighted Sobolev norm of
    the direction z) drops to cfg.descent_tol, at cfg.max_outer steps
    (Newton steps included), when a step finds no acceptable length
    (``stagnated``), or when the iterate's mass integral falls below
    ``_MASS_FLOOR`` (``collapsed``).  Before every Armijo step
    ``_subspace_local_max`` stabilizes a nonzero iterate: it moves it to
    the peak of its own ray, or, when ``deflation`` holds previously found
    solutions (fields on g), to the nearby in-span stationary point, away
    from them.  Each Armijo step factors ``_linearized_matrix`` at the
    iterate.  Once the residual is at most ``_NEWTON_RESID`` every further
    step is a ``_newton_polish`` step, without the stabilizer, which also
    hands back the next gradient and residual.  ``step_lu`` is the owner of
    the step and Newton factorizations (a new ``_step_factorization(g)`` if
    None); a Newton factor it holds on entry may serve as a chord step.
    ``result.residual`` is that of the final iterate, except after an
    Armijo step that collapses, where it is that of the iterate before it.
    """
    vvals = potential.evaluate(g).values
    if precond is None:
        precond = Preconditioner(g, potential)
    u = np.array(u0.values)
    result = DescentResult(field=u0, iterations=0, residual=np.inf, converged=False)
    span = [s.values for s in deflation]
    lu = step_lu if step_lu is not None else _step_factorization(g)
    newton = False
    for _ in range(cfg.max_outer + 1):
        if not newton:
            if np.add.reduce(u * u) > 0.0:
                u = _subspace_local_max(g, vvals, u, params, span, 0.1 * cfg.descent_tol)
            grad = _gradient_raw(g, vvals, u, params)
            resid = _h1v_raw(g, vvals, precond.solve(grad))
            # near a critical point Newton on the full residual converges in
            # a few steps and needs no ray or deflation stabilization
            newton = resid <= _NEWTON_RESID
        if resid <= cfg.descent_tol:
            result.converged = True
            result.gradient = grad
            break
        if result.iterations >= cfg.max_outer:
            break
        if newton:
            step = _newton_polish(g, vvals, u, grad, resid, params, precond, lu, result, cfg.descent_tol)
            if step is None:
                result.stagnated = True
                break
            u, grad, resid = step
            result.newton_steps += 1
        else:
            e0 = _parts_raw(g, vvals, u, params).total
            lu.factor(_linearized_matrix(g, vvals, u, params))
            result.factorizations += 1
            step = lu.solve(grad)
            pair = _inner(g, grad, step)
            alpha = 1.0
            for _ in range(_MAX_BACKTRACKS + 1):
                cand = u - alpha * step
                e1 = _parts_raw(g, vvals, cand, params).total
                if np.isfinite(e1) and e1 <= e0 - _ARMIJO_C1 * alpha * pair:
                    break
                alpha *= _BACKTRACK_RATIO
            else:
                result.stagnated = True
                break
            u = cand
        result.iterations += 1
        if _integral(g, u * u) < _MASS_FLOOR:
            result.collapsed = True
            break
    result.residual = resid
    result.field = Field(grid=g, values=u)
    return result


# ---------------------------------------------------------------------------
# mountain pass and continuation


def _raise_unless_converged(res: DescentResult, lam: float, what: str) -> None:
    """Raise CollapseError or ConvergenceFailure unless the descent ``res``
    at lam converged; ``what`` names the descent in the message."""
    if res.collapsed:
        raise CollapseError(f"iterate collapsed to zero at lam={lam:g}")
    if not res.converged:
        extra = " (line search stagnated)" if res.stagnated else ""
        raise ConvergenceFailure(
            f"{what} stopped at residual {res.residual:.3e} after "
            f"{res.iterations} iterations{extra}"
        )


def mountain_pass(
    g: Grid,
    potential,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    *,
    seed: Field | None = None,
    deflation: Sequence[Field] = (),
    precond: Preconditioner | None = None,
    step_lu: _Factorization | _BandedFactorization | None = None,
) -> MountainPassResult:
    """Mountain-pass search for a critical point at fixed lam.

    Descends from u0 = t* e, the peak of the ray through the seed e (the
    Gaussian ``structured_seed(g, 1, potential)`` unless given); ``path_max``
    = I_lam(u0) is the exact maximum over the path t -> t e from 0.  Raises ValueError for a zero
    seed and GeometryFailure if I_lam(2^60 e) >= 0: the ray profile crosses
    zero once, so then no point of the ray up to 2^60 e is negative.
    ``deflation`` and ``step_lu`` are passed on to ``descend``.
    """
    validate_potential(g, potential)
    if params.lam <= 0.0:
        raise ValueError("mountain pass requires lam > 0 (use continue_to_limit for lam -> 0)")
    e = (seed if seed is not None else structured_seed(g, 1, potential)).values
    if not float(np.abs(e).max()) > 0.0:
        raise ValueError("seed profile is identically zero")
    vvals = potential.evaluate(g).values
    if not _parts_raw(g, vvals, 2.0**60 * e, params).total < 0.0:
        raise GeometryFailure(
            "no negative-energy point on the seed ray within 60 doublings (degenerate seed)"
        )
    u0 = _ray_peak_factor(_parts_raw(g, vvals, e, params), params) * e
    path_max = _parts_raw(g, vvals, u0, params).total
    res = descend(
        g, potential, Field(grid=g, values=u0), params, cfg, deflation=deflation, precond=precond, step_lu=step_lu
    )
    _raise_unless_converged(res, params.lam, "mountain pass")
    return MountainPassResult(field=res.field, path_max=path_max, descent=res)


def _stage_record(g, u: np.ndarray, params, res: DescentResult, parts) -> LambdaRecord:
    """The LambdaRecord of a stage whose descent ``res`` converged to u,
    given the energy parts of u at its lam, whose p-terms give lambda_w1p_p;
    its raw residual is that of the gradient the descent kept."""
    raw = res.gradient
    return LambdaRecord(
        lam=params.lam,
        energy=parts.total,
        resid_precond=res.residual,
        resid_raw=float(np.sqrt(_inner(g, raw, raw))),
        iterations=res.iterations,
        mass=parts.mass,
        lambda_w1p_p=params.lam * (parts.p_grad + parts.p_mass),
        linf=float(np.abs(u).max()),
    )


def _coarse_start(
    g: Grid, vvals: np.ndarray, params: PerturbationParams, cfg: MountainPassConfig,
    seed: Field | None, deflation: Sequence[Field],
) -> tuple[Field | None, int]:
    """The start of the mountain pass on g at params.lam, and the step and
    Newton factorizations it took: the mountain pass on ``coarse_grid(g)``
    prolonged to g.  V, the seed (if None, the coarse grid's default) and
    the deflation fields reach the coarse grid by ``transfer``, and the
    coarse step owner is released on return.  A coarse mountain pass that
    fails leaves the seed as the start."""
    gc = coarse_grid(g)
    potential = Tabulated(values=Field(grid=gc, values=transfer(g, gc, vvals, (1,) * g.dim)))
    lu = _step_factorization(gc)
    try:
        mp = mountain_pass(
            gc, potential, params, cfg,
            seed=None if seed is None else Field(grid=gc, values=transfer(g, gc, seed.values)),
            deflation=[Field(grid=gc, values=transfer(g, gc, f.values)) for f in deflation], step_lu=lu,
        )
    except SolverError:
        return seed, 0
    finally:
        lu.release()
    return Field(grid=g, values=transfer(gc, g, mp.field.values)), mp.descent.factorizations


def continue_to_limit(
    g: Grid,
    potential,
    sched: ContinuationSchedule,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    *,
    seed: Field | None = None,
    trajectories: Sequence[Sequence[Field]] = (),
    precond: Preconditioner | None = None,
) -> tuple[Field, SolveReport]:
    """Mountain pass at lambda_start, then warm-started continuation to lam = 0.

    ``trajectories`` are the ``SolveReport.trajectory`` lists of earlier
    solves on the same grid and schedule; stage i (in schedule order, the
    final lam = 0 polish last) deflates against [t[i] for t in
    trajectories].  Every stage shares one step owner
    (``_step_factorization``), made here and released on return, so a
    Newton factor of one stage may serve the next but never another solve.
    Every stage takes its lam from ``sched`` (the mountain pass at its
    start, a final lam = 0 solve last), so of ``params`` only ``p`` is read.
    When g's step owner is SuperLU and its coarse grid's is banded, the
    mountain pass starts from ``_coarse_start``.
    Raises CollapseError if the limit field is trivial (mass below
    ``_MASS_FLOOR``).
    """
    validate_potential(g, potential)
    if precond is None:
        precond = Preconditioner(g, potential)
    vvals = potential.evaluate(g).values
    report = SolveReport()
    lams = sched.lambdas() + [0.0]
    par = replace(params, lam=lams[0])
    if not _banded(g) and _banded(coarse_grid(g)):
        seed, report.coarse_factorizations = _coarse_start(g, vvals, par, cfg, seed, [t[0] for t in trajectories])
    lu = _step_factorization(g)

    def record(field: Field, par: PerturbationParams, res: DescentResult) -> None:
        """Append the stage to the report."""
        parts = _parts_raw(g, vvals, field.values, par)
        report.records.append(_stage_record(g, field.values, par, res, parts))
        report.trajectory.append(field)
        report.newton_steps += res.newton_steps
        report.factorizations += res.factorizations
        report.discarded_trials += res.discarded_trials

    try:
        mp = mountain_pass(
            g, potential, par, cfg,
            seed=seed, deflation=[t[0] for t in trajectories], precond=precond, step_lu=lu,
        )
        report.m2_estimate = mp.path_max
        record(mp.field, par, mp.descent)
        for i, lam in enumerate(lams[1:], start=1):
            par = replace(params, lam=lam)
            res = descend(
                g, potential, report.trajectory[-1], par, cfg,
                deflation=[t[i] for t in trajectories], precond=precond, step_lu=lu,
            )
            _raise_unless_converged(res, lam, f"continuation stage lam={lam:g}")
            record(res.field, par, res)  # the last stage is at lam = 0
    finally:
        lu.release()

    mass = report.records[-1].mass
    if mass < _MASS_FLOOR:
        raise CollapseError(f"trivial limit: mass integral {mass:.3e} below _MASS_FLOOR={_MASS_FLOOR:g} (run rejected)")
    return report.trajectory[-1], report
