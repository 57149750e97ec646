"""Mountain-pass search and perturbation-to-zero continuation.

The perturbed energy has a strict local minimum at 0, is unbounded below
along rays, and its nontrivial critical points are saddles whose single
downhill direction is (numerically) the ray through the point itself.
``descend`` therefore interleaves two moves while far from a critical
point:

* an exact one-dimensional re-maximization of I_lam(t * u) over t > 0
  (the ray profile is strictly unimodal, so the peak is a scalar root
  find), which removes the unstable ray component, and
* an Armijo descent step, which contracts everything else.  At lam > 0
  its direction s solves A s = el_gradient(u), with A the SPD
  linearization ``_linearized_matrix`` at the iterate (factored on every
  step; in 3d solved by conjugate gradients); at lam = 0 it is z solving
  the fixed (-Lap + V + 1) z = el_gradient(u) of ``Preconditioner``,
  whose weighted norm is the residual at every lam.  Both operators, and
  the Newton Jacobian below, are value fills of one cached CSC stencil
  pattern per grid, ``_stencil_pattern``.

Once that residual is at most ``_NEWTON_RESID``, ``descend`` finishes with
``_newton_polish``: damped Newton on the true Jacobian ``_newton_matrix``,
accepting only steps that lower the residual.  Near a critical point it
converges in a few steps whatever the Morse index, so it needs neither the
ray rescale nor deflation; warm-started lam stages typically start there.

Energy is nonincreasing across the accepted Armijo steps (recorded in
``DescentResult.energy_steps``); the ray rescale between steps moves back
*up* to the ridge by construction, and the Newton steps are monotone in
the residual instead.

``mountain_pass`` builds the ray path s -> s * t0 * e through a seed
profile, starts the descent at the discrete path peak, and guards against
collapse to zero.  ``continue_to_limit`` drives lam down a geometric
schedule with warm starts and finishes with a lam = 0 solve.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from .energy import (
    PerturbationParams,
    _gradient_raw,
    _parts_raw,
    validate_potential,
)
from .grid import Field, Grid, _gradient_components, norm_w1p

__all__ = [
    "MountainPassConfig",
    "ContinuationSchedule",
    "LambdaRecord",
    "SolveReport",
    "DescentResult",
    "MountainPassResult",
    "Preconditioner",
    "SolverError",
    "GeometryFailure",
    "CollapseError",
    "ConvergenceFailure",
    "default_seed",
    "find_t0",
    "check_geometry",
    "descend",
    "mountain_pass",
    "continue_to_limit",
]


class SolverError(RuntimeError):
    """Base class for solver control-flow failures."""


class GeometryFailure(SolverError):
    """The ray geometry needed by the path construction is absent."""


class CollapseError(SolverError):
    """The iterate collapsed to (numerically) zero."""


class ConvergenceFailure(SolverError):
    """Residual tolerance not reached within the iteration budget."""


@dataclass(frozen=True)
class MountainPassConfig:
    path_segments: int = 32
    descent_tol: float = 1e-6
    max_outer: int = 500
    armijo_c1: float = 1e-4
    backtrack_ratio: float = 0.5
    max_backtracks: int = 40
    seed_profile: Field | None = None

    def __post_init__(self) -> None:
        if self.path_segments < 8:
            raise ValueError(f"path_segments={self.path_segments} (need at least 8)")
        if not self.descent_tol > 0.0:
            raise ValueError(f"descent_tol={self.descent_tol} must be positive")
        if self.max_outer < 1:
            raise ValueError(f"max_outer={self.max_outer} must be at least 1")
        if not 0.0 < self.armijo_c1 < 1.0:
            raise ValueError(f"armijo_c1={self.armijo_c1} out of (0, 1)")
        if not 0.0 < self.backtrack_ratio < 1.0:
            raise ValueError(f"backtrack_ratio={self.backtrack_ratio} out of (0, 1)")


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
                f"ratio={self.ratio} does not decrease the perturbation (need 0 < ratio < 1)"
            )
        if not 0.0 < self.lambda_min <= self.lambda_start:
            raise ValueError(f"lambda_min={self.lambda_min} out of (0, lambda_start]")

    def lambdas(self) -> list[float]:
        out = []
        lam = self.lambda_start
        while lam >= self.lambda_min * (1.0 - 1e-9):
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
    """Per-stage continuation diagnostics plus final identity margins.

    records are ordered by decreasing lam with the lam = 0 stage last;
    trajectory holds the converged field of each stage.
    """

    records: list[LambdaRecord] = field(default_factory=list)
    trajectory: list[Field] = field(default_factory=list)
    nehari_margin: float = float("nan")
    energy_mass_defect: float = float("nan")
    linf_final: float = float("nan")
    m2_estimate: float = float("nan")
    wall_time: float = 0.0
    t0: float = float("nan")
    restarts: int = 0


@dataclass
class DescentResult:
    field: Field
    iterations: int
    residual: float
    converged: bool
    stagnated: bool = False
    collapsed: bool = False
    energy_steps: list[tuple[float, float]] = field(default_factory=list)
    newton_steps: int = 0  # the part of ``iterations`` taken by the Newton finish


@dataclass
class MountainPassResult:
    field: Field
    c_lambda: float
    path_max: float
    t0: float
    restarts: int
    descent: DescentResult


# ---------------------------------------------------------------------------
# sparse factorizations and the preconditioner

_DIRECT_LIMIT = 120_000  # unknowns; beyond this fall back to conjugate gradients

# Minimum degree on the pattern of A^T + A.  Every operator factored here is
# a structurally symmetric stencil matrix, for which this ordering gives
# about half the LU fill of SuperLU's default (COLAMD) on 2d grids.
_ORDERING = "MMD_AT_PLUS_A"


class _Factorization:
    """Owner of one sparse LU factorization; every splu in the solver is here.

    It holds the factors of the fixed operator for ``Preconditioner``, or
    those of the current step operator in ``descend``: the lam-step
    linearization or, in ``_newton_polish``, the Newton Jacobian.
    ``factor`` frees the old factors before it builds the new ones, so the
    two are never alive at once.
    """

    def __init__(self) -> None:
        self._lu = None

    def factor(self, a: sp.spmatrix) -> None:
        self._lu = None
        self._lu = spla.splu(a.tocsc(), permc_spec=_ORDERING)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


class Preconditioner:
    """Solves the fixed operator (-Lap + V + 1) z = rhs; assembled on the
    cached stencil pattern and factored once per (grid, potential).

    ``solve`` measures the preconditioned residual of every iterate, and
    is the Armijo step itself at lam = 0.  At lam > 0 that step solves the
    iterate-dependent operator ``_linearized_matrix`` instead, and the
    Newton finish solves with the Jacobian ``_newton_matrix``; ``descend``
    factors both apart from these, at the current iterate (see the module
    docstring).  Small and planar problems use a sparse LU factorization
    (one factorize, many cheap solves, bit-reproducible); large 3d
    problems fall back to diagonally preconditioned conjugate gradients at
    rtol 1e-10.
    """

    def __init__(self, g: Grid, potential) -> None:
        self.grid = g
        vvals = potential.evaluate(g).values
        indptr, indices, diag, _ = _stencil_pattern(g.dim, g.points_per_dim)
        data = np.full(indices.size, -1.0 / g.spacing**2)
        data[diag] = g.dim * (2.0 / g.spacing**2) + (vvals + 1.0)
        a = sp.csc_matrix((data, indices, indptr), shape=(g.npoints, g.npoints))
        if g.npoints <= _DIRECT_LIMIT and g.dim <= 2:
            self._lu = _Factorization()
            self._lu.factor(a)
            self._cg = None
        else:
            self._lu = None
            self._op = a.tocsr()
            self._diag_inv = sp.diags(1.0 / a.diagonal())
            self._cg = np.zeros(g.npoints)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return self._lu.solve(rhs)
        z, info = spla.cg(
            self._op, rhs, x0=self._cg, M=self._diag_inv, rtol=1e-10, atol=0.0,
            maxiter=20 * self.grid.points_per_dim,
        )
        if info != 0:
            raise ConvergenceFailure(f"preconditioner solve did not converge (cg info={info})")
        self._cg = z
        return z


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
) -> sp.csc_matrix:
    """Sparse SPD linearization used for the step direction at lam > 0.

    This is (-Lap + V + 1) plus the exact second derivative of the
    p-gradient term (a divergence form with per-edge coefficients) and the
    regularized second derivative of the p-mass term.  Without the latter,
    the |u|^(p-1) nonlinearity makes preconditioned descent oscillate
    around the nearly-sparse tail instead of settling on it.  Filled into
    ``_stencil_pattern``, less ``diag_shift`` on the diagonal if given.
    """
    lam, p, eps = params.lam, params.p, params.grad_reg_eps
    n, h = g.points_per_dim, g.spacing
    indptr, indices, diag_pos, edges = _stencil_pattern(g.dim, n)
    data = np.empty(indices.size)
    diag = np.zeros(g.shape)
    for d, (c, (lower, upper)) in enumerate(zip(_gradient_components(g, u.reshape(g.shape)), edges)):
        g2 = c * c
        # d/dg [ (g^2 + eps^2)^((p-2)/2) g ] -- always in (0, weight]
        coeff = 1.0 + lam * ((g2 + eps * eps) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * g2 / (g2 + eps * eps)))
        lead = (slice(None),) * d
        diag += (coeff[lead + (slice(0, n),)] + coeff[lead + (slice(1, n + 1),)]) / h**2
        data[lower] = data[upper] = -(coeff[lead + (slice(1, n),)] / h**2).reshape(-1)
    diag = diag.reshape(-1) + vvals + 1.0 + lam * (p - 1.0) * (u * u + eps**2) ** ((p - 2.0) / 2.0)
    data[diag_pos] = diag if diag_shift is None else diag - diag_shift
    return sp.csc_matrix((data, indices, indptr), shape=(g.npoints, g.npoints))


def _newton_matrix(g: Grid, vvals: np.ndarray, u: np.ndarray, params: PerturbationParams) -> sp.csc_matrix:
    """True Jacobian of el_gradient at u (sparse, symmetric, indefinite).

    Equals the SPD step operator minus the zeroth-order surrogate (the +1)
    and minus the log-term curvature log u^2 + 2, taken off its diagonal
    before the fill; at grid zeros of u the log curvature is a large
    positive diagonal, which correctly freezes those entries.
    """
    return _linearized_matrix(g, vvals, u, params, diag_shift=3.0 + np.log(u * u + 1e-300))


def _h1v_raw(g: Grid, vvals: np.ndarray, u: np.ndarray) -> float:
    vol = g.spacing**g.dim
    comps = _gradient_components(g, u.reshape(g.shape))
    kin = sum(float((c * c).sum()) for c in comps) * vol
    return float(np.sqrt(kin + float((vvals * u * u).sum()) * vol))


# ---------------------------------------------------------------------------
# ray geometry


def default_seed(g: Grid, potential) -> Field:
    """Centered Gaussian bump exp(-|x|^2), unit weighted-Sobolev norm."""
    vals = np.exp(-g.radius_squared()).reshape(-1)
    vvals = potential.evaluate(g).values
    return Field(grid=g, values=vals / _h1v_raw(g, vvals, vals))


def _ray_peak_factor(parts, params: PerturbationParams) -> float:
    """t* > 0 maximizing I_lam(t u) given the energy parts of u.

    d/dt I_lam(t u) / t = lam t^(p-2) P + Q - s - 2 m log t with
    P = p-terms, Q = |grad u|^2 + V-mass, m = mass, s = log integral;
    the left side is strictly decreasing in t, so the peak is the unique
    root.
    """
    m = parts.mass
    if m <= 0.0:
        return 1.0
    q_minus_s = parts.grad_sq + parts.v_mass - parts.log_int
    if params.lam == 0.0:
        return float(np.exp(np.clip(q_minus_s / (2.0 * m), -50.0, 50.0)))
    p_total = parts.p_grad + parts.p_mass

    def psi(t: float) -> float:
        return params.lam * t ** (params.p - 2.0) * p_total + q_minus_s - 2.0 * m * np.log(t)

    lo = hi = 1.0
    if psi(1.0) > 0.0:
        for _ in range(60):
            hi *= 2.0
            if psi(hi) <= 0.0:
                break
        else:
            return hi
        lo = hi / 2.0
    else:
        for _ in range(60):
            lo /= 2.0
            if psi(lo) >= 0.0:
                break
        else:
            return lo
        hi = lo * 2.0
    return float(brentq(psi, lo, hi, xtol=1e-14, rtol=8.9e-16))


def _subspace_local_max(
    g: Grid,
    vvals: np.ndarray,
    u: np.ndarray,
    params: PerturbationParams,
    others: list[np.ndarray],
    tol: float,
    max_inner: int = 10,
) -> np.ndarray:
    """Move u to the nearby stationary point of I_lam restricted to
    span{u, others}, by damped Newton in the span coordinates.

    Used when deflation supplies previously found solutions: near a higher
    critical point the extra downhill directions (besides the ray) point
    roughly along the found solutions, so equilibrating over their span
    stabilizes the outer descent the same way the exact 1-d ray solve does
    for the ground state.  Newton keeps the equilibration *local*; a global
    in-span ascent would run off along high logarithmic ridges.
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
    vol = g.spacing**g.dim
    c = q.T @ u
    scale = float(np.sqrt(c @ c))
    for _ in range(max_inner):
        v = q @ c
        gv = _gradient_raw(g, vvals, v, params)
        gc = vol * (q.T @ gv)
        if float(np.sqrt(gc @ gc)) <= tol:
            break
        hess = np.empty((r, r))
        delta = 1e-6 * (1.0 + scale)
        for i in range(r):
            gp = _gradient_raw(g, vvals, v + delta * q[:, i], params)
            hess[:, i] = vol * (q.T @ (gp - gv)) / delta
        hess = 0.5 * (hess + hess.T)
        try:
            dc = np.linalg.solve(hess, -gc)
        except np.linalg.LinAlgError:
            break
        dn = float(np.sqrt(dc @ dc))
        cap = 0.3 * (1.0 + scale)
        if dn > cap:
            dc *= cap / dn
        c = c + dc
    return q @ c


def find_t0(g: Grid, potential, e: Field, params: PerturbationParams, rho_probe: float = 0.0) -> float:
    """Smallest t in the doubling family {1, 2, 4, ...} with I_lam(t e) < 0
    and weighted norm above rho_probe."""
    if not float(np.abs(e.values).max()) > 0.0:
        raise ValueError("seed profile is identically zero")
    vvals = potential.evaluate(g).values
    t = 1.0
    for _ in range(61):
        scaled = t * e.values
        if (
            _parts_raw(g, vvals, scaled, params).total < 0.0
            and _h1v_raw(g, vvals, scaled) > rho_probe
        ):
            return t
        t *= 2.0
    raise GeometryFailure(
        "no negative-energy point on the seed ray within 2^60 doublings (degenerate seed)"
    )


def check_geometry(
    g: Grid,
    potential,
    params: PerturbationParams,
    rho: float,
    samples: int,
    rng_seed: int = 0,
) -> float:
    """Sampled lower bound for I_lam on the sphere of weighted norm rho.

    Draws ``samples`` white-noise fields, rescales each to norm rho and
    returns the smallest energy seen (positive means the local-minimum
    barrier at 0 is visible at this radius).
    """
    if samples < 1:
        raise ValueError(f"samples={samples} (need at least 1)")
    if not rho > 0.0:
        raise ValueError(f"rho={rho} must be positive")
    vvals = potential.evaluate(g).values
    rng = np.random.default_rng(rng_seed)
    alpha = np.inf
    for _ in range(samples):
        w = rng.standard_normal(g.npoints)
        nrm = _h1v_raw(g, vvals, w)
        scaled = (rho / nrm) * w
        alpha = min(alpha, _parts_raw(g, vvals, scaled, params).total)
    return float(alpha)


# ---------------------------------------------------------------------------
# descent


def _newton_polish(
    g: Grid,
    vvals: np.ndarray,
    u: np.ndarray,
    grad: np.ndarray,
    resid: float,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    precond: Preconditioner,
    lu: _Factorization,
    result: DescentResult,
    *,
    deflation=None,
    symmetry: str | None = None,
    mass_floor: float = 0.0,
) -> np.ndarray:
    """Damped Newton iteration on el_gradient = 0, monotone in the
    preconditioned residual; returns the final iterate.

    Starts from the iterate u with gradient ``grad`` and preconditioned
    residual ``resid``.  Each step factors the true Jacobian
    ``_newton_matrix`` into ``lu`` and halves the Newton step (at most
    seven times) until the residual falls by 1%.  Steps count in
    ``result.iterations`` (and ``result.newton_steps``) against
    cfg.max_outer; a mass below ``mass_floor`` sets ``result.collapsed``,
    and a step that finds no such damping sets ``result.stagnated``.
    ``result.residual`` and ``result.converged`` describe the final iterate.
    """
    vol = g.spacing**g.dim
    while resid > cfg.descent_tol and result.iterations < cfg.max_outer:
        if deflation is not None:
            deflation.step_scale(u)  # proximity guard only
        lu.factor(_newton_matrix(g, vvals, u, params))
        delta = lu.solve(grad)
        damp = 1.0
        for _ in range(8):
            cand = _parity_project(g, u - damp * delta, symmetry)
            gnew = _gradient_raw(g, vvals, cand, params)
            rnew = _h1v_raw(g, vvals, precond.solve(gnew))
            if np.isfinite(rnew) and rnew < 0.99 * resid:
                break
            damp *= 0.5
        else:
            result.stagnated = True
            break
        u, grad, resid = cand, gnew, rnew
        result.iterations += 1
        result.newton_steps += 1
        if mass_floor > 0.0 and vol * float((u * u).sum()) < mass_floor:
            result.collapsed = True
            break
    result.residual = resid
    result.converged = resid <= cfg.descent_tol and not result.collapsed
    return u


def _parity_project(g: Grid, u: np.ndarray, symmetry: str | None) -> np.ndarray:
    """Project onto the even or odd sector of first-axis reflection.

    Iterates launched from a seed with definite parity stay in that sector
    exactly; without the projection, linear-solve roundoff seeds the
    complementary sector and the instability of excited states amplifies
    it until the iterate slides into the ground state's basin.
    """
    if symmetry is None:
        return u
    nd = u.reshape(g.shape)
    flipped = np.flip(nd, axis=0)
    if symmetry == "even":
        return (0.5 * (nd + flipped)).reshape(-1)
    if symmetry == "odd":
        return (0.5 * (nd - flipped)).reshape(-1)
    raise ValueError(f"symmetry={symmetry!r} (must be None, 'even' or 'odd')")


# Preconditioned residual at or below which ``descend`` finishes with
# Newton.  Every threshold from 0.3 to 10 solves the same benchmark
# configs; from 3 up the factorization counts of the 2d and sweep
# workloads level off.
_NEWTON_RESID = 3.0


def descend(
    g: Grid,
    potential,
    u0: Field,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    *,
    deflation=None,
    ray_rescale: bool = True,
    mass_floor: float = 0.0,
    precond: Preconditioner | None = None,
    symmetry: str | None = None,
) -> DescentResult:
    """Preconditioned Armijo descent, optionally ray-stabilized, finished
    by damped Newton.

    Terminates when the preconditioned residual (weighted Sobolev norm of
    the direction z) drops to cfg.descent_tol, or at cfg.max_outer.  With
    ``ray_rescale`` the iterate is moved to the peak of its own ray before
    every step (or to the nearby in-span stationary point when deflation
    stores previous solutions).  Once the residual is at most
    ``_NEWTON_RESID`` the rest of the budget goes to ``_newton_polish``.
    ``deflation`` may supply a ``step_scale(u_flat)`` factor (see the
    deflation operator); ``mass_floor`` aborts with the collapsed flag when
    the iterate's mass integral falls below it; ``symmetry`` pins the
    first-axis parity sector of the iterates.
    """
    vvals = potential.evaluate(g).values
    if precond is None:
        precond = Preconditioner(g, potential)
    vol = g.spacing**g.dim
    u = _parity_project(g, np.array(u0.values), symmetry)
    result = DescentResult(field=u0, iterations=0, residual=np.inf, converged=False)
    step_prev: np.ndarray | None = None
    span = [s.values for s in deflation.solutions] if deflation is not None else []
    lu = _Factorization()
    for _ in range(cfg.max_outer + 1):
        if ray_rescale and float((u * u).sum()) > 0.0:
            if span:
                u = _subspace_local_max(g, vvals, u, params, span, 0.1 * cfg.descent_tol)
            else:
                parts = _parts_raw(g, vvals, u, params)
                u = _ray_peak_factor(parts, params) * u
        grad = _gradient_raw(g, vvals, u, params)
        z = precond.solve(grad)
        resid = _h1v_raw(g, vvals, z)
        result.residual = resid
        if resid <= cfg.descent_tol:
            result.converged = True
            break
        if result.iterations >= cfg.max_outer:
            break
        if resid <= _NEWTON_RESID:
            # near a critical point Newton on the full residual converges in
            # a few steps and needs no ray or deflation stabilization
            u = _newton_polish(
                g, vvals, u, grad, resid, params, cfg, precond, lu, result,
                deflation=deflation, symmetry=symmetry, mass_floor=mass_floor,
            )
            break
        scale = 1.0 if deflation is None else deflation.step_scale(u)
        e0 = _parts_raw(g, vvals, u, params).total
        if params.lam > 0.0 and g.dim <= 2:
            # step through the perturbation-aware linearization; the fixed
            # operator only measures the residual above
            lu.factor(_linearized_matrix(g, vvals, u, params))
            step = lu.solve(grad)
        elif params.lam > 0.0:
            a_u = _linearized_matrix(g, vvals, u, params)
            step, info = spla.cg(
                a_u, grad, x0=step_prev, M=sp.diags(1.0 / a_u.diagonal()),
                rtol=1e-8, atol=0.0, maxiter=20 * g.points_per_dim,
            )
            if info != 0:
                raise ConvergenceFailure(
                    f"step operator solve did not converge (cg info={info})"
                )
            step_prev = step
        else:
            step = z
        pair = vol * float(grad @ step) * scale
        alpha = 1.0
        for _ in range(cfg.max_backtracks + 1):
            cand = u - (alpha * scale) * step
            e1 = _parts_raw(g, vvals, cand, params).total
            if np.isfinite(e1) and e1 <= e0 - cfg.armijo_c1 * alpha * pair:
                break
            alpha *= cfg.backtrack_ratio
        else:
            result.stagnated = True
            break
        u = _parity_project(g, cand, symmetry)
        result.energy_steps.append((e0, e1))
        result.iterations += 1
        if mass_floor > 0.0 and vol * float((u * u).sum()) < mass_floor:
            result.collapsed = True
            break
    result.field = Field(grid=g, values=u)
    return result


# ---------------------------------------------------------------------------
# mountain pass and continuation

_MASS_FLOOR = 1e-8


def mountain_pass(
    g: Grid,
    potential,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    *,
    seed: Field | None = None,
    deflation=None,
    precond: Preconditioner | None = None,
    symmetry: str | None = None,
) -> MountainPassResult:
    """Peak-of-path search for a critical point at fixed lam.

    Builds the ray path s * t0 * e on cfg.path_segments segments, descends
    from the discrete peak (smallest index on ties), restarting with a
    doubled t0 if the iterate collapses to zero (at most three restarts).
    """
    validate_potential(g, potential)
    if params.lam <= 0.0:
        raise ValueError("mountain pass requires lam > 0 (use continue_to_limit for lam -> 0)")
    e = seed if seed is not None else cfg.seed_profile
    if e is None:
        e = default_seed(g, potential)
    vvals = potential.evaluate(g).values
    t0 = find_t0(g, potential, e, params)
    if precond is None:
        precond = Preconditioner(g, potential)
    restarts = 0
    while True:
        s = np.linspace(0.0, 1.0, cfg.path_segments + 1)
        energies = [
            _parts_raw(g, vvals, sk * t0 * e.values, params).total for sk in s
        ]
        k_peak = int(np.argmax(energies))
        path_max = float(energies[k_peak])
        u0 = Field(grid=g, values=s[k_peak] * t0 * e.values)
        res = descend(
            g, potential, u0, params, cfg,
            deflation=deflation, ray_rescale=True, mass_floor=_MASS_FLOOR,
            precond=precond, symmetry=symmetry,
        )
        if res.collapsed:
            restarts += 1
            if restarts > 3:
                raise GeometryFailure("repeated collapse to zero after 3 restarts")
            t0 *= 2.0
            continue
        if not res.converged:
            extra = " (line search stagnated)" if res.stagnated else ""
            raise ConvergenceFailure(
                f"mountain pass stopped at residual {res.residual:.3e} after "
                f"{res.iterations} iterations{extra}"
            )
        c_lam = _parts_raw(g, vvals, res.field.values, params).total
        return MountainPassResult(
            field=res.field, c_lambda=c_lam, path_max=path_max, t0=t0,
            restarts=restarts, descent=res,
        )


def _stage_record(g, vvals, u: np.ndarray, params, res: DescentResult) -> LambdaRecord:
    parts = _parts_raw(g, vvals, u, params)
    raw = _gradient_raw(g, vvals, u, params)
    vol = g.spacing**g.dim
    if params.lam > 0.0:
        w1p_p = params.lam * norm_w1p(g, Field(grid=g, values=u), params.p) ** params.p
    else:
        w1p_p = 0.0
    return LambdaRecord(
        lam=params.lam,
        energy=parts.total,
        resid_precond=res.residual,
        resid_raw=float(np.sqrt(vol * float(raw @ raw))),
        iterations=res.iterations,
        mass=parts.mass,
        lambda_w1p_p=w1p_p,
        linf=float(np.abs(u).max()),
    )


def continue_to_limit(
    g: Grid,
    potential,
    sched: ContinuationSchedule,
    params: PerturbationParams,
    cfg: MountainPassConfig,
    *,
    seed: Field | None = None,
    deflation_for_stage=None,
    precond: Preconditioner | None = None,
    symmetry: str | None = None,
) -> tuple[Field, SolveReport]:
    """Mountain pass at lambda_start, then warm-started continuation to lam = 0.

    ``deflation_for_stage`` may be a callable stage_index -> deflation
    operator (or None), where stage indices follow the schedule order with
    the final lam = 0 polish last.  Raises CollapseError if the limit field
    is trivial (mass below 1e-6).
    """
    start = time.perf_counter()
    validate_potential(g, potential)
    if precond is None:
        precond = Preconditioner(g, potential)
    vvals = potential.evaluate(g).values
    report = SolveReport()
    lams = sched.lambdas() + [0.0]

    def defl(i: int):
        return deflation_for_stage(i) if deflation_for_stage is not None else None

    par = replace(params, lam=lams[0])
    mp = mountain_pass(
        g, potential, par, cfg, seed=seed, deflation=defl(0), precond=precond,
        symmetry=symmetry,
    )
    u = mp.field.values
    report.m2_estimate = mp.path_max
    report.t0 = mp.t0
    report.restarts = mp.restarts
    report.records.append(_stage_record(g, vvals, u, par, mp.descent))
    report.trajectory.append(mp.field)

    for i, lam in enumerate(lams[1:], start=1):
        par = replace(params, lam=lam)
        res = descend(
            g, potential, Field(grid=g, values=u), par, cfg,
            deflation=defl(i), ray_rescale=True, mass_floor=_MASS_FLOOR,
            precond=precond, symmetry=symmetry,
        )
        if res.collapsed:
            raise CollapseError(f"iterate collapsed to zero at lam={lam:g}")
        if not res.converged:
            extra = " (line search stagnated)" if res.stagnated else ""
            raise ConvergenceFailure(
                f"continuation stage lam={lam:g} stopped at residual "
                f"{res.residual:.3e} after {res.iterations} iterations{extra}"
            )
        u = res.field.values
        report.records.append(_stage_record(g, vvals, u, par, res))
        report.trajectory.append(res.field)

    vol = g.spacing**g.dim
    mass = vol * float((u * u).sum())
    if mass < 1e-6:
        raise CollapseError(f"trivial limit: mass integral {mass:.3e} below 1e-6 (run rejected)")
    parts = _parts_raw(g, vvals, u, replace(params, lam=0.0))
    lhs = parts.grad_sq + parts.v_mass
    report.nehari_margin = abs(lhs - parts.log_int) / (1.0 + abs(lhs))
    report.energy_mass_defect = abs(parts.total - 0.5 * parts.mass)
    report.linf_final = float(np.abs(u).max())
    report.wall_time = time.perf_counter() - start
    return Field(grid=g, values=u), report
