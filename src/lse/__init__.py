"""Variational solver for the logarithmic Schrodinger equation on a box.

Finds critical points of the log-Schrodinger energy by regularising it with
a small W^{1,p} term (p < 2), locating a mountain-pass point of the smooth
perturbed functional, and continuing the solution as the perturbation is
driven to zero.  Distinct solutions are obtained by deflation: already-found
ones enter the saddle-free span that stabilizes each descent, which repels
them.  Every structural identity the construction relies on is exposed as a
named check in :mod:`lse.verify`.
"""

from .energy import (
    EnergyParts,
    Harmonic,
    PerturbationParams,
    Quartic,
    Shifted,
    Tabulated,
    el_gradient,
    energy_parts,
    log_density,
    log_nonlin,
    norm_w1p,
    residual_original,
    validate_potential,
)
from .grid import (
    Field,
    Grid,
    make_grid,
    norm_h1v,
)
from .io_cli import (
    ConfigError,
    FieldFormatError,
    RunSpec,
    main,
    parse_config,
    read_field,
    run,
    write_field,
)
from .multiplicity import find_k_solutions
from .solver import (
    CollapseError,
    ContinuationSchedule,
    ConvergenceFailure,
    DescentResult,
    GeometryFailure,
    LambdaRecord,
    MountainPassConfig,
    MountainPassResult,
    SolveReport,
    SolverError,
    check_geometry,
    continue_to_limit,
    descend,
    mountain_pass,
    structured_seed,
)
from .verify import (
    CheckResult,
    check_energy_identity,
    check_gradient_fd,
    check_linf,
    check_log_sobolev,
    check_nehari,
    check_scaling,
)

__all__ = [
    "CheckResult",
    "CollapseError",
    "ConfigError",
    "ContinuationSchedule",
    "ConvergenceFailure",
    "DescentResult",
    "EnergyParts",
    "Field",
    "FieldFormatError",
    "GeometryFailure",
    "Grid",
    "Harmonic",
    "LambdaRecord",
    "MountainPassConfig",
    "MountainPassResult",
    "PerturbationParams",
    "Quartic",
    "RunSpec",
    "Shifted",
    "SolveReport",
    "SolverError",
    "Tabulated",
    "check_energy_identity",
    "check_geometry",
    "check_gradient_fd",
    "check_linf",
    "check_log_sobolev",
    "check_nehari",
    "check_scaling",
    "continue_to_limit",
    "descend",
    "el_gradient",
    "energy_parts",
    "find_k_solutions",
    "log_density",
    "log_nonlin",
    "main",
    "make_grid",
    "mountain_pass",
    "norm_h1v",
    "norm_w1p",
    "parse_config",
    "read_field",
    "residual_original",
    "run",
    "structured_seed",
    "validate_potential",
    "write_field",
]

__version__ = "0.1.0"
