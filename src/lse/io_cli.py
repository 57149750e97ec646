"""Config parsing, field persistence, run orchestration, and the CLI.

The configuration format is flat ``key=value`` lines with ``#`` comments; the
key set is fixed and validated eagerly so a bad run dies before any compute.
``parse_config`` parses each value by the type its ``RunSpec`` field
declares, in field order, and checks the two ranges no object owns
(``_MINIMUM``); the range of a grid, ``p``, schedule or descent key is
checked by the object that owns it, which the ``RunSpec`` method of that
object builds (the one place a key maps to its owner's argument) and whose
ValueError it reports as a ConfigError naming the keys.  ``run`` and ``lse
verify`` build their objects through the same methods and share one path:
``_setup`` (grid and validated potential, or ``FAIL config``),
``_run_checks`` and ``_failed_gate`` (``FAIL verify``), so a config defect
fails both commands at the same stage with one line.

Every stage fails through one channel.  A failed stage raises ``_Failure``
with its stage and detail; ``_stage(name, *expected)`` turns the exceptions
a stage expects into its failure and lets every other exception through.
``_exit_code``, which ``run`` and ``main`` alone call, prints the failure
as the ``FAIL <stage> <detail>`` line, last on stderr, and returns 1.

Field files use the self-describing ``LSEF1`` layout: a magic line, a header
line ``dim points half_width``, then the raw little-endian float64 payload in
row-major order.  All output files are written to a temporary file in the
destination directory and renamed into place, so readers never observe a
partial file.

CSV and plot-data emission formats every float with ``repr``, which in
CPython is the shortest decimal that round-trips; identical runs therefore
produce byte-identical diagnostics.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .energy import (
    Harmonic,
    PerturbationParams,
    Quartic,
    Shifted,
    Tabulated,
    validate_potential,
)
from .grid import Field, Grid, _require_same_grid, make_grid, norm_h1v
from .multiplicity import find_k_solutions
from .solver import ContinuationSchedule, MountainPassConfig, SolverError
from .verify import CheckResult, check_energy_identity, check_gradient_fd, check_linf, check_log_sobolev, check_nehari, check_scaling

__all__ = [
    "ConfigError",
    "FieldFormatError",
    "RunSpec",
    "parse_config",
    "write_field",
    "read_field",
    "run",
    "main",
]

_EMIT_CHOICES = frozenset({"fields", "diagnostics", "plotdata", "checks"})

#: Checks whose failure makes a run exit nonzero.  The other checks of
#: ``_run_checks`` are still run and recorded, but only advise.
_GATE_CHECKS = ("nehari", "energy_identity", "linf")

#: Columns of one check, as ``lse verify`` prints it and as ``checks.csv``
#: lists it after the solution index ``j``.
_CHECK_HEADER = "check_name,margin,tolerance,pass"

_MAGIC = b"LSEF1\n"


class ConfigError(ValueError):
    """A configuration line violates the schema or a value is out of domain."""


class FieldFormatError(ValueError):
    """A field file does not conform to the LSEF1 layout."""


@dataclass(frozen=True)
class RunSpec:
    """Fully validated run description, as ``parse_config`` returns it:
    each field satisfies the preconditions of the object that owns it.
    The methods below build those objects, the one place a key maps to
    its owner's argument; each field's annotation is the type
    ``parse_config`` reads its key as."""

    dim: int
    half_width: float
    points: int
    potential: str
    p: float
    lambda_start: float
    lambda_ratio: float
    lambda_min: float
    tol_grad: float
    max_outer: int
    k_solutions: int
    rng_seed: int
    output_dir: str
    emit: frozenset[str]

    def grid(self) -> Grid:
        return make_grid(self.dim, self.half_width, self.points)

    def params0(self) -> PerturbationParams:
        """The lam = 0 params: the solve takes each lam from the schedule,
        so one lam = 0 params serves it and the checks."""
        return PerturbationParams(lam=0.0, p=self.p)

    def schedule(self) -> ContinuationSchedule:
        return ContinuationSchedule(lambda_start=self.lambda_start, ratio=self.lambda_ratio, lambda_min=self.lambda_min)

    def descent(self) -> MountainPassConfig:
        return MountainPassConfig(descent_tol=self.tol_grad, max_outer=self.max_outer)


# ---------------------------------------------------------------------------
# configuration

_CONFIG_KEYS = tuple(f.name for f in fields(RunSpec))


#: Least values of the integer keys whose range no owner checks.
_MINIMUM = {"k_solutions": 1, "rng_seed": 0}


def _parse_int(key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ConfigError(f"key {key!r}: must be >= {_MINIMUM[key]}, got {value}")
    return value


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a real number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


#: The parser of each ``RunSpec`` field's declared type, but ``emit``'s.
_PARSERS = {"int": _parse_int, "float": _parse_float, "str": lambda key, raw: raw}


def _check_owned(keys: tuple[str, ...], owner) -> None:
    """Build ``owner()``, the object that checks the ranges of ``keys``,
    and turn its ValueError into a ConfigError naming them."""
    try:
        owner()
    except ValueError as exc:
        names = ", ".join(map(repr, keys))
        raise ConfigError(f"key{'s' if len(keys) > 1 else ''} {names}: {exc}") from None


def build_potential(desc: str):
    """Parse a potential descriptor and instantiate the potential it names.

    Raises ConfigError on a malformed descriptor.  Touches no file: a
    tabulated potential reads its field file when first evaluated.
    """
    head, _, rest = desc.partition(":")
    if head in ("harmonic", "quartic"):
        if not rest:
            raise ConfigError(f"key 'potential': {head} needs a coefficient, e.g. {head}:2.0")
        coeff = _parse_float("potential", rest)
        if coeff <= 0.0:
            raise ConfigError(f"key 'potential': {head} coefficient must be positive, got {coeff}")
        return Harmonic(coeff) if head == "harmonic" else Quartic(coeff)
    if head == "shifted":
        base, sep, shift = rest.rpartition(":")
        if not sep or not base:
            raise ConfigError(
                "key 'potential': shifted form is shifted:<base>:<offset>, e.g. shifted:harmonic:2.0:+1.0"
            )
        offset = _parse_float("potential", shift)
        return Shifted(build_potential(base), offset)
    if head == "tabulated":
        if not rest:
            raise ConfigError("key 'potential': tabulated form is tabulated:<field-file>")
        return Tabulated(path=rest)
    raise ConfigError(
        f"key 'potential': unknown family {head!r}; "
        "expected harmonic:<a>, quartic:<c>, shifted:<base>:<offset>, or tabulated:<path>"
    )


def parse_config(text: str) -> RunSpec:
    """Parse flat ``key=value`` configuration text into a validated RunSpec.

    ``#`` starts a comment (full-line or trailing); every key in the schema
    is required and unknown keys are rejected, so typos fail loudly.
    """
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    missing = [key for key in _CONFIG_KEYS if key not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")

    emit = [token.strip() for token in values["emit"].split(",")] if values["emit"] else []
    spec = RunSpec(
        **{f.name: _PARSERS[f.type](f.name, values[f.name]) for f in fields(RunSpec) if f.name != "emit"},
        emit=frozenset(emit),
    )
    _check_owned(("dim", "half_width", "points"), spec.grid)
    build_potential(spec.potential)
    _check_owned(("p",), spec.params0)
    _check_owned(("lambda_start", "lambda_ratio", "lambda_min"), spec.schedule)
    _check_owned(("tol_grad", "max_outer"), spec.descent)
    if not spec.output_dir:
        raise ConfigError("key 'output_dir': must be a nonempty path")
    for token in emit:
        if token not in _EMIT_CHOICES:
            raise ConfigError(f"key 'emit': unknown target {token!r}; allowed: {', '.join(sorted(_EMIT_CHOICES))}")
    return spec


# ---------------------------------------------------------------------------
# LSEF1 field files


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def write_field(path: str, u: Field) -> None:
    """Persist a field, with the header of its own grid, in the LSEF1
    layout (atomic rename on completion)."""
    g = u.grid
    header = f"{g.dim} {g.points_per_dim} {float(g.half_width)!r}\n".encode("ascii")
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    _atomic_write_bytes(path, _MAGIC + header + payload)


def read_field(path: str) -> tuple[Grid, Field]:
    """Read an LSEF1 field file back into a (grid, field) pair, bit-exact."""
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FieldFormatError(f"bad magic: expected {_MAGIC!r}, got {magic!r}")
        header = handle.readline()
        tokens = header.split()
        if len(tokens) != 3:
            raise FieldFormatError(f"malformed header line: {header!r}")
        try:
            dim = int(tokens[0])
            points = int(tokens[1])
            half_width = float(tokens[2])
        except ValueError:
            raise FieldFormatError(f"malformed header line: {header!r}") from None
        try:
            g = make_grid(dim, half_width, points)
        except ValueError as exc:
            raise FieldFormatError(f"dimension mismatch: {exc}") from None
        expected = points**dim * 8
        data = handle.read()
    if len(data) < expected:
        raise FieldFormatError(f"truncated payload: expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise FieldFormatError(f"trailing data after payload: expected {expected} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<f8")
    return g, Field(grid=g, values=values)


# ---------------------------------------------------------------------------
# orchestration


class _Failure(Exception):
    """A failed stage: ``_Failure(stage, detail)`` is the line
    ``FAIL <stage> <detail>``."""


@contextmanager
def _stage(name: str, *expected: type[Exception]):
    """Raise an ``expected`` exception of the block as a ``_Failure`` of
    stage ``name``, with the exception's text as its detail."""
    try:
        yield
    except expected as exc:
        raise _Failure(name, str(exc)) from exc


def _exit_code(command, *args) -> int:
    """Call ``command(*args)``: 0, or 1 after printing the ``FAIL`` line of
    the stage that failed (always last on stderr)."""
    try:
        command(*args)
    except _Failure as failure:
        stage, detail = failure.args
        print(f"FAIL {stage} {detail}", file=sys.stderr)
        return 1
    return 0


def _setup(spec: RunSpec) -> tuple[Grid, object]:
    """The run's grid and validated potential; ``FAIL config`` when they
    cannot be built: an unreadable or mismatched tabulated file, V not
    positive or not finite on the grid, or a grid too large to allocate."""
    with _stage("config", ValueError, OSError, MemoryError):
        g = spec.grid()
        potential = build_potential(spec.potential)
        validate_potential(g, potential)
    return g, potential


def _run_checks(g: Grid, potential, to_check: list[Field], spec: RunSpec) -> list[list[CheckResult]]:
    """Every check of each field at the run's lam = 0 params, in the order
    ``checks.csv`` and ``lse verify`` list them; ``FAIL verify`` when a
    check cannot be computed.

    The gradient check depends on the run, not on a field (its fields are
    random draws seeded by ``rng_seed``), so it runs once and every field
    lists its result."""
    params0 = spec.params0()
    with _stage("verify", ValueError, MemoryError):
        gradient = check_gradient_fd(g, potential, params0, trials=10, rng_seed=spec.rng_seed)
        return [
            [
                check_nehari(g, potential, u, tolerance=20.0 * spec.tol_grad * norm_h1v(g, potential, u)),
                check_energy_identity(g, potential, u, params0),
                check_scaling(g, potential, u, 0.3),
                check_log_sobolev(g, u, 1.0),
                check_linf(u),
                gradient,
            ]
            for u in to_check
        ]


def _failed_gate(all_checks: list[list[CheckResult]], what: str) -> None:
    """``FAIL verify`` for the first field, in order, that fails a check of
    ``_GATE_CHECKS``; ``what`` names field j, e.g. ``"solution {j}"``."""
    for j, results in enumerate(all_checks, start=1):
        named = {res.name: res for res in results}
        res = next((named[gate] for gate in _GATE_CHECKS if not named[gate].passed), None)
        if res is not None:
            raise _Failure(
                "verify",
                f"{what.format(j=j)} failed {res.name} (margin={res.margin!r}, tolerance={res.tolerance!r})",
            )


def _diagnostics_text(solutions) -> str:
    lines = ["j,lambda,energy,resid_precond,resid_raw,iters,mass,lambda_w1p_p,linf"]
    for j, (_, _, report) in enumerate(solutions, start=1):
        for rec in report.records:
            lines.append(
                f"{j},{rec.lam!r},{rec.energy!r},{rec.resid_precond!r},{rec.resid_raw!r},"
                f"{rec.iterations},{rec.mass!r},{rec.lambda_w1p_p!r},{rec.linf!r}"
            )
    return "\n".join(lines) + "\n"


def _check_row(res: CheckResult) -> str:
    """One check as a row under ``_CHECK_HEADER``."""
    return f"{res.name},{res.margin!r},{res.tolerance!r},{int(res.passed)}"


def _checks_text(all_checks: list[list[CheckResult]]) -> str:
    lines = ["j," + _CHECK_HEADER]
    for j, results in enumerate(all_checks, start=1):
        lines.extend(f"{j},{_check_row(res)}" for res in results)
    return "\n".join(lines) + "\n"


def _plotdata_text(solutions) -> str:
    blocks = []
    for j, (_, _, report) in enumerate(solutions, start=1):
        rows = [f"# solution {j}"]
        rows.extend(f"{rec.lam!r} {rec.energy!r}" for rec in report.records)
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def run(spec: RunSpec, *, quiet: bool = False) -> int:
    """Execute the full solve described by ``spec`` and emit its artifacts.

    Exit code 0 requires all k solutions to be found and every accepted
    solution to pass the gate checks (nehari, energy_identity, linf).  A
    stage that runs out of memory (a grid too large to allocate) fails
    with that stage's ``FAIL`` line, like any other error of it.
    """
    return _exit_code(_solve, spec, quiet)


def _solve(spec: RunSpec, quiet: bool) -> None:
    """``run``'s stages, each raising its ``_Failure``."""
    g, potential = _setup(spec)
    with _stage("io", OSError):
        os.makedirs(spec.output_dir, exist_ok=True)
    with _stage("solve", SolverError, ValueError, MemoryError):
        solutions = find_k_solutions(g, potential, spec.schedule(), spec.params0(), spec.descent(), spec.k_solutions)
    if len(solutions) < spec.k_solutions:
        raise _Failure("solve", f"found {len(solutions)} of {spec.k_solutions} requested solutions")

    all_checks = _run_checks(g, potential, [u for u, _, _ in solutions], spec)
    with _stage("io", OSError):
        if "fields" in spec.emit:
            for j, (u, _, _) in enumerate(solutions, start=1):
                write_field(os.path.join(spec.output_dir, f"u_{j}.lsef"), u)
        if "diagnostics" in spec.emit:
            _atomic_write_text(os.path.join(spec.output_dir, "diagnostics.csv"), _diagnostics_text(solutions))
        if "checks" in spec.emit:
            _atomic_write_text(os.path.join(spec.output_dir, "checks.csv"), _checks_text(all_checks))
        if "plotdata" in spec.emit:
            _atomic_write_text(os.path.join(spec.output_dir, "energy_vs_lambda.dat"), _plotdata_text(solutions))

    if not quiet:
        for j, ((_, energy, report), results) in enumerate(zip(solutions, all_checks), start=1):
            verdict = "pass" if all(r.passed for r in results) else "CHECK FAILURES"
            print(
                f"solution {j}: energy={energy!r} "
                f"resid_raw={report.records[-1].resid_raw!r} checks={verdict}"
            )
    _failed_gate(all_checks, "solution {j}")


# ---------------------------------------------------------------------------
# CLI


def _load_spec(config_path: str, output_dir: str | None = None) -> RunSpec:
    """The config file's RunSpec; ``FAIL io`` or ``FAIL config`` when it
    cannot be read or parsed."""
    with _stage("io", OSError), _stage("config", ConfigError):
        with open(config_path, "r", encoding="utf-8") as handle:
            spec = parse_config(handle.read())
    return spec if output_dir is None else replace(spec, output_dir=output_dir)


def _cmd_solve(args: argparse.Namespace) -> None:
    _solve(_load_spec(args.config, args.output_dir), args.quiet)


def _cmd_verify(args: argparse.Namespace) -> None:
    spec = _load_spec(args.config)
    g, potential = _setup(spec)
    with _stage("io", OSError, FieldFormatError):
        _, u = read_field(args.field)
    with _stage("config", ValueError):
        _require_same_grid(g, u)
    all_checks = _run_checks(g, potential, [u], spec)
    if not args.quiet:
        print(_CHECK_HEADER)
        for res in all_checks[0]:
            print(_check_row(res))
    _failed_gate(all_checks, "field")


def _cmd_info(args: argparse.Namespace) -> None:
    with _stage("io", OSError, FieldFormatError):
        g, u = read_field(args.field)
    print(f"dim={g.dim}")
    print(f"points={g.points_per_dim}")
    print(f"half_width={float(g.half_width)!r}")
    print(f"values={u.values.size}")
    print(f"min={float(u.values.min())!r}")
    print(f"max={float(u.values.max())!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lse",
        description="Variational solver and invariant checks for the logarithmic "
        "Schrodinger equation on a truncated box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation solver from a config file")
    p_solve.add_argument("config", help="path to a key=value config file")
    p_solve.add_argument("--output-dir", default=None, help="override output_dir from the config")
    p_solve.add_argument("--quiet", action="store_true", help="suppress the per-solution summary")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run the invariant checks on an existing field file")
    p_verify.add_argument("field", help="path to an LSEF1 field file")
    p_verify.add_argument("config", help="config supplying the potential and parameters")
    p_verify.add_argument("--quiet", action="store_true", help="suppress the per-check table")
    p_verify.set_defaults(func=_cmd_verify)

    p_info = sub.add_parser("info", help="print the header of a field file")
    p_info.add_argument("field", help="path to an LSEF1 field file")
    p_info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    if not getattr(args, "quiet", False):
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    return _exit_code(args.func, args)
