"""The package imports no third-party module beyond numpy and three scipy
modules (ROADMAP item 6), every name it exports exists, and each rule of
the program has one home."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import lse

ALLOWED = {"numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg.lapack"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lse").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Modules named by the absolute imports of one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_third_party_imports_are_numpy_and_three_scipy_modules():
    assert SOURCES
    third_party = {}
    for path in SOURCES:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names:
                third_party.setdefault("numpy" if top == "numpy" else name, []).append(path.name)
    assert "numpy" in third_party
    assert set(third_party) <= ALLOWED, {k: v for k, v in third_party.items() if k not in ALLOWED}


# the only names lse takes from the scipy modules that hold its solvers: one
# sparse LU (SuperLU) and one banded LU (LAPACK)
PINNED = {"scipy.sparse.linalg": {"splu"}, "scipy.linalg.lapack": {"dgbtrf", "dgbtrs"}}


def _names_taken(path: Path) -> dict[str, set[str]]:
    """Per module, the names one source file imports from it or reads as
    attributes of it (through ``import module [as alias]`` bindings)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}  # local name -> the module it is bound to
    taken: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            taken.setdefault(node.module, set()).update(alias.name for alias in node.names)

    def resolve(node) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = resolve(node.value)
            if module:
                taken.setdefault(module, set()).add(node.attr)
    return taken


def test_solver_modules_supply_only_the_two_factorizations():
    taken = {module: set() for module in PINNED}
    for path in SOURCES:
        for module, names in _names_taken(path).items():
            if module in taken:
                taken[module] |= names
    assert taken == PINNED


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only on ``from ... import *``
    missing = []
    for path in SOURCES:
        module = importlib.import_module("lse" if path.stem == "__init__" else f"lse.{path.stem}")
        missing += [f"{module.__name__}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert lse.__all__ and not missing, missing


def test_only_energy_knows_the_perturbation_term():
    # the p-terms' eps and the unregularized W^{1,p} norm they are tested
    # against have one home (ROADMAP item 6)
    readers, definers = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "_GRAD_REG_EPS":
                readers.add(path.name)
            elif isinstance(node, ast.alias) and node.name == "_GRAD_REG_EPS":
                readers.add(path.name)
            elif isinstance(node, ast.FunctionDef) and node.name == "norm_w1p":
                definers.add(path.name)
    assert readers == {"energy.py"} and definers == {"energy.py"}, (readers, definers)


def test_solver_takes_each_derivative_from_energy():
    # the p-term curvature is energy's _p_slope and the log curvature its
    # _log_abs, so lse.solver names no _p_weights and calls no log
    path = next(path for path in SOURCES if path.name == "solver.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and node.id == "_p_weights":
            found.add("_p_weights")
        elif isinstance(node, ast.alias) and node.name == "_p_weights":
            found.add("import _p_weights")
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if name == "log":
                found.add(ast.unparse(node.func))
    assert not found, found


def test_only_grid_knows_the_quotient_layout():
    # folding, the even-n rule and the mirror edge have one home
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "mirror":
                readers.add(path.name)
            elif (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Attribute) and node.left.attr == "points_per_dim"
                and isinstance(node.right, ast.Constant) and node.right.value == 2
            ):
                readers.add(path.name)
    assert readers == {"grid.py"}, readers


def test_only_grid_weighs_points():
    # point integrals and inner products have one home: lse.grid's
    # _integral, _inner and _edge_integral
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "weight":
                readers.add(path.name)
    assert readers == {"grid.py"}, readers


def test_only_verify_defines_checks():
    # every identity and inequality check has one home, lse.verify
    definers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("check_"):
                definers.add(path.name)
    assert definers == {"verify.py"}, definers


# lse.__all__ as it stood before the package re-exported its modules' own
PUBLIC = [
    "CheckResult", "CollapseError", "ConfigError", "ContinuationSchedule", "ConvergenceFailure",
    "DescentResult", "EnergyParts", "Field", "FieldFormatError", "GeometryFailure", "Grid", "Harmonic",
    "LambdaRecord", "MountainPassConfig", "MountainPassResult", "PerturbationParams", "Quartic", "RunSpec",
    "Shifted", "SolveReport", "SolverError", "Tabulated", "check_energy_identity", "check_geometry",
    "check_gradient_fd", "check_linf", "check_log_sobolev", "check_nehari", "check_scaling",
    "continue_to_limit", "descend", "el_gradient", "energy_parts", "find_k_solutions", "log_density",
    "log_nonlin", "main", "make_grid", "mountain_pass", "norm_h1v", "norm_w1p", "parse_config",
    "read_field", "residual_original", "run", "structured_seed", "validate_potential", "write_field",
]


def test_the_package_exports_the_union_of_its_modules():
    # the public API is stated once, in each module's __all__
    modules = [importlib.import_module(f"lse.{path.stem}") for path in SOURCES if not path.stem.startswith("__")]
    assert len(modules) == 6
    union = set().union(*(module.__all__ for module in modules))
    assert lse.__all__ == sorted(union) == PUBLIC


def _calls_by_scope(path: Path, names: set[str]) -> dict[str, set[str]]:
    """Per name, the enclosing ``Class.method`` or ``function`` of each
    call to it in one source file."""
    found: dict[str, set[str]] = {name: set() for name in names}

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in found:
                found[child.func.id].add(scope)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_only_runspec_maps_config_keys_to_their_owners():
    # each key's owner is built in one RunSpec method, which parse_config,
    # run and lse verify all call; read_field builds the grid of a file
    path = next(path for path in SOURCES if path.name == "io_cli.py")
    owners = {"PerturbationParams", "ContinuationSchedule", "MountainPassConfig", "make_grid"}
    assert _calls_by_scope(path, owners) == {
        "PerturbationParams": {"RunSpec.params0"},
        "ContinuationSchedule": {"RunSpec.schedule"},
        "MountainPassConfig": {"RunSpec.descent"},
        "make_grid": {"RunSpec.grid", "read_field"},
    }
