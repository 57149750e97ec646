"""The package imports no third-party module beyond numpy and three scipy
modules (ROADMAP item 6)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

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
