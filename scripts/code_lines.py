#!/usr/bin/env python3
"""Count the code lines of each module of the ``lse`` package.

A code line is a line of a module under ``src/lse`` that is not blank, not
a comment alone and not part of a docstring (the leading string of a
module, class or function body).  Prints one ``<module> <lines>`` row per
module, in name order, then ``total <lines>``; so "src/ did not grow"
is one number that two checkouts compare.

Usage:
    python3 scripts/code_lines.py
    python3 scripts/code_lines.py --src path/to/src/lse
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lse"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of one source file that are not blank, a comment or a docstring."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="package directory (default: this checkout's src/lse)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
