"""Count the code lines of each module under ``src/`` and ``tests/``.

A code line is a line of source that is not blank, not a comment and not
part of a docstring (the string that opens a module, class or function).
Lines inside any other multi-line string are code.  The count depends on
nothing but the files, so anyone can reproduce a figure quoted for a
change:

    python tools/code_lines.py

It prints one line per module under ``src/``, then their total, then
one line per ``tests/*.py`` file and a ``tests total`` line.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _string_interior_lines(tree: ast.AST) -> set[int]:
    # Lines after the first of a multi-line string: a "#" or a blank
    # there is text, not a comment or a blank line.
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno:
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    inside = _string_interior_lines(tree) - docs
    count = 0
    for number, text in enumerate(source.splitlines(), start=1):
        if number in docs:
            continue
        stripped = text.strip()
        if number in inside or (stripped and not stripped.startswith("#")):
            count += 1
    return count


def _print_block(modules, label: str) -> None:
    total = 0
    for module in sorted(modules):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {module.relative_to(ROOT)}")
    print(f"{total:6d}  {label}")


def main() -> None:
    _print_block((ROOT / "src").rglob("*.py"), "total")
    _print_block((ROOT / "tests").glob("*.py"), "tests total")


if __name__ == "__main__":
    main()
