"""The package imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permwreath"
MODULES = sorted(PACKAGE.rglob("*.py"))


def absolute_imports(source: str) -> list[str]:
    """The module names of every absolute import in ``source``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_is_checked():
    assert "perm_core.py" in {path.name for path in MODULES}
    assert absolute_imports("import numpy.linalg\nfrom .x import y\nfrom a.b import c") == [
        "numpy.linalg",
        "a.b",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    for name in absolute_imports(path.read_text(encoding="utf-8")):
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names or top == "permwreath", name
