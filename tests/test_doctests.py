import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import permwreath

# Every module of the package, so a new module's doctests cannot be
# skipped without notice.
MODULES = [
    importlib.import_module(f"permwreath.{info.name}")
    for info in pkgutil.iter_modules(permwreath.__path__)
]

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_doctests(mod):
    result = doctest.testmod(mod)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
