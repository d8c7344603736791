import doctest
from pathlib import Path

import pytest

import permwreath.avoidance
import permwreath.basis_search
import permwreath.blocks_pins
import permwreath.cli
import permwreath.decomposition
import permwreath.perm_core
import permwreath.profile

MODULES = [
    permwreath.perm_core,
    permwreath.decomposition,
    permwreath.avoidance,
    permwreath.profile,
    permwreath.blocks_pins,
    permwreath.basis_search,
    permwreath.cli,
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
