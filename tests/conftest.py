import itertools
from functools import lru_cache

import pytest

from permwreath.perm_core import Permutation, parse_perm
from permwreath.perm_core import _trusted


@lru_cache(maxsize=None)
def perms_of_length(n: int) -> tuple[Permutation, ...]:
    """Every permutation of length n, lexicographic order."""
    return tuple(
        _trusted(vals) for vals in itertools.permutations(range(1, n + 1))
    )


def perms_up_to(n: int):
    for m in range(1, n + 1):
        yield from perms_of_length(m)


def p(text: str) -> Permutation:
    return parse_perm(text)


def value_positions(pi) -> list[int]:
    """The value-indexed positions the pin kernels read: ``pos_of[v]`` is
    the position of v in ``pi``, and index 0 is unused."""
    pos_of = [0] * (len(pi) + 1)
    for q, v in enumerate(pi, start=1):
        pos_of[v] = q
    return pos_of


@pytest.fixture
def mk():
    return p
