"""Basis enumeration for wreath products and the infinite antichain families.

A permutation sits in the basis of a wreath product when it is not a
member but every one-point deletion is: the basis is the set of minimal
non-members.  Membership is closed downward, so a permutation whose
deletion of its maximum is a non-member is itself a non-member and not
minimal.  The scan therefore never visits all of S_n: it keeps the
sorted members of each length and builds the length-n candidates as
their children, by inserting n at every position.  Each candidate gets
one greedy membership test; only a non-member has its other deletions
looked up in the previous length's members.

The antichain families are parameterised generators of arbitrarily long
basis elements for specific products, each pairing an outer class with
the inner classes it defeats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .avoidance import PermClass, named
from .perm_core import (
    ONE,
    CapExceeded,
    Permutation,
    _trusted,
    delete_point,
    involves,
)
from .profile import wreath_member

#: Bound on the length of exhaustive basis enumeration.
BASIS_CAP = 11


@dataclass(frozen=True)
class BasisRecord:
    """A discovered minimal non-member of a wreath product."""

    perm: Permutation
    x_basis: tuple[Permutation, ...]
    y_basis: tuple[Permutation, ...]
    length: int


def _record(pi: Permutation, outer: PermClass, inner: PermClass) -> BasisRecord:
    return BasisRecord(pi, outer.basis, inner.basis, len(pi))


def basis_elements_of_length(
    outer: PermClass,
    inner: PermClass,
    n: int,
    prev_members: Sequence[Permutation],
    *,
    keep_members: bool = True,
) -> tuple[list[Permutation], list[Permutation]]:
    """One length-n pass of the basis scan, grown from the members below.

    ``prev_members`` is the sorted list of length-(n-1) members of the
    product (ignored for n = 1).  Every length-n permutation has exactly
    one parent, the deletion of its maximum n, and a permutation whose
    parent is a non-member is a non-member that is not minimal.  So the
    candidates are the children of members: n inserted at each position
    of each member.  A candidate is tested with :func:`wreath_member`
    first; only a non-member has its other n-1 deletions looked up in
    the parent layer, and it is a basis element when all of them are
    there.

    Returns the basis elements of length n in lexicographic order and
    the sorted length-n members, the next pass's parent layer (empty
    when ``keep_members`` is false, for the last length of a scan).
    """
    if n == 1:
        if wreath_member(ONE, outer, inner):
            return [], [ONE]
        return [ONE], []
    parents = set(prev_members)
    members: list[Permutation] = []
    found: list[Permutation] = []
    for mu in prev_members:
        base = list(mu)
        for p in range(n):
            pi = _trusted(base[:p] + [n] + base[p:])
            if wreath_member(pi, outer, inner):
                if keep_members:
                    members.append(pi)
            elif all(
                delete_point(pi, q) in parents for q in range(1, n + 1) if q != p + 1
            ):
                found.append(pi)
    found.sort()
    members.sort()
    return found, members


def basis_passes(
    outer: PermClass,
    inner: PermClass,
    max_len: int,
    *,
    done: int = 0,
) -> Iterator[tuple[int, list[Permutation]]]:
    """Yield (n, basis elements of length n) for n = done+1..max_len.

    This is the one basis loop: each length is grown from the previous
    length's members, so lengths up to ``done`` (already reported, e.g.
    by a stored run) are rebuilt silently when there is anything left to
    scan.
    """
    if done >= max_len:
        return
    members: list[Permutation] = []
    for n in range(1, max_len + 1):
        found, members = basis_elements_of_length(
            outer, inner, n, members, keep_members=n < max_len
        )
        if n > done:
            yield n, found


def wreath_basis(
    outer: PermClass,
    inner: PermClass,
    max_len: int,
) -> list[BasisRecord]:
    """All basis elements of the wreath product up to ``max_len``.

    Ascending by (length, lexicographic order).

    >>> from .avoidance import av
    >>> [r.perm for r in wreath_basis(av(21), av(21), 5)]
    [Permutation([2, 1])]
    """
    if max_len > BASIS_CAP:
        raise CapExceeded(f"max_len {max_len} exceeds the cap {BASIS_CAP}")
    return [
        _record(p, outer, inner)
        for _, found in basis_passes(outer, inner, max_len)
        for p in found
    ]


@dataclass(frozen=True)
class VerifyResult:
    """Verdict on a claimed basis element, with the failure witness."""

    ok: bool
    reason: str
    deleted_position: int | None = None
    witness: Permutation | None = None

    def __bool__(self) -> bool:
        return self.ok


def _live(cls: PermClass, pi: Permutation) -> PermClass:
    """The class whose basis is the elements of ``cls.basis`` that ``pi`` involves."""
    return PermClass(tuple(b for b in cls.basis if involves(b, pi)))


def verify_basis_element(
    pi: Sequence[int], outer: PermClass, inner: PermClass
) -> VerifyResult:
    """Check that ``pi`` is minimally outside the wreath product.

    True requires pi itself to be a non-member while every one-point
    deletion is a member; a failed check names the offending deletion
    or reports that pi is a member.

    Every permutation that ``wreath_member(d, outer, inner)`` tests --
    the blocks grown by the greedy profile and the profile itself -- is
    a pattern of ``d``, and so of ``pi`` when ``d`` is ``pi`` or one of
    its deletions.  Avoidance is inherited by patterns: a basis element
    that ``pi`` avoids is avoided by all of them, and testing for it is
    wasted work.  So each class is first cut down to its live basis, the
    elements ``pi`` involves, and every membership test runs on the cut
    classes.  The verdict is exact.  A sub-basis of an antichain is an
    antichain, so the cut classes need no normalisation; an empty live
    basis is the class of all permutations, and a block class that
    excludes the point keeps the point live, since every ``pi`` involves
    it.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    outer, inner = _live(outer, pi), _live(inner, pi)
    if wreath_member(pi, outer, inner):
        return VerifyResult(False, "the permutation is a member of the product")
    if len(pi) > 1:
        for pos in range(1, len(pi) + 1):
            d = delete_point(pi, pos)
            if not wreath_member(d, outer, inner):
                return VerifyResult(
                    False,
                    f"deleting position {pos} leaves a non-member",
                    deleted_position=pos,
                    witness=d,
                )
    return VerifyResult(True, "minimal non-member")


# --- antichain families -----------------------------------------------

def _interleave(highs: list[int], lows: list[int]) -> list[int]:
    out = []
    for h, l in zip(highs, lows):
        out.extend((h, l))
    return out


def _thm6(k: int) -> list[int]:
    if k == 1:
        return [2, 5, 1, 3, 7, 6, 4]
    mid = _interleave(
        [2 * j + 3 for j in range(3, k + 1)], [2 * j for j in range(3, k + 1)]
    )
    return [2, 5, 1, 3, 7, 4, *mid, 2 * k + 5, 2 * k + 4, 2 * k + 2]


def _tail4(k: int) -> list[int]:
    return [2 * k + 6, 2 * k + 5, 2 * k + 4, 2 * k + 2]


def _ex2ii(k: int) -> list[int]:
    if k == 1:
        return [2, 5, 1, 3, 8, 7, 6, 4]
    mid = _interleave(
        [2 * j + 3 for j in range(3, k + 1)], [2 * j for j in range(3, k + 1)]
    )
    return [2, 5, 1, 3, 7, 4, *mid, *_tail4(k)]


def _swap_last_two(vals: list[int]) -> list[int]:
    return vals[:-2] + [vals[-1], vals[-2]]


def _ex2iii(k: int) -> list[int]:
    return _swap_last_two(_ex2ii(k))


def _ex3_4321(k: int) -> list[int]:
    if k == 1:
        return [2, 5, 1, 4, 8, 7, 6, 3]
    mid = _interleave(
        [2 * j + 3 for j in range(3, k + 1)], [2 * j for j in range(3, k + 1)]
    )
    return [2, 5, 1, 4, 7, 3, *mid, *_tail4(k)]


def _ex3_4312(k: int) -> list[int]:
    return _swap_last_two(_ex3_4321(k))


def _wid_2413(k: int) -> list[int]:
    descent = _interleave(
        list(range(4 * k + 4, 2 * k + 5, -2)),
        [1] + list(range(4, 2 * k + 1, 2)),
    )
    middle = [2 * k + 4, 2 * k + 2, 2 * k + 7, 2 * k + 5, 2 * k + 3]
    ascent = _interleave(
        list(range(2 * k + 9, 4 * k + 6, 2)),
        list(range(2 * k + 1, 4, -2)),
    )
    return [*descent, *middle, *ascent, 2, 3]


def _wid_2143(k: int) -> list[int]:
    descent = _interleave(
        list(range(4 * k + 6, 2 * k + 7, -2)),
        [1] + list(range(4, 2 * k + 1, 2)),
    )
    middle = [
        2 * k + 6,
        2 * k + 2,
        2 * k + 4,
        2 * k + 7,
        2 * k + 9,
        2 * k + 5,
        2 * k + 3,
    ]
    ascent = _interleave(
        list(range(2 * k + 11, 4 * k + 8, 2)),
        list(range(2 * k + 1, 4, -2)),
    )
    return [*descent, *middle, *ascent, 2, 3]


@dataclass(frozen=True)
class AntichainFamily:
    """A generator of arbitrarily long basis elements for X wr Y.

    ``outer`` is the class supplying the anchor pattern; ``inners`` are
    the block classes the family defeats (the first is canonical).
    """

    name: str
    generate: Callable[[int], list[int]]
    outer: PermClass
    inners: tuple[PermClass, ...]

    @property
    def inner(self) -> PermClass:
        return self.inners[0]


def _family(name, gen, outer_name, inner_names) -> AntichainFamily:
    return AntichainFamily(
        name, gen, named(outer_name), tuple(named(s) for s in inner_names)
    )


FAMILIES: dict[str, AntichainFamily] = {
    f.name: f
    for f in (
        _family("thm6", _thm6, "av25134", ("av321", "av321-2341", "av321-3412")),
        _family(
            "ex2ii",
            _ex2ii,
            "av25134",
            (
                "av4321-4312",
                "av4321-4231",
                "av4321-4213",
                "av4321-3412",
                "av4321-3214",
            ),
        ),
        _family(
            "ex2iii",
            _ex2iii,
            "av25134",
            ("av4312-4231", "av4312-4213", "av4312-3421"),
        ),
        _family("ex3-4321-4123", _ex3_4321, "av25143", ("av4321-4123",)),
        _family("ex3-4312-4123", _ex3_4312, "av25143", ("av4312-4123",)),
        _family("widdershins-2413", _wid_2413, "av31542", ("av3412-2413",)),
        _family("widdershins-2143", _wid_2143, "av412563", ("av3412-2143",)),
    )
}


def antichain_member(family: str | AntichainFamily, k: int) -> Permutation:
    """The k-th member of an antichain family (k from 1).

    >>> str(antichain_member("thm6", 1))
    '2 5 1 3 7 6 4'
    """
    if isinstance(family, str):
        try:
            family = FAMILIES[family]
        except KeyError:
            known = ", ".join(sorted(FAMILIES))
            raise ValueError(
                f"unknown family {family!r}; known: {known}"
            ) from None
    if k < 1:
        raise ValueError("family members are indexed from 1")
    return Permutation(family.generate(k))


def check_antichain(perms: Iterable[Sequence[int]]) -> bool:
    """True iff the permutations are pairwise incomparable under involvement."""
    ps = [p if isinstance(p, Permutation) else Permutation(p) for p in perms]
    for a, b in itertools.combinations(ps, 2):
        if involves(a, b) or involves(b, a):
            return False
    return True
