"""Basis enumeration for wreath products and the infinite antichain families.

A permutation sits in the basis of a wreath product when it is not a
member but every one-point deletion is: the basis is the set of minimal
non-members.  Membership is closed downward, so a permutation whose
deletion of its maximum is a non-member is itself a non-member and not
minimal.  The scan therefore never visits all of S_n: it keeps the
sorted members of each length and builds the length-n candidates as
their children, by inserting n at every position.  Each parent gets one
full greedy pass; each child re-derives only the greedy blocks around
n, and a child with as many blocks as its parent is a member without a
lookup.  Only a non-member has its other deletions looked up in the
previous length's members.

Next to the members, each length keeps the few of them that lie in the
inner class itself.  A child contains its parent and the inner class is
closed downward, so a child of a parent outside the inner class is
outside it too: its greedy pass is told so and never searches the whole
host for the inner class's basis.  A child of a parent inside the inner
class is inside it exactly when it is one block.

The antichain families are parameterised generators of arbitrarily long
basis elements for specific products, each pairing an outer class with
the inner classes it defeats.  The seven families come from two
constructions: five are one oscillating spine with a tail, and two are
one spiral around a core.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .avoidance import PermClass, member, named
from .perm_core import (
    ONE,
    CapExceeded,
    Permutation,
    _trusted,
    delete_point,
    involves,
)
from .profile import _greedy_blocks, _profile_of, wreath_member

#: Bound on the length of exhaustive basis enumeration.
BASIS_CAP = 11

#: Bound on the points one ``antichain gen`` call builds.
ANTICHAIN_POINTS_CAP = 10**6


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
    prev_inner: set[Permutation],
    *,
    keep_members: bool = True,
) -> tuple[list[Permutation], list[Permutation], set[Permutation]]:
    """One length-n pass of the basis scan, grown from the members below.

    ``prev_members`` is the sorted list of length-(n-1) members of the
    product and ``prev_inner`` the set of those that lie in ``inner``
    itself (both ignored for n = 1).  Every length-n permutation has exactly
    one parent, the deletion of its maximum n, and a permutation whose
    parent is a non-member is a non-member that is not minimal.  So the
    candidates are the children of members: n inserted at each position
    of each member.  A non-member has its other n-1 deletions looked up
    in the parent layer, and it is a basis element when all of them are
    there.

    Each parent mu gets one full greedy pass, the loop of
    ``profile._greedy_blocks``, with the hint that it lies outside
    ``inner`` when it does: that gives its m blocks, their ends and
    their lows.  A
    child pi is mu with n inserted at 0-based index p; let k be the
    parent block that holds index p - 1, or 0 when p = 0.  The child's
    values other than n are the parent's, so a block that misses n has
    the same pattern in both.

    (a) Prefix.  Parent blocks 0..k-1 are the child's first blocks.  A
        child segment from one of their starts that crosses p holds n;
        if it were a block, deleting n would leave a parent interval in
        ``inner`` (closed downward) that reaches index p - 1, past the
        end of that parent block, which the greedy made longest.
    (b) Local re-run.  The same greedy loop runs on the child from the
        start of block k.  When that start is 0 and the parent lies
        outside ``inner``, so does the child, and the first block keeps
        the stop short of the whole host.
    (c) Rejoin.  Once the re-run reaches a start s > p where s - 1 is
        the start of parent block j, the rest of the child is the rest
        of the parent moved one place right: the greedy from s reads
        only positions after n, so the remaining blocks are parent
        blocks j.. shifted by one, with the same lows.

    The child's block count is never below m: deleting n from its
    shortest deflation leaves one of the parent's with as many blocks,
    or one fewer when n is a block alone.

    (d) Same count.  A child with exactly m blocks is a member, with no
        profile and no lookup.  n is not a block alone, or deleting it
        would leave a parent deflation of m - 1 blocks.  So deleting n
        from its block leaves a parent deflation into m blocks from
        ``inner`` with the child's profile.  The shortest profile is
        unique, so that is the profile of the parent, a member, and it
        lies in ``outer``.
    (e) In ``inner``.  A child contains its parent and ``inner`` is
        closed downward, so only a child of a parent in ``inner`` can
        lie in it, and then exactly when its greedy pass is one block:
        the first block is the longest segment from 0 in ``inner``.

    Any other child splices its lows from the parent's prefix, the
    re-run and the parent's tail, and its profile is looked up in
    ``outer``.

    Returns the basis elements of length n in lexicographic order, the
    sorted length-n members (the next pass's parent layer) and the set
    of those members that lie in ``inner``; both are empty when
    ``keep_members`` is false, for the last length of a scan.
    """
    if n == 1:
        # The point is a member only when blocks exist, i.e. it lies in inner.
        if wreath_member(ONE, outer, inner):
            return [], [ONE], {ONE}
        return [ONE], [], set()
    parents = set(prev_members)
    members: list[Permutation] = []
    in_inner: set[Permutation] = set()
    found: list[Permutation] = []
    for mu in prev_members:
        outside = mu not in prev_inner
        pends, plows = _greedy_blocks(mu, inner, outside)
        m = len(plows)
        starts = [0, *(e + 1 for e in pends[:-1])]
        rejoin = {s + 1: j for j, s in enumerate(starts)}
        base = list(mu)
        k = 0
        for p in range(n):
            if p > pends[k] + 1:
                k += 1
            child = base[:p] + [n] + base[p:]
            ends, lows = _greedy_blocks(child, inner, outside, starts[k], rejoin, p)
            j = rejoin.get(ends[-1] + 1, m)
            count = k + len(lows) + m - j
            if count == m or member(_profile_of(plows[:k] + lows + plows[j:], n), outer):
                if keep_members:
                    pi = _trusted(child)
                    members.append(pi)
                    if not outside and count == 1:
                        in_inner.add(pi)
            elif all(
                delete_point(child, q) in parents for q in range(1, n + 1) if q != p + 1
            ):
                found.append(_trusted(child))
    found.sort()
    members.sort()
    return found, members, in_inner


def basis_passes(
    outer: PermClass,
    inner: PermClass,
    max_len: int,
    *,
    done: int = 0,
) -> Iterator[tuple[int, list[Permutation]]]:
    """Yield (n, basis elements of length n) for n = done+1..max_len.

    This is the one basis loop: each length is grown from the previous
    length's members and the set of them in ``inner``, so lengths up to
    ``done`` (already reported, e.g. by a stored run) are rebuilt
    silently when there is anything left to scan.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if done >= max_len:
        return
    members: list[Permutation] = []
    in_inner: set[Permutation] = set()
    for n in range(1, max_len + 1):
        found, members, in_inner = basis_elements_of_length(
            outer, inner, n, members, in_inner, keep_members=n < max_len
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

def _spine(k: int) -> list[int]:
    # 2 5 1 3, then the pairs (2j+3, 2j) for j = 2..k.
    return [2, 5, 1, 3, *(v for j in range(2, k + 1) for v in (2 * j + 3, 2 * j))]


def _thm6(k: int) -> list[int]:
    return _spine(k) + [2 * k + 5, 2 * k + 4, 2 * k + 2]


def _ex2ii(k: int) -> list[int]:
    return _spine(k) + [2 * k + 6, 2 * k + 5, 2 * k + 4, 2 * k + 2]


def _swap_last_two(vals: list[int]) -> list[int]:
    return vals[:-2] + [vals[-1], vals[-2]]


def _ex2iii(k: int) -> list[int]:
    return _swap_last_two(_ex2ii(k))


def _ex3_4321(k: int) -> list[int]:
    # ex2ii with the values 3 and 4 exchanged, as its anchor 25134 -> 25143.
    return [7 - v if v in (3, 4) else v for v in _ex2ii(k)]


def _ex3_4312(k: int) -> list[int]:
    return _swap_last_two(_ex3_4321(k))


def _widdershins(k: int, core: tuple[int, ...]) -> list[int]:
    # The descent pairs the highs 4k+m-1, 4k+m-3, .. with the lows
    # 1, 4, 6, .., 2k; the core (offsets from 2k) follows; the ascent
    # pairs the highs 2k+4+m, 2k+6+m, .. with the lows 2k+1, 2k-1, .., 5;
    # and 2 3 closes the spiral.  m is the length of the core.
    m = len(core)
    descent = zip(range(4 * k + m - 1, 2 * k + m, -2), [1, *range(4, 2 * k + 1, 2)])
    ascent = zip(range(2 * k + 4 + m, 4 * k + m + 1, 2), range(2 * k + 1, 4, -2))
    return [
        *(v for pair in descent for v in pair),
        *(2 * k + c for c in core),
        *(v for pair in ascent for v in pair),
    ] + [2, 3]


def _wid_2413(k: int) -> list[int]:
    return _widdershins(k, (4, 2, 7, 5, 3))


def _wid_2143(k: int) -> list[int]:
    return _widdershins(k, (6, 2, 4, 7, 9, 5, 3))


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


def family_points(family: AntichainFamily, k: int, *, upto: bool = False) -> int:
    """Points in the k-th member of ``family``, or in members 1..k with ``upto``.

    Every family's member length is affine in k: each step of the spine
    adds one pair of points and each turn of the spiral two.  So the
    first two members fix the line, and nothing longer is built.

    >>> family_points(FAMILIES["thm6"], 10**5)
    200005
    """
    first = len(family.generate(1))
    step = len(family.generate(2)) - first
    if upto:
        k = max(k, 0)
        return step * k * (k + 1) // 2 + (first - step) * k
    return first + step * (k - 1)


def check_antichain(perms: Iterable[Sequence[int]]) -> bool:
    """True iff the permutations are pairwise incomparable under involvement."""
    ps = [p if isinstance(p, Permutation) else Permutation(p) for p in perms]
    for a, b in itertools.combinations(ps, 2):
        if involves(a, b) or involves(b, a):
            return False
    return True
