"""Deflations with blocks from a class, and wreath-product membership.

The wreath product of two classes holds every inflation of a member of
the outer class by members of the inner class.  Testing membership does
not require trying every decomposition: contracting blocks greedily from
the left yields a shortest deflation whose blocks lie in the inner
class, and a permutation belongs to the wreath product exactly when
that deflation belongs to the outer class.  The shortest deflation's
profile is unique, but its segmentation need not be: with the inner
class ``av(123)``, 123 splits as [12][3] or as [1][23], and both have
the profile 12.  The greedy takes the leftmost longest block each time.

A block here is always an interval of the host: consecutive positions
carrying consecutive values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Sequence

from .avoidance import PermClass, member
from .perm_core import (
    CapExceeded,
    Permutation,
    _trusted,
    inflate,
    interval_end_table,
    reduce,
)

#: Bound on the brute-force deflation scan (2^(n-1) segmentations).
DEFLATION_CAP = 10


@dataclass(frozen=True)
class ProfileDecomposition:
    """A host written as profile[block, block, ...] with blocks in a class.

    ``segments`` are 1-based inclusive (start, end) position ranges that
    partition the host into consecutive runs; each is an interval of the
    host and reduces to the corresponding entry of ``block_patterns``.
    """

    profile: Permutation
    segments: tuple[tuple[int, int], ...]
    block_patterns: tuple[Permutation, ...]


def _greedy_blocks(
    pi: Sequence[int],
    inner: PermClass,
    outside_inner: bool,
    start: int = 0,
    rejoin: Container[int] = (),
    inserted: int = -1,
) -> tuple[list[int], list[int]]:
    """The left-greedy blocks of ``pi``: their 0-based last positions and lows.

    Each block is the longest segment starting at the current position
    that is an interval of the host and whose pattern lies in ``inner``;
    a singleton always qualifies.  The valid block ends from a fixed
    start form a prefix of the ascending interval ends: a longer
    interval with the same start contains the shorter one, and
    ``inner`` is closed downward.  So each block grows upward and stops
    at the first interval whose pattern leaves ``inner``.  A block's
    values are consecutive, so its pattern is simply ``v - min + 1``.

    Two exits skip work without changing a block:

    * The span ``hi - lo`` of the values seen from start s only grows
      as the segment grows, and a segment s..e is an interval exactly
      when its span is ``e - s``.  A block from s ends at the latest at
      the last position it may reach (n - 1, or n - 2 for a hinted first
      block), so once the span exceeds that distance from s no interval
      from s can close, and the block is final.
    * A pattern shorter than every basis element of ``inner`` involves
      none of them, so such a block lies in ``inner`` without a memo
      lookup.  An empty basis means no block is ever tested.

    With ``outside_inner`` the caller vouches that the whole host lies
    outside ``inner``.  The whole host is the last segment the first
    block could test, and that test would fail, so the first block
    stops one position short of the end and never runs it.  The blocks
    are the same; a false promise gives a wrong answer.  A pass from a
    later ``start`` never reaches the whole host, so the hint does not
    apply there.

    The basis scan re-runs this same loop on a child, ``pi`` with its
    maximum at index ``inserted``, from the start of a parent block
    (see :func:`~permwreath.basis_search.basis_elements_of_length`).
    It returns only the blocks from ``start``, and it stops at the first
    start past ``inserted`` that is in ``rejoin``, the parent's block
    starts moved one place right: from there on the child's blocks are
    the parent's, shifted.  The full pass has no rejoin starts.
    """
    n = len(pi)
    shortest = inner._shortest
    ends: list[int] = []
    lows: list[int] = []
    s = start
    stop = n - 1 if outside_inner and not start else n
    while s < n:
        lo = hi = low = pi[s]
        end = s
        reach = stop - 1 - s
        for e in range(s + 1, stop):
            v = pi[e]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            span = hi - lo
            if span == e - s:
                if span >= shortest - 1 and not member(
                    _trusted([w - lo + 1 for w in pi[s : e + 1]]), inner
                ):
                    break
                end, low = e, lo
            elif span > reach:
                break
        ends.append(end)
        lows.append(low)
        s = end + 1
        stop = n  # only the first block could have been the whole host
        if s > inserted and s in rejoin:
            break
    return ends, lows


def _profile_of(lows: list[int], n: int) -> Permutation:
    # The blocks' value ranges tile 1..n, so ranking their lows by
    # counting gives the profile without a sort.
    rank = [0] * (n + 2)
    for v in lows:
        rank[v] = 1
    for v in range(1, n + 1):
        rank[v] += rank[v - 1]
    return _trusted([rank[v] for v in lows])


def left_greedy_profile(pi: Sequence[int], inner: PermClass) -> ProfileDecomposition:
    """Contract blocks greedily from the left.

    Each block is the longest segment starting at the current position
    that is an interval of the host and whose pattern lies in ``inner``;
    a singleton always qualifies.  The result is a shortest deflation of
    the host by blocks from ``inner``.  Its profile is the only profile
    of that length, but other segmentations may give it: with
    ``av(123)``, 123 is [12][3] here and also [1][23].  The blocks come
    from the one greedy pass that :func:`wreath_member` and the basis
    scan share.

    >>> from .avoidance import av
    >>> left_greedy_profile(Permutation((3, 4, 1, 5, 6, 7, 2)), av(21)).profile
    Permutation([3, 1, 4, 2])
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if inner._shortest == 1:
        raise ValueError(
            "the block class excludes the one-point permutation; "
            "nothing can be deflated by it"
        )
    ends, lows = _greedy_blocks(pi, inner, False)
    starts = [0, *(e + 1 for e in ends[:-1])]
    return ProfileDecomposition(
        _profile_of(lows, len(pi)),
        tuple((s + 1, e + 1) for s, e in zip(starts, ends)),
        tuple(
            _trusted([w - low + 1 for w in pi[s : e + 1]])
            for s, e, low in zip(starts, ends, lows)
        ),
    )


def wreath_member(pi: Sequence[int], outer: PermClass, inner: PermClass) -> bool:
    """True iff ``pi`` is an inflation of an ``outer`` member by ``inner`` members.

    ``pi`` belongs to the product exactly when its left-greedy profile
    lies in ``outer``.

    >>> from .avoidance import av
    >>> wreath_member(Permutation((2, 5, 1, 3, 7, 6, 4)), av(25134), av(321))
    False
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if inner._shortest == 1:
        return False  # no blocks available: the product is empty
    _, lows = _greedy_blocks(pi, inner, False)
    return member(_profile_of(lows, len(pi)), outer)


def all_deflations(pi: Sequence[int], inner: PermClass) -> set[Permutation]:
    """Every deflation of ``pi`` whose blocks all lie in ``inner``.

    Brute force over consecutive segmentations, keeping those in which
    each segment is an interval with pattern in ``inner``.  This is the
    independent oracle the greedy profile is checked against; it never
    routes through :func:`left_greedy_profile`.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    n = len(pi)
    if n > DEFLATION_CAP:
        raise CapExceeded(
            f"deflation scan of length {n} exceeds the cap {DEFLATION_CAP}"
        )
    ends = interval_end_table(pi)
    pattern_cache: dict[tuple[int, int], Permutation] = {}

    def seg_pattern(s: int, e: int) -> Permutation:
        key = (s, e)
        pat = pattern_cache.get(key)
        if pat is None:
            pat = reduce(pi[s - 1 : e])
            pattern_cache[key] = pat
        return pat

    out: set[Permutation] = set()
    reps: list[int] = []

    def go(s: int) -> None:
        if s > n:
            out.add(reduce(reps))
            return
        for e in ends[s]:
            if member(seg_pattern(s, e), inner):
                reps.append(pi[s - 1])
                go(e + 1)
                reps.pop()

    go(1)
    return out


def is_valid_deflation(
    pi: Sequence[int], candidate: ProfileDecomposition, inner: PermClass
) -> bool:
    """Check a claimed deflation of ``pi`` against all its obligations.

    The segments must partition positions 1..n into consecutive runs,
    each an interval of the host whose pattern matches the recorded
    block pattern and lies in ``inner``, and inflating the profile by
    the patterns must reconstruct the host.  Returns False rather than
    raising: this is the validator the test oracles use.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    n = len(pi)
    segs = candidate.segments
    if len(segs) != len(candidate.block_patterns) or not segs:
        return False
    expected_start = 1
    for (s, e), pat in zip(segs, candidate.block_patterns):
        if s != expected_start or not s <= e <= n:
            return False
        seg = pi[s - 1 : e]
        if max(seg) - min(seg) != e - s:
            return False
        if reduce(seg) != pat or not member(pat, inner):
            return False
        expected_start = e + 1
    if expected_start != n + 1:
        return False
    if len(candidate.profile) != len(segs):
        return False
    return inflate(candidate.profile, candidate.block_patterns) == pi
