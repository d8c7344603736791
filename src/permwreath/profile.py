"""Deflations with blocks from a class, and wreath-product membership.

The wreath product of two classes holds every inflation of a member of
the outer class by members of the inner class.  Testing membership does
not require trying every decomposition: contracting blocks greedily from
the left yields the unique shortest deflation whose blocks lie in the
inner class, and a permutation belongs to the wreath product exactly
when that shortest deflation belongs to the outer class.

A block here is always an interval of the host: consecutive positions
carrying consecutive values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .avoidance import PermClass, member
from .perm_core import (
    ONE,
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


def left_greedy_profile(pi: Sequence[int], inner: PermClass) -> ProfileDecomposition:
    """Contract blocks greedily from the left.

    Each block is the longest segment starting at the current position
    that is an interval of the host and whose pattern lies in ``inner``;
    a singleton always qualifies.  The result is the unique shortest
    deflation of the host by blocks from ``inner``.

    The valid block ends from a fixed start form a prefix of the
    ascending interval ends: a longer interval with the same start
    contains the shorter one, and ``inner`` is closed downward.  So the
    scan grows each block upward and stops at the first interval whose
    pattern leaves ``inner``.  A block's values are consecutive, so its
    pattern is simply ``v - min + 1``.

    >>> from .avoidance import av
    >>> left_greedy_profile(Permutation((3, 4, 1, 5, 6, 7, 2)), av(21)).profile
    Permutation([3, 1, 4, 2])
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if not member(ONE, inner):
        raise ValueError(
            "the block class excludes the one-point permutation; "
            "nothing can be deflated by it"
        )
    n = len(pi)
    segments: list[tuple[int, int]] = []
    patterns: list[Permutation] = []
    lows: list[int] = []
    s = 0
    while s < n:
        lo = hi = low = pi[s]
        end, pat = s, ONE
        for e in range(s + 1, n):
            v = pi[e]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == e - s:
                longer = _trusted([w - lo + 1 for w in pi[s : e + 1]])
                if not member(longer, inner):
                    break
                end, pat, low = e, longer, lo
        segments.append((s + 1, end + 1))
        patterns.append(pat)
        lows.append(low)
        s = end + 1
    # The blocks' value ranges tile 1..n, so ranking their lows by
    # counting gives the profile without a sort.
    rank = [0] * (n + 2)
    for v in lows:
        rank[v] = 1
    for v in range(1, n + 1):
        rank[v] += rank[v - 1]
    profile = _trusted([rank[v] for v in lows])
    return ProfileDecomposition(profile, tuple(segments), tuple(patterns))


def wreath_member(pi: Sequence[int], outer: PermClass, inner: PermClass) -> bool:
    """True iff ``pi`` is an inflation of an ``outer`` member by ``inner`` members.

    >>> from .avoidance import av
    >>> wreath_member(Permutation((2, 5, 1, 3, 7, 6, 4)), av(25134), av(321))
    False
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if not member(ONE, inner):
        return False  # no blocks available: the product is empty
    return member(left_greedy_profile(pi, inner).profile, outer)


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
