"""Simplicity testing and the substitution decomposition.

A permutation is *simple* when its only intervals are the singletons and
the whole thing.  Every permutation is the inflation of a unique simple
permutation; recovering that skeleton together with its blocks is the
substitution decomposition.

For hosts that split as a direct (or skew) sum the block choice is not
unique, so :func:`substitution_decomposition` canonicalises: it returns
the increasing (decreasing) skeleton ``1 2 .. t`` (``t .. 2 1``) over the
finest splitting into sum- (skew-) indecomposable blocks.  That skeleton
is simple only when t = 2; :func:`skeleton` collapses it back to the
simple root 12 (or 21) when asked for the simple permutation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm_core import (
    Permutation,
    _trusted,
    decreasing,
    identity,
    interval_end_table,
    intervals,
    reduce,
)

SUM_DECOMPOSABLE = "sum-decomposable"
SKEW_DECOMPOSABLE = "skew-decomposable"
INDECOMPOSABLE_BOTH = "indecomposable-both"


@dataclass(frozen=True)
class SubstitutionDecomposition:
    """A host written as skeleton[block, block, ...].

    ``block_segments`` are the 1-based (start, end) position ranges of
    the blocks in the host; ``block_patterns`` their reduced patterns.
    Inflating the skeleton by the patterns reconstructs the host.
    """

    skeleton: Permutation
    block_segments: tuple[tuple[int, int], ...]
    block_patterns: tuple[Permutation, ...]


def _sum_cuts(pi: Sequence[int]) -> list[int]:
    # Positions k < n where the first k entries are exactly {1..k}.
    cuts = []
    mx = 0
    for k, v in enumerate(pi[:-1], start=1):
        if v > mx:
            mx = v
        if mx == k:
            cuts.append(k)
    return cuts


def _skew_cuts(pi: Sequence[int]) -> list[int]:
    # Positions k < n where the first k entries are the top k values:
    # the sum cuts of the complement.
    n = len(pi)
    return _sum_cuts([n + 1 - v for v in pi])


def is_simple(pi: Sequence[int]) -> bool:
    """True iff the only intervals of ``pi`` are singletons and the whole.

    Lengths 1 and 2 are simple by this reading; no length-3 permutation
    is.

    >>> is_simple(Permutation((2, 4, 1, 3)))
    True
    >>> is_simple(Permutation((1, 3, 2)))
    False
    """
    n = len(pi)
    if n == 1:
        return True
    return len(intervals(pi)) == n + 1


def _segments_from_cuts(cuts: list[int], n: int) -> list[tuple[int, int]]:
    bounds = [0] + cuts + [n]
    return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def substitution_decomposition(pi: Sequence[int]) -> SubstitutionDecomposition:
    """Decompose ``pi`` into its skeleton and blocks.

    Sum-decomposable hosts come back as ``1 2 .. t`` over sum-
    indecomposable blocks (skew ones dually); anything else has a simple
    skeleton of length at least 4 and the blocks are forced.

    >>> d = substitution_decomposition(Permutation((3, 4, 6, 2, 1, 5)))
    >>> d.skeleton
    Permutation([2, 4, 1, 3])
    >>> d.block_patterns
    (Permutation([1, 2]), Permutation([1]), Permutation([2, 1]), Permutation([1]))
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    n = len(pi)
    if n == 1:
        return SubstitutionDecomposition(pi, ((1, 1),), (pi,))

    cuts = _sum_cuts(pi)
    if cuts:
        segs = _segments_from_cuts(cuts, n)
        skel = identity(len(segs))
    else:
        cuts = _skew_cuts(pi)
        if cuts:
            segs = _segments_from_cuts(cuts, n)
            skel = decreasing(len(segs))
        else:
            # The maximal proper intervals tile the host exactly when it
            # is neither sum nor skew decomposable, so the longest proper
            # interval from each start is the next block.
            ends = interval_end_table(pi)
            segs = []
            s = 1
            while s <= n:
                e = max(e for e in ends[s] if e - s < n - 1)
                segs.append((s, e))
                s = e + 1
            skel = reduce([pi[s - 1] for s, _ in segs])
            assert is_simple(skel) and len(skel) >= 4

    patterns = tuple(reduce(pi[s - 1 : e]) for s, e in segs)
    return SubstitutionDecomposition(skel, tuple(segs), patterns)


def skeleton(pi: Sequence[int]) -> Permutation:
    """The unique simple permutation ``pi`` is an inflation of.

    >>> skeleton(Permutation((3, 4, 6, 2, 1, 5)))
    Permutation([2, 4, 1, 3])
    >>> skeleton(Permutation((4, 5, 6, 1, 2, 3)))
    Permutation([2, 1])
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    n = len(pi)
    if n == 1:
        return pi
    if _sum_cuts(pi):
        return _trusted((1, 2))
    if _skew_cuts(pi):
        return _trusted((2, 1))
    return substitution_decomposition(pi).skeleton


def sum_skew_status(pi: Sequence[int]) -> str:
    """Classify ``pi`` as sum-decomposable, skew-decomposable, or neither.

    A permutation can never be both.  Length 1 is rejected.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if len(pi) < 2:
        raise ValueError("decomposability needs length at least 2")
    if _sum_cuts(pi):
        return SUM_DECOMPOSABLE
    if _skew_cuts(pi):
        return SKEW_DECOMPOSABLE
    return INDECOMPOSABLE_BOTH
