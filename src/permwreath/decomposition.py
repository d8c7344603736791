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

There is no interval scan here.  Sum and skew blocks are read off the
prefix cuts.  Over a simple skeleton of length at least 4 the blocks are
the maximal proper intervals, and those are the left-greedy blocks of
:func:`~permwreath.profile._greedy_blocks` when every block is allowed
and the whole host is not.  Either way the skeleton is the profile of
the blocks' lows and each block's pattern is its values less its low,
read by the helper that :func:`~permwreath.profile.left_greedy_profile`
uses too.  :func:`is_simple` still lists every interval, so the
assertion on a simple skeleton checks the greedy tiling against the
exhaustive listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .avoidance import PermClass
from .perm_core import Permutation, _trusted, intervals
from .profile import _deflation, _greedy_blocks

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


def _cuts(pi: Sequence[int]) -> tuple[str, list[int]]:
    # The kind of ``pi`` with its cuts: the positions k < n where the
    # first k entries are exactly {1..k} (sum cuts) or the top k values
    # (skew cuts).  A permutation never has both kinds.
    n = len(pi)
    hi, lo, sums, skews = 0, n + 1, [], []
    for k, v in enumerate(pi[:-1], start=1):
        hi, lo = max(hi, v), min(lo, v)
        if hi == k:
            sums.append(k)
        if lo == n + 1 - k:
            skews.append(k)
    if sums:
        return SUM_DECOMPOSABLE, sums
    return (SKEW_DECOMPOSABLE if skews else INDECOMPOSABLE_BOTH), skews


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

    cuts = _cuts(pi)[1]
    if cuts:
        # A block's values are consecutive, so its minimum is its low;
        # the lows of sum (skew) blocks rank to 1 2 .. t (t .. 2 1).
        ends = [c - 1 for c in cuts] + [n - 1]
        lows = [min(pi[s : e + 1]) for s, e in zip([0, *cuts], ends)]
    else:
        # The maximal proper intervals tile the host exactly when it is
        # neither sum nor skew decomposable: they are its greedy blocks
        # when every block is allowed and the whole host is not.
        ends, lows = _greedy_blocks(pi, PermClass(()), True)
    d = SubstitutionDecomposition(*_deflation(pi, ends, lows))
    assert cuts or is_simple(d.skeleton) and len(d.skeleton) >= 4
    return d


def skeleton(pi: Sequence[int]) -> Permutation:
    """The unique simple permutation ``pi`` is an inflation of.

    >>> skeleton(Permutation((3, 4, 6, 2, 1, 5)))
    Permutation([2, 4, 1, 3])
    >>> skeleton(Permutation((4, 5, 6, 1, 2, 3)))
    Permutation([2, 1])
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    kind = _cuts(pi)[0]
    if kind == INDECOMPOSABLE_BOTH:
        return substitution_decomposition(pi).skeleton
    return _trusted((1, 2) if kind == SUM_DECOMPOSABLE else (2, 1))


def sum_skew_status(pi: Sequence[int]) -> str:
    """Classify ``pi`` as sum-decomposable, skew-decomposable, or neither.

    A permutation can never be both.  Length 1 is rejected.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if len(pi) < 2:
        raise ValueError("decomposability needs length at least 2")
    return _cuts(pi)[0]
