"""Permutations in one-line form and the pattern primitives built on them.

A permutation of length n is a tuple of the ranks 1..n, e.g.
``Permutation((2, 5, 1, 3, 7, 6, 4))``.  Everything here treats
permutations as immutable values and returns fresh ones; all operations
are pure functions, safe to call concurrently.

Indexing follows tuple semantics (``pi[0]`` is the first entry), but
every operation that speaks about *positions* counts from 1, matching
the usual one-line notation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

#: Default bound on permutation length.  Large enough for anything the
#: exhaustive routines can chew through, small enough to catch nonsense
#: input early.  Override per call with ``max_len=``.
LENGTH_CAP = 64


class CapExceeded(ValueError):
    """An input or request exceeds a configured bound."""


class Permutation(tuple):
    """A permutation of {1, ..., n} in one-line form.

    >>> Permutation((2, 1, 3))
    Permutation([2, 1, 3])
    >>> str(Permutation((2, 1, 3)))
    '2 1 3'
    >>> len(Permutation("21"))  # any iterable of ints works
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2: ('2', '1')
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int], *, max_len: int = LENGTH_CAP):
        vals = tuple(values)
        n = len(vals)
        if n == 0:
            raise ValueError("a permutation has at least one entry")
        if n > max_len:
            raise CapExceeded(f"length {n} exceeds the cap {max_len}")
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {vals!r}")
        return tuple.__new__(cls, vals)

    def __repr__(self) -> str:
        return f"Permutation({list(self)!r})"

    def __str__(self) -> str:
        return " ".join(str(v) for v in self)


def _trusted(vals) -> Permutation:
    # Fast path for values already known to form a permutation.
    return tuple.__new__(Permutation, tuple(vals))


ONE = _trusted((1,))


def identity(n: int) -> Permutation:
    """The increasing permutation 1 2 ... n."""
    return _trusted(range(1, n + 1))


def decreasing(n: int) -> Permutation:
    """The decreasing permutation n ... 2 1."""
    return _trusted(range(n, 0, -1))


def parse_perm(text: str, *, max_len: int = LENGTH_CAP) -> Permutation:
    """Parse a permutation from text.

    Accepts space-separated ranks ("2 5 1 3"), comma-separated ranks
    ("2,5,1,3") and, for length at most 9, the compact digit string
    ("2513").

    >>> parse_perm("2513764") == parse_perm("2, 5, 1, 3, 7, 6, 4")
    True
    """
    s = text.strip()
    if not s:
        raise ValueError("empty permutation")
    if "," in s:
        parts = [t for t in (p.strip() for p in s.split(",")) if t]
    elif any(ch.isspace() for ch in s):
        parts = s.split()
    elif s.isdigit():
        if len(s) > 9:
            raise ValueError(
                "compact digit form only parses up to length 9; "
                "use spaces or commas"
            )
        parts = list(s)
    else:
        raise ValueError(f"cannot parse permutation from {text!r}")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return Permutation(vals, max_len=max_len)


def format_perm(pi: Sequence[int]) -> str:
    """Render a permutation compactly when single digits suffice.

    Lengths up to 9 print as a digit string ("2513"); anything longer
    falls back to space-separated ranks.  Both forms re-parse with
    :func:`parse_perm`.
    """
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return " ".join(str(v) for v in pi)


def reduce(seq: Sequence) -> Permutation:
    """The unique permutation order isomorphic to ``seq``.

    Entries must be distinct but need not be integers; anything with a
    total order works.  Idempotent on permutations.

    >>> reduce((3, 5, 4, 7))
    Permutation([1, 3, 2, 4])
    >>> reduce((2, 9, 4))
    Permutation([1, 3, 2])
    """
    vals = list(seq)
    if not vals:
        raise ValueError("cannot reduce an empty sequence")
    order = sorted(vals)
    for a, b in zip(order, order[1:]):
        if a == b:
            raise ValueError(f"entries must be distinct: {seq!r}")
    rank = {v: r for r, v in enumerate(order, start=1)}
    return _trusted(rank[v] for v in vals)


def points(pi: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The plot of ``pi``: (position, value) pairs, positions from 1."""
    return tuple((i, v) for i, v in enumerate(pi, start=1))


def delete_point(pi: Sequence[int], pos: int) -> Permutation:
    """Remove the entry at 1-based ``pos`` and renormalise the rest.

    >>> delete_point(Permutation((2, 5, 1, 3, 7, 6, 4)), 5)
    Permutation([2, 5, 1, 3, 6, 4])
    """
    n = len(pi)
    if not 1 <= pos <= n:
        raise ValueError(f"position {pos} out of range 1..{n}")
    removed = pi[pos - 1]
    return _trusted(
        v - 1 if v > removed else v
        for i, v in enumerate(pi, start=1)
        if i != pos
    )


@lru_cache(maxsize=4096)
def _nearest_neighbours(sigma: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # For each index t of sigma, the earlier index holding the closest
    # smaller value and the closest larger value (-1 when absent).
    # Consistency with these two implies consistency with all earlier
    # choices, so the matchers below only ever compare two bounds.
    k = len(sigma)
    lo = [-1] * k
    hi = [-1] * k
    for t in range(k):
        for s in range(t):
            if sigma[s] < sigma[t]:
                if lo[t] < 0 or sigma[s] > sigma[lo[t]]:
                    lo[t] = s
            else:
                if hi[t] < 0 or sigma[s] < sigma[hi[t]]:
                    hi[t] = s
    return tuple(lo), tuple(hi)


def involves(sigma: Sequence[int], pi: Sequence[int]) -> bool:
    """True iff some subsequence of ``pi`` is order isomorphic to ``sigma``.

    Backtracking search with value-window pruning; exponential in the
    worst case, which is fine at desk scale.

    >>> involves(Permutation((1, 3, 2, 4)), Permutation((6, 3, 5, 1, 4, 2, 7)))
    True
    >>> involves(Permutation((2, 1)), Permutation((1, 2)))
    False
    """
    sig = tuple(sigma)
    host = tuple(pi)
    k, n = len(sig), len(host)
    if k > n:
        return False
    lo, hi = _nearest_neighbours(sig)
    chosen = [0] * k

    def go(t: int, start: int) -> bool:
        if t == k:
            return True
        lo_v = chosen[lo[t]] if lo[t] >= 0 else 0
        hi_v = chosen[hi[t]] if hi[t] >= 0 else n + 1
        for p in range(start, n - (k - t) + 1):
            v = host[p]
            if lo_v < v < hi_v:
                chosen[t] = v
                if go(t + 1, p + 1):
                    return True
        return False

    return go(0, 0)


def occurrences(sigma: Sequence[int], pi: Sequence[int]) -> int:
    """Exact number of subsequences of ``pi`` order isomorphic to ``sigma``.

    >>> occurrences(Permutation((3, 2, 1)), Permutation((2, 5, 1, 3, 7, 6, 4)))
    1
    >>> occurrences(Permutation((1,)), Permutation((3, 1, 2)))
    3
    """
    return sum(1 for _ in occurrence_positions(sigma, pi))


def occurrence_positions(
    sigma: Sequence[int], pi: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Yield the 1-based position tuples of every occurrence of ``sigma``."""
    sig = tuple(sigma)
    host = tuple(pi)
    k, n = len(sig), len(host)
    if k > n:
        return
    lo, hi = _nearest_neighbours(sig)
    chosen = [0] * k
    positions = [0] * k

    def go(t: int, start: int) -> Iterator[tuple[int, ...]]:
        if t == k:
            yield tuple(p + 1 for p in positions)
            return
        lo_v = chosen[lo[t]] if lo[t] >= 0 else 0
        hi_v = chosen[hi[t]] if hi[t] >= 0 else n + 1
        for p in range(start, n - (k - t) + 1):
            v = host[p]
            if lo_v < v < hi_v:
                chosen[t] = v
                positions[t] = p
                yield from go(t + 1, p + 1)

    yield from go(0, 0)


def inflate(
    pi: Sequence[int],
    blocks: Sequence[Sequence[int]],
    *,
    max_len: int = LENGTH_CAP,
) -> Permutation:
    """Replace each point of ``pi`` by a block order isomorphic to blocks[i].

    Block i occupies consecutive positions, and its values fill a
    contiguous range slotted where pi's i-th value sits relative to the
    other values.

    >>> inflate(Permutation((1, 3, 2)), [Permutation((2, 1)),
    ...         Permutation((2, 4, 1, 3)), Permutation((3, 2, 1))])
    Permutation([2, 1, 7, 9, 6, 8, 5, 4, 3])
    """
    n = len(pi)
    if len(blocks) != n:
        raise ValueError(f"need {n} blocks, got {len(blocks)}")
    blks = [b if isinstance(b, Permutation) else Permutation(b) for b in blocks]
    offset = [0] * n
    acc = 0
    pos_of_value = {v: i for i, v in enumerate(pi)}
    for r in range(1, n + 1):
        i = pos_of_value[r]
        offset[i] = acc
        acc += len(blks[i])
    out: list[int] = []
    for i in range(n):
        base = offset[i]
        out.extend(base + v for v in blks[i])
    if acc > max_len:
        raise CapExceeded(f"inflation has length {acc}, beyond the cap {max_len}")
    return _trusted(out)


def intervals(pi: Sequence[int]) -> list[tuple[int, int]]:
    """All segments of ``pi`` whose values are contiguous.

    Returns 1-based inclusive (start, end) pairs sorted by (start, end);
    always includes the n singletons and the whole of pi.

    >>> intervals(Permutation((2, 4, 1, 3)))
    [(1, 1), (1, 4), (2, 2), (3, 3), (4, 4)]
    """
    table = interval_end_table(pi)
    return [(s, e) for s in range(1, len(pi) + 1) for e in table[s]]


def interval_end_table(pi: Sequence[int]) -> list[list[int]]:
    """For each 1-based start s, the ascending list of interval ends.

    Entry ``table[s]`` lists every e with s..e an interval of pi; index 0
    is unused.  It serves :func:`intervals`, the brute-force deflation
    oracle ``all_deflations`` and ``substitution_decomposition``.
    """
    n = len(pi)
    table: list[list[int]] = [[] for _ in range(n + 2)]
    for s in range(n):
        mn = mx = pi[s]
        ends = table[s + 1]
        for e in range(s, n):
            v = pi[e]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
            if mx - mn == e - s:
                ends.append(e + 1)
    return table
