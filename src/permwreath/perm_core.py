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
from typing import Iterable, Sequence

#: Default bound on the length of a permutation parsed from text by
#: :func:`parse_perm` (``--max-perm-len``); computed ones are not capped.
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

    def __new__(cls, values: Iterable[int]):
        vals = tuple(values)
        n = len(vals)
        if n == 0:
            raise ValueError("a permutation has at least one entry")
        if set(map(type, vals)) != {int} or sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {_quote(repr(vals), str)}")
        return tuple.__new__(cls, vals)

    def __repr__(self) -> str:
        return f"Permutation({list(self)!r})"

    def __str__(self) -> str:
        return " ".join(str(v) for v in self)


def _trusted(vals) -> Permutation:
    # Fast path for values already known to form a permutation.
    return tuple.__new__(Permutation, tuple(vals))


ONE = _trusted((1,))

#: Most characters of refused text that an error message quotes.
_QUOTED_CHARS = 20


def _quote(text: str, show=repr) -> str:
    # ``show(text)``, with text cut to a bounded prefix marked by "...",
    # so that an error message stays short however long the refused text
    # is.  Refused entries are quoted as ``_quote(repr(entries), str)``.
    cut = text[:_QUOTED_CHARS]
    return show(cut) if cut == text else f"{show(cut)}..."


def parse_perm(text: str, *, max_len: int = LENGTH_CAP) -> Permutation:
    """Parse a permutation from text.

    Accepts space-separated ranks ("2 5 1 3"), comma-separated ranks
    ("2,5,1,3") and, for length at most 9, the compact digit string
    ("2513").  More than ``max_len`` ranks raise :class:`CapExceeded`.

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
        raise ValueError(f"cannot parse permutation from {_quote(text)}")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {_quote(text)}") from None
    if len(vals) > max_len:
        raise CapExceeded(f"length {len(vals)} exceeds the cap {max_len}")
    return Permutation(vals)


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
            raise ValueError(f"entries must be distinct: {_quote(repr(seq), str)}")
    rank = {v: r for r, v in enumerate(order, start=1)}
    return _trusted(rank[v] for v in vals)


def delete_point(pi: Sequence[int], pos: int) -> Permutation:
    """Remove the entry at 1-based ``pos`` and renormalise the rest.

    A one-point permutation has no deletion: a permutation has at least
    one entry.

    >>> delete_point(Permutation((2, 5, 1, 3, 7, 6, 4)), 5)
    Permutation([2, 5, 1, 3, 6, 4])
    """
    n = len(pi)
    if not 1 <= pos <= n:
        raise ValueError(f"position {pos} out of range 1..{n}")
    if n == 1:
        raise ValueError("deleting the only point leaves no permutation")
    removed = pi[pos - 1]
    return _trusted(
        v - 1 if v > removed else v
        for i, v in enumerate(pi, start=1)
        if i != pos
    )


#: What a failed candidate for an entry tells the matcher about later
#: candidates for the same entry, by how later entries bound it: as a
#: nearest lower bound only, as a nearest upper bound only, as both, or
#: not at all.  See :func:`involves`.
_LOWER, _UPPER, _BOTH, _FREE = range(4)


@lru_cache(maxsize=4096)
def _pattern_table(sigma: tuple, invert: bool = False, reverse: bool = False) -> tuple:
    # The table of sigma inverted, then reversed, as asked: the pinned
    # search reads a turned pattern, and it shares this one memo.
    # One row (lo, dlo, hi, dhi, role) per index t of sigma.  lo and hi
    # are the earlier indices holding the closest smaller and the closest
    # larger value; k and k + 1 stand in when there is none, as virtual
    # entries of value 0 and k + 1, so the matcher's chosen list keeps 0
    # and n + 1 there.  dlo = sigma[t] - sigma[lo] and dhi = sigma[hi] -
    # sigma[t] are the value gaps an occurrence must leave room for.
    # Consistency with these two bounds implies consistency with all
    # earlier choices, so the matcher only ever compares two bounds.
    # One pass from the last index down keeps the values of sigma[:t + 1]
    # as a doubly linked list between the sentinels 0 and k + 1: the
    # neighbours of sigma[t] there are its closest earlier values, and
    # unlinking it leaves the list for t - 1.  So the table takes O(k).
    if invert:
        sigma = _inverse(sigma)
    if reverse:
        sigma = sigma[::-1]
    k = len(sigma)
    index = [k] * (k + 2)
    index[k + 1] = k + 1
    for t, v in enumerate(sigma):
        index[v] = t
    below, above = list(range(-1, k + 1)), list(range(1, k + 3))
    bounds = [()] * k
    for t in range(k - 1, -1, -1):
        v = sigma[t]
        a, b = below[v], above[v]
        bounds[t] = (index[a], v - a, index[b], b - v)
        above[a], below[b] = b, a
    lower = {row[0] for row in bounds}
    upper = {row[2] for row in bounds}
    return tuple(
        (*row, (_FREE, _LOWER, _UPPER, _BOTH)[(t in lower) + 2 * (t in upper)])
        for t, row in enumerate(bounds)
    )


def _inverse(pi: Sequence[int]) -> tuple:
    # Positions and values swap roles: the point (p, v) becomes (v, p).
    inv = [0] * len(pi)
    for p, v in enumerate(pi, start=1):
        inv[v - 1] = p
    return tuple(inv)


def _pinned_first(sigma: Sequence[int], host: tuple, pin: int) -> tuple[tuple, tuple]:
    # The pattern table and host of a search through the extreme point at
    # 0-based position ``pin``, moved to position 0 as argued in
    # :func:`involves`: a top or bottom value is the last or first
    # position of the inverse, and the last position the first of the
    # reverse.
    n = len(host)
    invert = 0 < pin < n - 1
    if invert:
        v = host[pin]
        if v != 1 and v != n:
            raise ValueError(f"position {pin + 1} is not an extreme point of the host")
        host, pin = _inverse(host), v - 1
    if pin:
        host = host[::-1]
    return _pattern_table(tuple(sigma), invert, pin > 0), host


def _matches(
    sigma: Sequence[int],
    pi: Sequence[int],
    limit: int | None,
    pin: int | None = None,
    found: list | None = None,
) -> int:
    # The one pattern search, argued in :func:`involves`: the number of
    # occurrences of sigma in pi, or ``limit`` as soon as the count
    # reaches it (None: no limit).  With ``pin``, the 0-based position of
    # an extreme point of pi, only the occurrences through that point
    # count, and a pin outside pi is refused before anything else, so
    # no early return lets one through.  With ``found``, a list, a search
    # that stops at ``limit`` writes into it the values of the occurrence
    # it stopped at, in the host's order; one that runs out leaves it as
    # it was.  Only an unpinned search reports, since a pinned one reads
    # a turned host.  Entry t scans the positions of pi with one iterator
    # and keeps its value window [lo_v, hi_v] and role; the stack holds
    # the same for each earlier entry, with the count before its
    # candidate.  A candidate scans for the next entry's first candidate
    # and descends only if there is one; the last entry's candidates are
    # counted in that scan, with no slot of their own.
    host = tuple(pi)
    k, n = len(sigma), len(host)
    if pin is not None:
        if not 0 <= pin < n:
            raise ValueError(f"pin {pin} is not a position of a host of length {n}")
        if found is not None:
            raise ValueError("a pinned search reports no occurrence")
    if k > n:
        return 0
    if k < 2:
        # The empty pattern occurs once, and never through a pin; a point
        # occurs n times, and once through a pin.  A point reports the
        # first point, where a limit of 1 stops.
        if k and found is not None:
            found[:] = host[:1]
        return k if pin is not None else n if k else 1
    if pin is None:
        table = _pattern_table(tuple(sigma))
    else:
        table, host = _pinned_first(sigma, host, pin)
    chosen = [0] * k + [0, n + 1]
    penult = k - 2
    stop = n - k + 1  # entry t takes positions below stop + t
    stack = []
    count = t = 0
    _, dlo, _, dhi, role = table[0]
    lo_v, hi_v = dlo, n + 1 - dhi
    it = iter(range(stop if pin is None else 1))  # a pin takes entry 0
    while True:
        for p in it:
            v = host[p]
            if lo_v <= v <= hi_v:
                before = count
                while True:
                    chosen[t] = v
                    lo, dlo, hi, dhi, next_role = table[t + 1]
                    a = chosen[lo] + dlo
                    b = chosen[hi] - dhi
                    next_it = iter(range(p + 1, stop + t + 1))
                    for p in next_it:
                        v = host[p]
                        if a <= v <= b:
                            if t < penult:
                                break
                            count += 1
                            if count == limit:
                                if found is not None:
                                    found[:] = chosen[: t + 1]
                                    found.append(v)
                                return count
                    else:
                        break
                    stack.append((it, lo_v, hi_v, role, before))
                    t += 1
                    it, lo_v, hi_v, role = next_it, a, b, next_role
                break
        else:
            if not t:
                return count
            t -= 1
            it, lo_v, hi_v, role, before = stack.pop()
        # The candidate chosen[t] is done; dominance acts if it found none.
        if count == before:
            if role == _LOWER:
                hi_v = chosen[t] - 1
            elif role == _UPPER:
                lo_v = chosen[t] + 1
            elif role == _FREE:
                it = ()  # the search at t gives up


def involves(sigma: Sequence[int], pi: Sequence[int]) -> bool:
    """True iff some subsequence of ``pi`` is order isomorphic to ``sigma``.

    Backtracking search, exponential in the worst case, which is fine at
    desk scale.  Entry t of ``sigma`` takes the positions of ``pi`` left
    to right, after the position of entry t - 1, and its value v must lie
    strictly between the values chosen for its nearest earlier lower and
    upper neighbours in ``sigma``.  Two exact prunings narrow that:

    * *Value gaps.*  The values of ``sigma`` strictly between entry t and
      its nearest lower neighbour l all sit at later indices, since l is
      the closest smaller value among the earlier ones; an occurrence
      needs that many host values between chosen[l] and v.  So
      v >= chosen[l] + sigma[t] - sigma[l], and likewise
      v <= chosen[h] - (sigma[h] - sigma[t]) for the upper neighbour h.
      With no lower neighbour the bound is v >= sigma[t]; with no upper
      one it is v <= n - k + sigma[t].  Both only drop values no
      occurrence can use.
    * *Dominance.*  Later entries see entry t only as the nearest lower
      bound of some of them, the nearest upper bound of some, both, or
      neither (the role, fixed per pattern).  Say the search below the
      candidate (p, v) for entry t fails: no choice of later entries at
      positions after p satisfies their bounds.  A later candidate
      (p', v') has p' > p, so it offers the later entries only positions
      that (p, v) offered too, under the same bounds except those that
      read v'.  If entry t bounds nothing, the bounds are the same, so
      every later candidate fails and the search at t gives up.  If it
      is a lower bound only, a candidate with v' > v only raises those
      lower bounds, so it fails as well: the values above v are dropped.
      An upper bound only drops the values below v, by the mirror
      argument.  A two-sided entry drops nothing.

    By induction from the last entry, the search at each entry succeeds
    exactly when some completion of the earlier choices exists, so the
    verdict is exact.  The argument reads only the failed candidate, so
    it holds when counting too: :func:`occurrences` runs the same search
    to the end, and prunes after each candidate below which it counted
    no occurrence, since every candidate that one dominates has none
    either.  The search keeps its own stack, with at most one slot per
    entry instead of one Python frame, so a pattern of any length
    matches.

    *Pinned search.*  ``_matches`` takes an optional ``pin``, the 0-based
    position of an extreme point of ``pi``, and then counts only the
    occurrences through that point.  This is the test of a child whose
    parent, the child less that point, is known to avoid ``sigma``: only
    an occurrence through the new point can exist.  The search moves the
    point to the first position, where it can only play entry 0, and
    lets entry 0 take position 0 alone.  That is exact: entry 0 has no
    earlier entry to agree with, its value-gap window only drops values
    no occurrence can use, and every later entry checks its order
    against it as before.  Reversal and inversion map the occurrences
    of ``sigma`` in ``pi`` one to one onto those of the reversed or
    inverted pattern in the reversed or inverted host, point for point,
    so the four extremes reduce to the first position:

    * the first position is entry 0 as it stands;
    * the last position is the first of the reverse;
    * the bottom value 1 is the first position of the inverse;
    * the top value n is the last position of the inverse, so the first
      of its reverse.

    >>> involves(Permutation((1, 3, 2, 4)), Permutation((6, 3, 5, 1, 4, 2, 7)))
    True
    >>> involves(Permutation((2, 1)), Permutation((1, 2)))
    False

    The 1 of 213 bounds no later entry.  In 4 5 1 2 3, with 4 as the 2,
    the 1 at position 3 leaves no value above 4 for the 3, so the search
    gives up on that 4 without trying the 2 at position 4 as the 1:

    >>> involves(Permutation((2, 1, 3)), Permutation((4, 5, 1, 2, 3)))
    False
    """
    return _matches(sigma, pi, 1) > 0


def occurrences(sigma: Sequence[int], pi: Sequence[int]) -> int:
    """Exact number of subsequences of ``pi`` order isomorphic to ``sigma``.

    The search of :func:`involves`, run to the end.

    >>> occurrences(Permutation((3, 2, 1)), Permutation((2, 5, 1, 3, 7, 6, 4)))
    1
    >>> occurrences(Permutation((1,)), Permutation((3, 1, 2)))
    3
    """
    return _matches(sigma, pi, None)


def inflate(pi: Sequence[int], blocks: Sequence[Sequence[int]]) -> Permutation:
    """Replace each point of ``pi`` by a block order isomorphic to blocks[i].

    Block i occupies consecutive positions, and its values fill a
    contiguous range slotted where pi's i-th value sits relative to the
    other values.

    >>> inflate(Permutation((1, 3, 2)), [Permutation((2, 1)),
    ...         Permutation((2, 4, 1, 3)), Permutation((3, 2, 1))])
    Permutation([2, 1, 7, 9, 6, 8, 5, 4, 3])
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
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
    is unused.  It serves only :func:`intervals` and the brute-force
    deflation oracle ``all_deflations``: the deflations and the
    substitution decomposition tile their hosts with the left-greedy
    scan of ``profile._greedy_blocks``, which stops at each block's end.
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
