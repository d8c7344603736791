import itertools
import random
from collections import Counter
from functools import lru_cache

from permwreath.avoidance import member
from permwreath.blocks_pins import _minimal_span
from permwreath.perm_core import Permutation, intervals, parse_perm, reduce
from permwreath.perm_core import _trusted
from permwreath.profile import all_deflations, left_greedy_profile


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


# --- brute-force references that more than one test reads ------------------

@lru_cache(maxsize=None)
def direct_intervals(pi) -> tuple[tuple[int, int], ...]:
    """The intervals (s, e) of ``pi`` by direct scan, in order of s then
    e: positions s..e form one when their max - min is e - s."""
    n = len(pi)
    return tuple(
        (s, e)
        for s in range(1, n + 1)
        for e in range(s, n + 1)
        if max(pi[s - 1 : e]) - min(pi[s - 1 : e]) == e - s
    )


def interval_segmentations(pi) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every cut of ``pi`` into consecutive segments that are all
    intervals, walking the 2^(n-1) cut masks in order (bit k - 1 cuts
    after position k)."""
    n = len(pi)
    ivs = set(direct_intervals(pi))
    found = []
    for mask in range(1 << (n - 1)):
        segs, start = [], 1
        for k in range(1, n + 1):
            if k == n or mask >> (k - 1) & 1:
                if (start, k) not in ivs:
                    break
                segs.append((start, k))
                start = k + 1
        else:
            found.append(tuple(segs))
    return tuple(found)


_reduce_once = lru_cache(maxsize=None)(reduce)


@lru_cache(maxsize=None)
def pattern_census(pi, max_len) -> Counter:
    """Occurrences in ``pi`` of every pattern of length at most
    ``max_len``, by reducing every subsequence.  The Counter is memoised
    and shared: read it, never change it."""
    counts = Counter()
    for k in range(1, min(len(pi), max_len) + 1):
        for combo in itertools.combinations(pi, k):
            counts[_reduce_once(combo)] += 1
    return counts


def seeded_hosts(n) -> tuple[Permutation, ...]:
    """60 permutations of length n drawn from ``random.Random(1900 + n)``."""
    rng = random.Random(1900 + n)
    return tuple(_trusted(rng.sample(range(1, n + 1), n)) for _ in range(60))


# --- exhaustive checks that more than one test makes ------------------------

def assert_greedy_is_unique_shortest(pi, inner) -> set:
    """Assert that the left-greedy profile of ``pi`` is the one shortest
    deflation in the ``all_deflations`` oracle; return the oracle's set."""
    defls = all_deflations(pi, inner)
    profile = left_greedy_profile(pi, inner).profile
    assert profile in defls
    shortest = min(len(d) for d in defls)
    assert len(profile) == shortest
    assert sum(1 for d in defls if len(d) == shortest) == 1
    return defls


def assert_intersections_are_intervals(pi) -> None:
    """Assert that any two overlapping intervals of ``pi`` meet in one."""
    ivs = intervals(pi)
    ivset = set(ivs)
    for (s1, e1), (s2, e2) in itertools.combinations(ivs, 2):
        s, e = max(s1, s2), min(e1, e2)
        if s <= e:
            assert (s, e) in ivset


def span_table(pi, span) -> dict:
    """``span(i, j)`` for each pair of positions i < j of ``pi``."""
    n = len(pi)
    return {(i, j): span(i, j) for i in range(1, n) for j in range(i + 1, n + 1)}


def assert_minimal_spans_nest(pi) -> dict:
    """Assert that the ``_minimal_span`` table of ``pi`` nests: the span
    of a pair inside a span lies inside it, and equals it when that pair
    encloses the span's own; return the table."""
    pos_of = value_positions(pi)
    spans = span_table(pi, lambda i, j: _minimal_span(pi, pos_of, i, j)[:2])
    for (i, j), (s, e) in spans.items():
        for k in range(s, e + 1):
            for l in range(k + 1, e + 1):
                s2, e2 = spans[(k, l)]
                assert s <= s2 and e2 <= e
                if k <= i < j <= l:
                    assert (s2, e2) == (s, e)
    return spans


def assert_profile_block_link(pi, spans, classes) -> None:
    """For each class, assert both directions of the link between the
    greedy profile of ``pi`` and the minimal blocks in ``spans``: a pair
    whose minimal block lies outside the class is split between blocks,
    and the minimal block of any two block leaders lies outside it."""
    for inner in classes:
        dec = left_greedy_profile(pi, inner)
        block_of = {}
        for bi, (s, e) in enumerate(dec.segments):
            for q in range(s, e + 1):
                block_of[q] = bi
        for (i, j), (s, e) in spans.items():
            if not member(reduce(pi[s - 1 : e]), inner):
                assert block_of[i] != block_of[j]
        leaders = [s for s, _ in dec.segments]
        for ai, aj in itertools.combinations(leaders, 2):
            s, e = spans[(ai, aj)]
            assert not member(reduce(pi[s - 1 : e]), inner)
