import itertools

import pytest
from hypothesis import given, settings, strategies as st

from permwreath.avoidance import av, class_literal, member, named
from permwreath.basis_search import FAMILIES
from permwreath.decomposition import skeleton
from permwreath.perm_core import (
    CapExceeded,
    inflate,
    interval_end_table,
    involves,
    reduce,
)
from permwreath.profile import (
    ProfileDecomposition,
    _greedy_blocks,
    all_deflations,
    is_valid_deflation,
    left_greedy_profile,
    wreath_member,
)

from conftest import p, perms_up_to

STANDARD_CLASSES = (av(21), av(123), av(321), named("av3412-2413"))
FAMILY_INNERS = sorted(
    {inner for fam in FAMILIES.values() for inner in fam.inners}, key=class_literal
)


def descending_greedy_profile(pi, inner):
    """The greedy kernel as first written, frozen as a reference: it
    tries every interval end from each start, longest first, and takes
    each block's pattern with ``reduce``."""
    n = len(pi)
    ends = interval_end_table(pi)
    segments, patterns = [], []
    s = 1
    while s <= n:
        for e in reversed(ends[s]):
            pat = reduce(pi[s - 1 : e])
            if member(pat, inner):
                segments.append((s, e))
                patterns.append(pat)
                s = e + 1
                break
    profile = reduce([pi[s - 1] for s, _ in segments])
    return ProfileDecomposition(profile, tuple(segments), tuple(patterns))


@st.composite
def inflation_built(draw, length, depth=3):
    """A host of the given length built by nested inflations, so that it
    has long intervals and blocks inside the families' inner classes."""
    if length == 1:
        return (1,)
    shape = draw(st.sampled_from(("increasing", "decreasing", "random", "inflate")))
    if shape == "increasing":
        return tuple(range(1, length + 1))
    if shape == "decreasing":
        return tuple(range(length, 0, -1))
    if shape == "random" or depth == 0:
        return tuple(draw(st.permutations(range(1, length + 1))))
    m = draw(st.integers(min_value=2, max_value=min(length, 8)))
    cuts = sorted(
        draw(st.sets(st.integers(1, length - 1), min_size=m - 1, max_size=m - 1))
    )
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, length])]
    skel = draw(st.permutations(range(1, m + 1)))
    blocks = [draw(inflation_built(size, depth - 1)) for size in sizes]
    return tuple(inflate(skel, blocks))


def deflations_by_mask(pi, inner):
    """Mask-driven re-derivation of the deflation set, independent of
    the recursive scan under test."""
    n = len(pi)
    out = set()
    for mask in range(1 << (n - 1)):
        segs = []
        start = 1
        for k in range(1, n):
            if mask >> (k - 1) & 1:
                segs.append((start, k))
                start = k + 1
        segs.append((start, n))
        good = True
        for s, e in segs:
            seg = pi[s - 1 : e]
            if max(seg) - min(seg) != e - s or not member(reduce(seg), inner):
                good = False
                break
        if good:
            out.add(reduce([pi[s - 1] for s, _ in segs]))
    return out


class TestLeftGreedyProfile:
    def test_worked_examples(self):
        dec = left_greedy_profile(p("234615"), av(123))
        assert dec.profile == p("23514")
        assert dec.block_patterns == (p("12"), p("1"), p("1"), p("1"), p("1"))
        assert dec.segments == ((1, 2), (3, 3), (4, 4), (5, 5), (6, 6))

        assert left_greedy_profile(p("3415672"), av(21)).profile == p("3142")

        dec = left_greedy_profile(p("2513764"), av(321))
        assert dec.profile == p("251364")
        assert [seg for seg in dec.segments if seg[0] != seg[1]] == [(5, 6)]

    def test_member_contracts_to_a_point(self):
        for pi in (p("132"), p("251364")):
            dec = left_greedy_profile(pi, av(321))
            assert member(pi, av(321))
            assert dec.profile == p("1")
            assert dec.segments == ((1, len(pi)),)

    def test_block_class_must_contain_a_point(self):
        with pytest.raises(ValueError):
            left_greedy_profile(p("12"), av(1))

    def test_shortest_and_unique(self):
        for pi in perms_up_to(7):
            for inner in STANDARD_CLASSES:
                dec = left_greedy_profile(pi, inner)
                defls = all_deflations(pi, inner)
                assert dec.profile in defls
                shortest = min(len(d) for d in defls)
                assert len(dec.profile) == shortest
                assert sum(1 for d in defls if len(d) == shortest) == 1

    def test_shortest_and_unique_at_length_eight(self):
        # The length-8 sweep for the other three classes runs in the
        # acceptance suite; this covers the remaining one.
        inner = av(123)
        for pi in perms_up_to(8):
            dec = left_greedy_profile(pi, inner)
            defls = all_deflations(pi, inner)
            shortest = min(len(d) for d in defls)
            assert len(dec.profile) == shortest
            assert sum(1 for d in defls if len(d) == shortest) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=9, max_value=10).flatmap(inflation_built))
    def test_shortest_and_unique_on_longer_hosts(self, vals):
        pi = p(",".join(map(str, vals)))
        for inner in STANDARD_CLASSES:
            defls = all_deflations(pi, inner)
            shortest = min(len(d) for d in defls)
            assert [d for d in defls if len(d) == shortest] == [
                left_greedy_profile(pi, inner).profile
            ]

    def test_matches_descending_kernel_exhaustively(self):
        for pi in perms_up_to(7):
            for inner in STANDARD_CLASSES:
                assert left_greedy_profile(pi, inner) == descending_greedy_profile(
                    pi, inner
                )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=12, max_value=40).flatmap(inflation_built),
        st.sampled_from(FAMILY_INNERS),
    )
    def test_matches_descending_kernel_on_long_hosts(self, vals, inner):
        pi = p(",".join(map(str, vals)))
        assert left_greedy_profile(pi, inner) == descending_greedy_profile(pi, inner)

    def test_matches_descending_kernel_for_every_permutation(self):
        # av() has no basis: no block is ever tested, and every interval
        # qualifies.
        for pi in perms_up_to(7):
            assert left_greedy_profile(pi, av()) == descending_greedy_profile(pi, av())

    def test_decomposition_validates(self):
        for pi in perms_up_to(6):
            for inner in STANDARD_CLASSES:
                dec = left_greedy_profile(pi, inner)
                assert is_valid_deflation(pi, dec, inner)

    def test_skeleton_bound(self):
        for pi in perms_up_to(7):
            for inner in STANDARD_CLASSES:
                if not member(pi, inner):
                    assert involves(skeleton(pi), left_greedy_profile(pi, inner).profile)


class TestWreathMember:
    def test_worked_examples(self):
        assert not wreath_member(p("2513764"), av(25134), av(321))
        assert wreath_member(p("251364"), av(25134), av(321))
        assert wreath_member(p("1"), av(25134), av(321))
        assert wreath_member(p("1"), av(21), av(21))

    def test_empty_block_class(self):
        assert not wreath_member(p("1"), av(21), av(1))

    def test_agrees_with_deflation_oracle(self):
        pairs = [(av(21), av(21)), (av(321), av(21)), (av(25134), av(321))]
        for pi in perms_up_to(6):
            for outer, inner in pairs:
                oracle = any(member(d, outer) for d in all_deflations(pi, inner))
                assert wreath_member(pi, outer, inner) == oracle

    def test_closed_downward(self):
        from permwreath.perm_core import delete_point

        outer, inner = av(25134), av(321)
        for pi in perms_up_to(6):
            if wreath_member(pi, outer, inner) and len(pi) > 1:
                for q in range(1, len(pi) + 1):
                    assert wreath_member(delete_point(pi, q), outer, inner)


#: Inner classes of the pairs the basis scan is checked on, and the
#: families' inner classes (av(321) among them); av(12,21) holds only
#: the point, and av(1) not even that, so all their blocks are points.
RESUMED_INNERS = [
    av(231),
    av(21),
    av(2413, 3142),
    av(12, 21),
    av(12),
    av(1),
    *FAMILY_INNERS,
]


class TestGreedyBlocksKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=12, max_value=40).flatmap(inflation_built),
        st.sampled_from(FAMILY_INNERS),
    )
    def test_outside_inner_hint_keeps_the_blocks(self, vals, inner):
        pi = p(",".join(map(str, vals)))
        if not member(pi, inner):
            assert _greedy_blocks(pi, inner, True) == _greedy_blocks(pi, inner, False)

    @pytest.mark.parametrize("inner", RESUMED_INNERS, ids=class_literal)
    def test_resumed_greedy_equals_the_full_pass(self, inner):
        # The parent's blocks before the one holding index p - 1, the
        # re-run from that block's start, and the parent's blocks from
        # the rejoin on, moved one place right, are the child's blocks.
        for mu in perms_up_to(6):
            n = len(mu) + 1
            outside = not member(mu, inner)
            pends, plows = _greedy_blocks(mu, inner, outside)
            starts = [0, *(e + 1 for e in pends[:-1])]
            rejoin = {s + 1: j for j, s in enumerate(starts)}
            for at in range(n):
                k = next(b for b, e in enumerate(pends) if e >= at - 1)
                child = list(mu[:at]) + [n] + list(mu[at:])
                ends, lows = _greedy_blocks(child, inner, outside, starts[k], rejoin, at)
                j = rejoin.get(ends[-1] + 1, len(plows))
                assert (
                    pends[:k] + ends + [e + 1 for e in pends[j:]],
                    plows[:k] + lows + plows[j:],
                ) == _greedy_blocks(child, inner, False), (mu, at)


class TestAllDeflations:
    def test_worked_examples(self):
        out = all_deflations(p("234615"), av(123))
        assert p("23514") in out and p("234615") in out

        assert p("1") in all_deflations(p("251364"), av(321))
        assert all_deflations(p("21"), av(21)) == {p("21")}

    def test_cap(self):
        with pytest.raises(CapExceeded):
            all_deflations(p("10 1 8 4 6 9 11 7 5 2 3"), av(21))

    def test_matches_mask_enumeration(self):
        for pi in perms_up_to(6):
            for inner in STANDARD_CLASSES:
                assert all_deflations(pi, inner) == deflations_by_mask(pi, inner)


class TestIsValidDeflation:
    def test_explicit_good_decomposition(self):
        dec = ProfileDecomposition(
            p("23514"),
            ((1, 2), (3, 3), (4, 4), (5, 5), (6, 6)),
            (p("12"), p("1"), p("1"), p("1"), p("1")),
        )
        assert is_valid_deflation(p("234615"), dec, av(123))
        # the other valid block choice for the same profile
        dec2 = ProfileDecomposition(
            p("23514"),
            ((1, 1), (2, 3), (4, 4), (5, 5), (6, 6)),
            (p("1"), p("12"), p("1"), p("1"), p("1")),
        )
        assert is_valid_deflation(p("234615"), dec2, av(123))

    def test_non_interval_segment_rejected(self):
        dec = ProfileDecomposition(
            p("23514"),
            ((1, 1), (2, 2), (3, 4), (5, 5), (6, 6)),
            (p("1"), p("1"), p("12"), p("1"), p("1")),
        )
        assert not is_valid_deflation(p("234615"), dec, av(123))

    def test_trivial_decomposition_accepted(self):
        for pi in (p("2513764"), p("35142")):
            n = len(pi)
            dec = ProfileDecomposition(
                pi, tuple((k, k) for k in range(1, n + 1)), (p("1"),) * n
            )
            assert is_valid_deflation(pi, dec, av(21))

    def test_pattern_outside_class_rejected(self):
        dec = ProfileDecomposition(p("1"), ((1, 2),), (p("21"),))
        assert not is_valid_deflation(p("21"), dec, av(21))

    def test_gap_rejected(self):
        dec = ProfileDecomposition(p("1"), ((1, 1),), (p("1"),))
        assert not is_valid_deflation(p("12"), dec, av(21))


class TestProfileMinimalBlockLink:
    def test_link_both_directions(self):
        from permwreath.blocks_pins import minimal_block

        for pi in perms_up_to(6):
            n = len(pi)
            if n < 2:
                continue
            spans = {
                (i, j): minimal_block(pi, i, j).pos_range
                for i in range(1, n)
                for j in range(i + 1, n + 1)
            }
            for inner in STANDARD_CLASSES:
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
