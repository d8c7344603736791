import pytest
from hypothesis import given, settings, strategies as st

from permwreath import avoidance
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
    _profile_of,
    all_deflations,
    is_valid_deflation,
    left_greedy_profile,
    wreath_member,
)

from conftest import (
    assert_greedy_is_unique_shortest,
    assert_profile_block_link,
    interval_segmentations,
    p,
    perms_up_to,
    span_table,
)

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
    return {
        reduce([pi[s - 1] for s, _ in segs])
        for segs in interval_segmentations(pi)
        if all(member(reduce(pi[s - 1 : e]), inner) for s, e in segs)
    }


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
                assert_greedy_is_unique_shortest(pi, inner)

    def test_shortest_and_unique_at_length_eight(self):
        # The length-8 sweep for the other three classes runs in the
        # acceptance suite; this covers the remaining one.
        inner = av(123)
        for pi in perms_up_to(8):
            assert_greedy_is_unique_shortest(pi, inner)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=9, max_value=10).flatmap(inflation_built))
    def test_shortest_and_unique_on_longer_hosts(self, vals):
        pi = p(",".join(map(str, vals)))
        for inner in STANDARD_CLASSES:
            assert_greedy_is_unique_shortest(pi, inner)

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
SCAN_INNERS = [
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

    def test_the_whole_host_is_tested_through_the_memo(self, monkeypatch):
        # 13254 is one av(321) block, so the pass tests its blocks 132 and
        # 13254, both through the memo; a second pass finds every verdict
        # there.
        host, outer, inner = p("13254"), av(21), av(321)
        assert wreath_member(host, outer, inner)
        asked = []
        real = avoidance._member
        monkeypatch.setattr(
            avoidance, "_member", lambda pi, cls: asked.append(pi) or real(pi, cls)
        )
        before = real.cache_info()
        assert wreath_member(host, outer, inner)
        after = real.cache_info()
        assert p("132") in asked and host in asked
        assert after.misses == before.misses
        assert after.hits - before.hits == len(asked)

    @pytest.mark.parametrize("inner", SCAN_INNERS, ids=class_literal)
    def test_a_child_keeps_its_parents_profile_or_gains_blocks(self, inner):
        # Inserting the new maximum never shortens the greedy deflation,
        # and a child with as many blocks as its parent has the parent's
        # profile: the greedy kernel's own invariant under the basis
        # scan's insertions.
        for mu in perms_up_to(6):
            n = len(mu) + 1
            _, plows = _greedy_blocks(mu, inner, False)
            for at in range(n):
                child = mu[:at] + (n,) + mu[at:]
                _, lows = _greedy_blocks(child, inner, False)
                assert len(lows) >= len(plows), (mu, at)
                if len(lows) == len(plows):
                    assert _profile_of(lows, n) == _profile_of(plows, n - 1), (mu, at)


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
        # Two family inner classes join the standard ones: a block class of
        # two basis elements, one of them of length 4.
        for pi in perms_up_to(6):
            for inner in (*STANDARD_CLASSES, av(321, 3412), av(4321, 4123)):
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
            if len(pi) >= 2:
                spans = span_table(pi, lambda i, j: minimal_block(pi, i, j).pos_range)
                assert_profile_block_link(pi, spans, STANDARD_CLASSES)
