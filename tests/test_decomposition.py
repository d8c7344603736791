import itertools

import pytest

from permwreath.basis_search import FAMILIES, antichain_member
from permwreath.decomposition import (
    INDECOMPOSABLE_BOTH,
    SKEW_DECOMPOSABLE,
    SUM_DECOMPOSABLE,
    SubstitutionDecomposition,
    is_simple,
    skeleton,
    substitution_decomposition,
    sum_skew_status,
)
from permwreath.perm_core import (
    Permutation,
    inflate,
    interval_end_table,
    involves,
    reduce,
)

from conftest import (
    direct_intervals,
    interval_segmentations,
    p,
    perms_of_length,
    perms_up_to,
)


def brute_simple(pi):
    # No interval but the singletons and the whole.
    return all(s == e or (s, e) == (1, len(pi)) for s, e in direct_intervals(pi))


class TestIsSimple:
    def test_known_values(self):
        assert not is_simple(p("132"))
        assert is_simple(p("1"))
        assert is_simple(p("12")) and is_simple(p("21"))
        assert is_simple(p("2413")) and is_simple(p("3142"))
        assert is_simple(p("35142"))

    def test_no_simple_of_length_three(self):
        assert not any(is_simple(pi) for pi in perms_of_length(3))

    def test_matches_direct_scan(self):
        for pi in perms_up_to(6):
            assert is_simple(pi) == brute_simple(pi)

    def test_simple_counts(self):
        # 2 simple permutations of each of lengths 1 and 2, none of
        # length 3, then 2, 6, 46 for lengths 4, 5, 6.
        counts = [sum(is_simple(pi) for pi in perms_of_length(n)) for n in range(1, 7)]
        assert counts == [1, 2, 0, 2, 6, 46]


def brute_decompositions(pi):
    """(skeleton, segments) for every cut of pi into consecutive interval
    segments, in mask order; the caller keeps the simple skeletons.
    Independent of the closed-form algorithm."""
    return [
        (reduce([pi[s - 1] for s, _ in segs]), segs)
        for segs in interval_segmentations(pi)
    ]


class TestSubstitutionDecomposition:
    def test_known_values(self):
        d = substitution_decomposition(p("346215"))
        assert d.skeleton == p("2413")
        assert d.block_patterns == (p("12"), p("1"), p("21"), p("1"))
        assert d.block_segments == ((1, 2), (3, 3), (4, 5), (6, 6))

        d = substitution_decomposition(p("217968543"))
        assert d.skeleton == p("12")
        assert d.block_patterns == (p("21"), p("5746321"))

        d = substitution_decomposition(p("35142"))
        assert d.skeleton == p("35142")
        assert all(b == p("1") for b in d.block_patterns)

    def test_length_one(self):
        d = substitution_decomposition(p("1"))
        assert d.skeleton == p("1") and d.block_segments == ((1, 1),)

    def test_reconstruction_exhaustive(self):
        for pi in perms_up_to(8):
            d = substitution_decomposition(pi)
            assert inflate(d.skeleton, d.block_patterns) == pi

    def test_sum_blocks_are_sum_indecomposable(self):
        for pi in perms_up_to(7):
            d = substitution_decomposition(pi)
            t = len(d.skeleton)
            if t >= 2 and d.skeleton == tuple(range(1, t + 1)):
                for b in d.block_patterns:
                    assert len(b) == 1 or sum_skew_status(b) != SUM_DECOMPOSABLE
            if t >= 2 and d.skeleton == tuple(range(t, 0, -1)):
                for b in d.block_patterns:
                    assert len(b) == 1 or sum_skew_status(b) != SKEW_DECOMPOSABLE

    def test_unique_when_skeleton_long(self):
        # When the skeleton is simple of length >= 4 the decomposition
        # is the only valid segmentation with a simple contraction.
        for pi in perms_up_to(7):
            d = substitution_decomposition(pi)
            if len(d.skeleton) < 4 or not is_simple(d.skeleton):
                continue
            found = [
                segs
                for skel, segs in brute_decompositions(pi)
                if is_simple(skel) and len(skel) >= 4
            ]
            assert found == [d.block_segments]


def frozen_decomposition(pi):
    """The decomposition as it was computed before it shared the greedy
    deflation kernel: prefix cuts for sums and skew sums, otherwise the
    longest proper interval from each start, read off the interval end
    table, with every skeleton and block reduced."""
    n = len(pi)
    if n == 1:
        return SubstitutionDecomposition(pi, ((1, 1),), (pi,))
    prefix_max = list(itertools.accumulate(pi, max))
    prefix_min = list(itertools.accumulate(pi, min))
    sum_cuts = [k for k in range(1, n) if prefix_max[k - 1] == k]
    skew_cuts = [k for k in range(1, n) if prefix_min[k - 1] == n - k + 1]
    cuts = sum_cuts or skew_cuts
    if cuts:
        bounds = [0] + cuts + [n]
        segs = [(a + 1, b) for a, b in zip(bounds, bounds[1:])]
        t = len(segs)
        skel = Permutation(range(1, t + 1) if sum_cuts else range(t, 0, -1))
    else:
        ends = interval_end_table(pi)
        segs = []
        s = 1
        while s <= n:
            e = max(e for e in ends[s] if e - s < n - 1)
            segs.append((s, e))
            s = e + 1
        skel = reduce([pi[s - 1] for s, _ in segs])
    patterns = tuple(reduce(pi[s - 1 : e]) for s, e in segs)
    return SubstitutionDecomposition(skel, tuple(segs), patterns)


class TestFrozenDecomposition:
    def test_matches_on_every_short_permutation(self):
        for pi in perms_up_to(8):
            assert substitution_decomposition(pi) == frozen_decomposition(pi), pi

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_on_long_family_members(self, name):
        for k in range(1, 61):
            pi = antichain_member(FAMILIES[name], k)
            assert substitution_decomposition(pi) == frozen_decomposition(pi), k


class TestSkeleton:
    def test_known_values(self):
        assert skeleton(p("346215")) == p("2413")
        assert skeleton(p("456123")) == p("21")
        assert skeleton(p("123456")) == p("12")
        assert skeleton(p("1")) == p("1")
        for pi in (p("2413"), p("35142")):
            assert skeleton(pi) == pi

    def test_skeleton_is_simple_and_involved(self):
        for pi in perms_up_to(7):
            sk = skeleton(pi)
            assert is_simple(sk)
            assert involves(sk, pi)


class TestSumSkewStatus:
    def test_known_values(self):
        assert sum_skew_status(p("12")) == SUM_DECOMPOSABLE
        assert sum_skew_status(p("21")) == SKEW_DECOMPOSABLE
        assert sum_skew_status(p("2513764")) == INDECOMPOSABLE_BOTH

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            sum_skew_status(p("1"))

    def test_never_both(self):
        for pi in perms_up_to(8):
            if len(pi) < 2:
                continue
            prefix_max = list(itertools.accumulate(pi, max))
            prefix_min = list(itertools.accumulate(pi, min))
            n = len(pi)
            is_sum = any(prefix_max[k - 1] == k for k in range(1, n))
            is_skew = any(prefix_min[k - 1] == n - k + 1 for k in range(1, n))
            assert not (is_sum and is_skew)
            status = sum_skew_status(pi)
            assert (status == SUM_DECOMPOSABLE) == is_sum
            assert (status == SKEW_DECOMPOSABLE) == is_skew
