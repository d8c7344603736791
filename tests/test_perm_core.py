import itertools

import pytest
from hypothesis import given, strategies as st

from permwreath.perm_core import (
    CapExceeded,
    Permutation,
    delete_point,
    format_perm,
    inflate,
    intervals,
    involves,
    occurrence_positions,
    occurrences,
    parse_perm,
    points,
    reduce,
)

from conftest import p, perms_of_length, perms_up_to

perm_values = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation(())
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        # Only text read by parse_perm is capped.
        assert len(Permutation(range(1, 100))) == 99
        long_text = " ".join(str(v) for v in range(1, 100))
        with pytest.raises(CapExceeded):
            parse_perm(long_text)
        assert len(parse_perm(long_text, max_len=128)) == 99

    def test_behaves_like_a_tuple(self):
        pi = p("2513764")
        assert pi[0] == 2 and pi[-1] == 4
        assert pi == (2, 5, 1, 3, 7, 6, 4)
        assert hash(pi) == hash((2, 5, 1, 3, 7, 6, 4))


class TestParseFormat:
    def test_forms(self):
        assert p("2513764") == p("2, 5, 1, 3, 7, 6, 4") == p("2 5 1 3 7 6 4")

    def test_compact_only_up_to_nine(self):
        with pytest.raises(ValueError):
            parse_perm("123456789X")
        with pytest.raises(ValueError):
            parse_perm("12345678910")  # needs separators
        long = parse_perm("10 1 8 4 6 9 11 7 5 2 3")
        assert len(long) == 11

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            parse_perm("")
        with pytest.raises(ValueError):
            parse_perm("  ")

    @given(perm_values)
    def test_round_trip(self, vals):
        pi = Permutation(vals)
        assert parse_perm(format_perm(pi)) == pi
        assert parse_perm(str(pi)) == pi


class TestReduce:
    def test_known_values(self):
        assert reduce((3, 5, 4, 7)) == p("1324")
        assert reduce((2, 9, 4)) == p("132")
        assert reduce(range(1, 8)) == p("1234567")

    @given(perm_values)
    def test_idempotent(self, vals):
        pi = Permutation(vals)
        assert reduce(pi) == pi

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reduce(())
        with pytest.raises(ValueError):
            reduce((1, 2, 1))


class TestInvolves:
    def test_known_values(self):
        assert involves(p("1324"), p("6351427"))
        assert not involves(p("21"), p("12"))
        assert involves(p("25134"), p("251364"))

    def test_longer_pattern_never_involved(self):
        assert not involves(p("1234"), p("321"))

    @given(perm_values, st.data())
    def test_any_subsequence_is_involved(self, vals, data):
        pi = Permutation(vals)
        k = data.draw(st.integers(min_value=1, max_value=len(pi)))
        positions = sorted(
            data.draw(
                st.lists(
                    st.integers(0, len(pi) - 1), min_size=k, max_size=k, unique=True
                )
            )
        )
        sigma = reduce([pi[i] for i in positions])
        assert involves(sigma, pi)

    def test_reflexive_up_to_seven(self):
        for pi in perms_up_to(7):
            assert involves(pi, pi)

    def test_partial_order_small(self):
        # Reflexive, antisymmetric and transitive over all lengths <= 5,
        # checked through the full involvement matrix.
        universe = list(perms_up_to(5))
        index = {q: i for i, q in enumerate(universe)}
        below = [0] * len(universe)
        for a in universe:
            for b in universe:
                if involves(a, b):
                    below[index[b]] |= 1 << index[a]
        for i, a in enumerate(universe):
            assert below[i] & (1 << i)  # reflexive
            for j in range(len(universe)):
                if i != j and (below[i] >> j) & 1 and (below[j] >> i) & 1:
                    pytest.fail(f"antisymmetry broke on {universe[i]}, {universe[j]}")
        for j, b in enumerate(universe):
            mask = below[j]
            k = mask
            while k:
                low = k & -k
                i = low.bit_length() - 1
                assert below[i] & ~mask == 0  # transitive: below[i] subset of mask
                k ^= low


class TestOccurrences:
    def test_known_values(self):
        assert occurrences(p("321"), p("2513764")) == 1
        assert occurrences(p("25134"), p("2513764")) == 1
        for pi in (p("1"), p("4231"), p("25134")):
            assert occurrences(p("1"), pi) == len(pi)

    def test_agrees_with_combinations(self):
        # Independent count: try every index subset outright.
        for sigma, pi in [
            (p("132"), p("4271635")),
            (p("21"), p("25134")),
            (p("2413"), p("35142687")),
        ]:
            expected = sum(
                1
                for combo in itertools.combinations(pi, len(sigma))
                if reduce(combo) == sigma
            )
            assert occurrences(sigma, pi) == expected

    def test_positive_iff_involved(self):
        for pi in perms_of_length(5):
            for sigma in perms_of_length(3):
                assert (occurrences(sigma, pi) >= 1) == involves(sigma, pi)

    def test_occurrence_positions_reduce_to_pattern(self):
        sigma, pi = p("25134"), p("2513764")
        hits = list(occurrence_positions(sigma, pi))
        assert hits == [(1, 2, 3, 4, 7)]
        for positions in hits:
            assert reduce([pi[q - 1] for q in positions]) == sigma


class TestInflate:
    def test_worked_example(self):
        assert inflate(p("132"), [p("21"), p("2413"), p("321")]) == p("217968543")

    def test_identity_cases(self):
        pi = p("35142")
        assert inflate(p("1"), [pi]) == pi
        assert inflate(p("2413"), [p("12"), p("1"), p("21"), p("1")]) == p("346215")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inflate(p("12"), [p("1")])

    @given(perm_values)
    def test_output_is_already_reduced(self, vals):
        pi = Permutation(vals)
        blocks = [p("12") if v % 2 else p("1") for v in pi]
        out = inflate(pi, blocks)
        assert reduce(out) == out
        assert len(out) == sum(len(b) for b in blocks)


class TestIntervals:
    def test_known_values(self):
        assert (2, 6) in intervals(p("236745981"))
        assert intervals(p("2413")) == [(1, 1), (1, 4), (2, 2), (3, 3), (4, 4)]

    def test_singletons_and_whole_always_present(self):
        for pi in perms_up_to(6):
            ivs = set(intervals(pi))
            n = len(pi)
            assert (1, n) in ivs
            assert all((k, k) in ivs for k in range(1, n + 1))

    def test_matches_direct_scan(self):
        for pi in perms_of_length(6):
            expected = [
                (s, e)
                for s in range(1, 7)
                for e in range(s, 7)
                if sorted(pi[s - 1 : e]) == list(range(min(pi[s - 1 : e]), max(pi[s - 1 : e]) + 1))
                and max(pi[s - 1 : e]) - min(pi[s - 1 : e]) == e - s
            ]
            assert intervals(pi) == expected

    def test_overlapping_intersection_is_interval(self):
        for pi in perms_up_to(6):
            ivs = intervals(pi)
            ivset = set(ivs)
            for (s1, e1), (s2, e2) in itertools.combinations(ivs, 2):
                s, e = max(s1, s2), min(e1, e2)
                if s <= e:
                    assert (s, e) in ivset


class TestPointHelpers:
    def test_points(self):
        assert points(p("312")) == ((1, 3), (2, 1), (3, 2))

    def test_delete_point(self):
        assert delete_point(p("2513764"), 5) == p("251364")
        with pytest.raises(ValueError):
            delete_point(p("21"), 3)
        with pytest.raises(ValueError):
            delete_point(p("1"), 1)
