import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from permwreath.basis_search import FAMILIES, antichain_member, check_antichain
from permwreath.cli import execute
from permwreath.perm_core import (
    _BOTH,
    _FREE,
    _LOWER,
    _UPPER,
    _matches,
    _pattern_table,
    CapExceeded,
    Permutation,
    delete_point,
    format_perm,
    inflate,
    intervals,
    involves,
    occurrences,
    parse_perm,
    reduce,
)

from conftest import (
    assert_intersections_are_intervals,
    direct_intervals,
    p,
    pattern_census,
    perms_of_length,
    perms_up_to,
    seeded_hosts,
)

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
        # Entries must be ints: 1.0 would print as "1.0", which no parser reads.
        for vals in ((1.0, 2.0), (True,)):
            with pytest.raises(ValueError, match="not a permutation"):
                Permutation(vals)
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


@lru_cache(maxsize=None)
def _frozen_neighbours(sigma):
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


def _frozen_involves(sigma, pi):
    """The backtracker before the value-gap and dominance prunings, frozen
    as the reference: entries left to right, each value kept strictly
    between its nearest earlier lower and upper neighbours, and nothing
    else pruned."""
    sig = tuple(sigma)
    host = tuple(pi)
    k, n = len(sig), len(host)
    if k > n:
        return False
    lo, hi = _frozen_neighbours(sig)
    chosen = [0] * k

    def go(t, start):
        if t == k:
            return True
        lo_v = chosen[lo[t]] if lo[t] >= 0 else 0
        hi_v = chosen[hi[t]] if hi[t] >= 0 else n + 1
        for q in range(start, n - (k - t) + 1):
            v = host[q]
            if lo_v < v < hi_v:
                chosen[t] = v
                if go(t + 1, q + 1):
                    return True
        return False

    return go(0, 0)


def _frozen_pattern_table(sigma):
    """The quadratic pattern table, frozen as the reference: each entry
    scans every earlier entry for its closest smaller and larger value."""
    k = len(sigma)
    value = (*sigma, 0, k + 1)
    lo = [k] * k
    hi = [k + 1] * k
    for t in range(k):
        for s in range(t):
            if sigma[s] < sigma[t]:
                if sigma[s] > value[lo[t]]:
                    lo[t] = s
            elif sigma[s] < value[hi[t]]:
                hi[t] = s
    lower = set(lo)
    upper = set(hi)
    role = [
        (_FREE, _LOWER, _UPPER, _BOTH)[(t in lower) + 2 * (t in upper)]
        for t in range(k)
    ]
    return tuple(
        (lo[t], sigma[t] - value[lo[t]], hi[t], value[hi[t]] - sigma[t], role[t])
        for t in range(k)
    )


class TestPatternTableMatchesFrozen:
    """The one-pass table agrees with the frozen quadratic one."""

    def test_every_short_pattern(self):
        for sigma in perms_up_to(7):
            assert _pattern_table(sigma) == _frozen_pattern_table(sigma), sigma

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_members(self, name):
        for k in (1, 2, 3, 10, 60):
            beta = antichain_member(name, k)
            assert _pattern_table(beta) == _frozen_pattern_table(beta), (name, k)


#: One pattern per dominance role, each holding it at an entry before
#: the last (where a failed candidate can occur).
ROLE_PATTERNS = {_LOWER: "1342", _UPPER: "4231", _BOTH: "2413", _FREE: "2134"}
LONG_HOST_PATTERNS = ("412563", "25134", "3412", "2143", "321654", *ROLE_PATTERNS.values())


def _grow_avoider(rng, n, sigma):
    # Insert maxima one at a time, each at a random slot that keeps the
    # host avoiding sigma; a slot at one end always does, as sigma's
    # maximum is not both its first and its last entry.  Growth asks the
    # kernel under test, which only shapes the inputs: the tests check
    # every final host against the frozen copy.
    vals = [1]
    for m in range(2, n + 1):
        slots = list(range(m))
        rng.shuffle(slots)
        for q in slots:
            cand = vals[:q] + [m] + vals[q:]
            if not involves(sigma, cand):
                vals = cand
                break
    return vals


def _insert_point(rng, vals):
    # One new point at a random position and value: often an occurrence.
    m = len(vals) + 1
    v = rng.randint(1, m)
    out = [w + 1 if w >= v else w for w in vals]
    out.insert(rng.randint(0, m - 1), v)
    return out


class TestInvolvesMatchesFrozenBacktracker:
    """The pruned backtracker agrees with the frozen one and brute force."""

    def test_every_short_pattern_in_every_short_host(self):
        patterns = list(perms_up_to(4))
        for pi in perms_up_to(7):
            inside = pattern_census(pi, 4)
            for sigma in patterns:
                expected = sigma in inside
                assert involves(sigma, pi) == expected, (sigma, pi)
                assert _frozen_involves(sigma, pi) == expected, (sigma, pi)

    def test_role_patterns_cover_every_role(self):
        for role, text in ROLE_PATTERNS.items():
            roles = [row[4] for row in _pattern_table(tuple(p(text)))]
            assert role in roles[:-1], (text, roles)

    @pytest.mark.parametrize("text", LONG_HOST_PATTERNS)
    def test_seeded_long_hosts(self, text):
        sigma = p(text)
        rng = random.Random(text)
        verdicts = set()
        for _ in range(6):
            avoider = _grow_avoider(rng, rng.randint(20, 60), sigma)
            hosts = (avoider, _insert_point(rng, avoider), _insert_point(rng, avoider))
            for pi in hosts:
                verdict = involves(sigma, pi)
                assert verdict == _frozen_involves(sigma, pi), (sigma, pi)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_members_against_their_bases(self, name):
        fam = FAMILIES[name]
        patterns = {b for cls in (fam.outer, *fam.inners) for b in cls.basis}
        verdicts = set()
        for k in range(1, 9):
            beta = antichain_member(name, k)
            for sigma in patterns:
                verdict = involves(sigma, beta)
                assert verdict == _frozen_involves(sigma, beta), (sigma, name, k)
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestReportedOccurrence:
    """A search that stops at its limit hands back the occurrence it
    stopped at: its values lie in the host in that order and reduce to
    the pattern.  A search that finds nothing reports nothing."""

    PATTERNS = tuple(sigma for sigma in perms_up_to(5) if len(sigma) > 1)

    def check_host(self, pi):
        inside = pattern_census(pi, 5)
        for sigma in self.PATTERNS:
            found = []
            count = _matches(sigma, pi, 1, None, found)
            if sigma in inside:
                positions = [pi.index(v) for v in found]
                assert count == 1, (sigma, pi)
                assert len(positions) == len(sigma), (sigma, pi, found)
                assert positions == sorted(set(positions)), (sigma, pi, found)
                assert reduce(found) == sigma, (sigma, pi, found)
            else:
                assert (count, found) == (0, []), (sigma, pi)

    def test_every_short_host(self):
        for pi in perms_up_to(6):
            self.check_host(pi)

    @pytest.mark.parametrize("n", [7, 8])
    def test_seeded_hosts(self, n):
        for pi in seeded_hosts(n):
            self.check_host(pi)

    def test_a_point_reports_the_first_point(self):
        found = []
        assert _matches(p("1"), p("312"), 1, None, found) == 3
        assert found == [3]

    def test_a_pinned_search_reports_nothing(self):
        with pytest.raises(ValueError, match="reports no occurrence"):
            _matches(p("21"), p("312"), 1, 0, [])


class TestOccurrences:
    def test_known_values(self):
        assert occurrences(p("321"), p("2513764")) == 1
        assert occurrences(p("25134"), p("2513764")) == 1
        for pi in (p("1"), p("4231"), p("25134")):
            assert occurrences(p("1"), pi) == len(pi)

    def test_agrees_with_combinations(self):
        # Independent count: try every index subset outright.
        patterns = list(perms_up_to(4))
        cases = [
            (p("132"), p("4271635")),
            (p("21"), p("25134")),
            (p("2413"), p("35142687")),
            *((sigma, pi) for pi in perms_up_to(7) for sigma in patterns),
        ]
        for sigma, pi in cases:
            expected = pattern_census(pi, 4)[sigma]
            assert occurrences(sigma, pi) == expected, (sigma, pi)

    def test_longer_pattern_and_empty_pattern(self):
        longer = p("12345")
        for pi in (p("1"), p("21"), p("2413")):
            assert not involves(longer, pi)
            assert occurrences(longer, pi) == 0
            assert involves((), pi)
            assert occurrences((), pi) == 1

    def test_positive_iff_involved(self):
        for pi in perms_of_length(5):
            for sigma in perms_of_length(3):
                assert (occurrences(sigma, pi) >= 1) == involves(sigma, pi)


class TestDeepPattern:
    """A 1,205-point pattern: one stack slot per entry, no recursion."""

    B = antichain_member("thm6", 600)
    C = antichain_member("thm6", 601)

    def test_library(self):
        assert len(self.B) == 1205
        assert involves(self.B, self.B)
        assert not involves(self.B, self.C)
        assert check_antichain([self.B, self.C])
        assert occurrences(self.B, self.B) == 1

    def test_cli(self):
        b = " ".join(map(str, self.B))
        res = execute(["--max-perm-len", "2000", "involve", b, b])
        assert (res.exit_code, res.stdout) == (0, "yes")


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
        # The skeleton is checked like the blocks.
        for skeleton in ((2, 3), (1, 1)):
            with pytest.raises(ValueError, match="not a permutation"):
                inflate(skeleton, [(1,), (1,)])

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
            assert intervals(pi) == list(direct_intervals(pi))

    def test_overlapping_intersection_is_interval(self):
        for pi in perms_up_to(6):
            assert_intersections_are_intervals(pi)


class TestPointHelpers:
    def test_delete_point(self):
        assert delete_point(p("2513764"), 5) == p("251364")
        with pytest.raises(ValueError):
            delete_point(p("21"), 3)
        with pytest.raises(ValueError):
            delete_point(p("1"), 1)
