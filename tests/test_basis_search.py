import pytest

from permwreath.avoidance import av, class_literal, member, named
from permwreath.basis_search import (
    FAMILIES,
    VerifyResult,
    antichain_member,
    basis_elements_of_length,
    check_antichain,
    family_points,
    verify_basis_element,
    wreath_basis,
)
from permwreath.decomposition import INDECOMPOSABLE_BOTH, sum_skew_status
from permwreath.perm_core import (
    ONE,
    CapExceeded,
    Permutation,
    _trusted,
    delete_point,
    occurrences,
)
from permwreath.profile import all_deflations, wreath_member

from conftest import p, perms_up_to


class TestAntichainMember:
    def test_first_family_values(self):
        assert antichain_member("thm6", 1) == p("2513764")
        assert antichain_member("thm6", 2) == p("251374986")
        assert antichain_member("thm6", 3) == p("2 5 1 3 7 4 9 6 11 10 8")
        assert antichain_member("thm6", 5) == p(
            "2 5 1 3 7 4 9 6 11 8 13 10 15 14 12"
        )

    def test_four_point_tail_family_values(self):
        assert antichain_member("ex2ii", 1) == p("2 5 1 3 8 7 6 4")
        assert antichain_member("ex2ii", 2) == p("2 5 1 3 7 4 10 9 8 6")
        assert antichain_member("ex2iii", 1) == p("2 5 1 3 8 7 4 6")
        assert antichain_member("ex3-4321-4123", 1) == p("2 5 1 4 8 7 6 3")
        assert antichain_member("ex3-4321-4123", 2) == p("2 5 1 4 7 3 10 9 8 6")

    def test_widdershins_family_values(self):
        assert antichain_member("widdershins-2413", 1) == p("8 1 6 4 9 7 5 2 3")
        assert antichain_member("widdershins-2413", 3) == p(
            "16 1 14 4 12 6 10 8 13 11 9 15 7 17 5 2 3"
        )
        assert antichain_member("widdershins-2143", 1) == p(
            "10 1 8 4 6 9 11 7 5 2 3"
        )

    def test_lengths(self):
        for k in range(1, 7):
            assert len(antichain_member("thm6", k)) == 2 * k + 5
            assert len(antichain_member("ex2ii", k)) == 2 * k + 6
            assert len(antichain_member("widdershins-2413", k)) == 4 * k + 5
            assert len(antichain_member("widdershins-2143", k)) == 4 * k + 7

    def test_bad_input(self):
        with pytest.raises(ValueError):
            antichain_member("nope", 1)
        with pytest.raises(ValueError):
            antichain_member("thm6", 0)



# A frozen copy of the family generators as they were first written, one
# explicit body per family with the k = 1 members spelled out.  It is the
# oracle for the shared spine and spiral constructions in basis_search.

def _oracle_interleave(highs, lows):
    out = []
    for h, l in zip(highs, lows):
        out.extend((h, l))
    return out


def _oracle_mid(k):
    return _oracle_interleave(
        [2 * j + 3 for j in range(3, k + 1)], [2 * j for j in range(3, k + 1)]
    )


def _oracle_tail4(k):
    return [2 * k + 6, 2 * k + 5, 2 * k + 4, 2 * k + 2]


def _oracle_swap_last_two(vals):
    return vals[:-2] + [vals[-1], vals[-2]]


def _oracle_thm6(k):
    if k == 1:
        return [2, 5, 1, 3, 7, 6, 4]
    return [2, 5, 1, 3, 7, 4, *_oracle_mid(k), 2 * k + 5, 2 * k + 4, 2 * k + 2]


def _oracle_ex2ii(k):
    if k == 1:
        return [2, 5, 1, 3, 8, 7, 6, 4]
    return [2, 5, 1, 3, 7, 4, *_oracle_mid(k), *_oracle_tail4(k)]


def _oracle_ex3_4321(k):
    if k == 1:
        return [2, 5, 1, 4, 8, 7, 6, 3]
    return [2, 5, 1, 4, 7, 3, *_oracle_mid(k), *_oracle_tail4(k)]


def _oracle_wid_2413(k):
    descent = _oracle_interleave(
        list(range(4 * k + 4, 2 * k + 5, -2)),
        [1] + list(range(4, 2 * k + 1, 2)),
    )
    middle = [2 * k + 4, 2 * k + 2, 2 * k + 7, 2 * k + 5, 2 * k + 3]
    ascent = _oracle_interleave(
        list(range(2 * k + 9, 4 * k + 6, 2)),
        list(range(2 * k + 1, 4, -2)),
    )
    return [*descent, *middle, *ascent, 2, 3]


def _oracle_wid_2143(k):
    descent = _oracle_interleave(
        list(range(4 * k + 6, 2 * k + 7, -2)),
        [1] + list(range(4, 2 * k + 1, 2)),
    )
    middle = [
        2 * k + 6,
        2 * k + 2,
        2 * k + 4,
        2 * k + 7,
        2 * k + 9,
        2 * k + 5,
        2 * k + 3,
    ]
    ascent = _oracle_interleave(
        list(range(2 * k + 11, 4 * k + 8, 2)),
        list(range(2 * k + 1, 4, -2)),
    )
    return [*descent, *middle, *ascent, 2, 3]


ORACLE_FAMILIES = {
    "thm6": _oracle_thm6,
    "ex2ii": _oracle_ex2ii,
    "ex2iii": lambda k: _oracle_swap_last_two(_oracle_ex2ii(k)),
    "ex3-4321-4123": _oracle_ex3_4321,
    "ex3-4312-4123": lambda k: _oracle_swap_last_two(_oracle_ex3_4321(k)),
    "widdershins-2413": _oracle_wid_2413,
    "widdershins-2143": _oracle_wid_2143,
}


class TestFamiliesMatchFrozenOracle:
    def test_oracle_covers_every_family(self):
        assert set(ORACLE_FAMILIES) == set(FAMILIES)

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_members_up_to_thirty(self, name):
        # Every member is built, however long; only parsed text is capped.
        for k in range(1, 31):
            expected = ORACLE_FAMILIES[name](k)
            assert FAMILIES[name].generate(k) == expected, k
            assert antichain_member(name, k) == Permutation(expected), k

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_points_are_affine_in_k(self, name):
        lengths = [len(ORACLE_FAMILIES[name](k)) for k in range(1, 31)]
        for k in range(1, 31):
            assert family_points(FAMILIES[name], k) == lengths[k - 1], k
            assert family_points(FAMILIES[name], k, upto=True) == sum(lengths[:k]), k
        assert family_points(FAMILIES[name], 0, upto=True) == 0


class TestCheckAntichain:
    def test_families_are_antichains(self):
        for name in FAMILIES:
            members = [antichain_member(name, k) for k in range(1, 9)]
            assert check_antichain(members)

    def test_comparable_pairs_rejected(self):
        assert not check_antichain([p("1"), p("12")])
        assert check_antichain([p("2413"), p("3142")])
        assert not check_antichain([p("21"), p("21")])


class TestVerifyBasisElement:
    def test_worked_examples(self):
        assert verify_basis_element(p("2513764"), av(25134), av(321)).ok
        assert verify_basis_element(
            p("816497523"), av(31542), named("av3412-2413")
        ).ok
        res = verify_basis_element(p("12"), av(21), av(21))
        assert not res.ok and "member" in res.reason

    def test_failure_witness_for_non_minimal(self):
        # 321 inside a longer permutation that is not minimal for this
        # product: some deletion still contains 321.
        res = verify_basis_element(p("4321"), av(321), av(21))
        assert not res.ok
        assert res.deleted_position is not None
        assert res.witness is not None
        assert not wreath_member(res.witness, av(321), av(21))

    def test_every_family_pairing(self):
        for name, fam in FAMILIES.items():
            for inner in fam.inners:
                for k in (1, 2, 3):
                    beta = antichain_member(name, k)
                    assert verify_basis_element(beta, fam.outer, inner).ok, (
                        name,
                        str(inner),
                        k,
                    )

    def test_deeper_members_against_canonical_pairing(self):
        for name, fam in FAMILIES.items():
            for k in (4, 5):
                beta = antichain_member(name, k)
                assert verify_basis_element(beta, fam.outer, fam.inner).ok, (name, k)

    @pytest.mark.parametrize(
        "name, k, points", [("widdershins-2143", 20, 87), ("widdershins-2413", 25, 105)]
    )
    def test_long_spiral_members(self, name, k, points):
        fam = FAMILIES[name]
        beta = antichain_member(name, k)
        assert len(beta) == points
        assert verify_basis_element(beta, fam.outer, fam.inner).ok


def _verify_on_full_classes(pi, outer, inner):
    # The verification as it stood before the live-basis cut, frozen as
    # the reference: every membership test runs on the full classes.
    if wreath_member(pi, outer, inner):
        return VerifyResult(False, "the permutation is a member of the product")
    if len(pi) > 1:
        for pos in range(1, len(pi) + 1):
            d = delete_point(pi, pos)
            if not wreath_member(d, outer, inner):
                return VerifyResult(
                    False,
                    f"deleting position {pos} leaves a non-member",
                    deleted_position=pos,
                    witness=d,
                )
    return VerifyResult(True, "minimal non-member")


@pytest.mark.filterwarnings("error::permwreath.avoidance.BasisNormalizationWarning")
class TestVerifyMatchesFullClasses:
    """The live-basis cut leaves every field of the verdict unchanged."""

    def test_every_short_permutation(self):
        pairs = (
            (av(25134), av(321)),
            (av(321), av(21)),
            (av(1), av(21)),
            (av(21), av(1)),
            (av(), av(321)),
        )
        for outer, inner in pairs:
            for pi in perms_up_to(7):
                assert verify_basis_element(pi, outer, inner) == (
                    _verify_on_full_classes(pi, outer, inner)
                ), (pi, outer, inner)

    def test_family_members(self):
        for name, fam in FAMILIES.items():
            for inner in fam.inners:
                for k in range(1, 9):
                    beta = antichain_member(name, k)
                    assert verify_basis_element(beta, fam.outer, inner) == (
                        _verify_on_full_classes(beta, fam.outer, inner)
                    ), (name, str(inner), k)

    def test_long_non_minimal_hosts(self):
        # A point inserted into a family member leaves a non-member that
        # is not minimal, so the verdict names a deletion and its witness.
        for name, fam in FAMILIES.items():
            beta = antichain_member(name, 8)
            m = len(beta) // 2
            vals = [v + 1 if v >= m else v for v in beta]
            pi = Permutation(vals[: m - 1] + [m] + vals[m - 1 :])
            got = verify_basis_element(pi, fam.outer, fam.inner)
            assert got == _verify_on_full_classes(pi, fam.outer, fam.inner), name
            assert got.witness is not None


class TestFirstFamilyStructure:
    def test_anchor_occurrences_unique(self):
        for k in range(1, 6):
            beta = antichain_member("thm6", k)
            assert occurrences(p("321"), beta) == 1
            assert occurrences(p("25134"), beta) == 1
            assert sum_skew_status(beta) == INDECOMPOSABLE_BOTH

    def test_unique_descent_occurrence_sits_at_the_top(self):
        from permwreath.perm_core import occurrence_positions

        for k in range(1, 6):
            beta = antichain_member("thm6", k)
            hits = list(occurrence_positions(p("321"), beta))
            assert len(hits) == 1
            values = tuple(beta[q - 1] for q in hits[0])
            assert values == (2 * k + 5, 2 * k + 4, 2 * k + 2)


#: Products whose inner class has members at every length; av() is the
#: empty basis, the class of every permutation.
INNER_KEEPS_LONG_MEMBERS = [
    (av(321), av(123)),
    (av(25134), av(3412, 2413)),
    (av(2413, 3142), av(231)),
    (av(21), av()),
]


def oracle_basis(outer, inner, max_len):
    """The minimal non-members up to ``max_len``, by (length, lex).

    Membership comes from exhausting deflations and minimality from
    deleting each point, over all of S_n: no code is shared with the
    scanner's greedy route.  Verdicts are memoised so each permutation
    is classified once.
    """
    verdicts = {}

    def oracle_member(pi):
        got = verdicts.get(pi)
        if got is None:
            got = any(member(d, outer) for d in all_deflations(pi, inner))
            verdicts[pi] = got
        return got

    return [
        pi
        for pi in perms_up_to(max_len)
        if not oracle_member(pi)
        and (
            len(pi) == 1
            or all(oracle_member(delete_point(pi, q)) for q in range(1, len(pi) + 1))
        )
    ]


class TestWreathBasis:
    def test_increasing_by_increasing(self):
        recs = wreath_basis(av(21), av(21), 5)
        assert [r.perm for r in recs] == [p("21")]
        assert recs[0].x_basis == (p("21"),) and recs[0].y_basis == (p("21"),)

    def test_descending_anchor_inside_increasing_blocks(self):
        recs = wreath_basis(av(321), av(21), 7)
        assert [r.perm for r in recs] == [p("321")]

    def test_family_members_appear(self):
        recs = wreath_basis(av(25134), av(321), 7)
        perms = [r.perm for r in recs]
        assert p("2513764") in perms
        assert check_antichain(perms)
        assert all(r.length <= 7 for r in recs)

    def test_sorted_by_length_then_lex(self):
        recs = wreath_basis(av(25134), av(321), 7)
        keyed = [(r.length, r.perm) for r in recs]
        assert keyed == sorted(keyed)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            wreath_basis(av(21), av(21), 12)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_is_refused(self, max_len):
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            wreath_basis(av(21), av(21), max_len)

    def test_matches_independent_oracle(self):
        # The empty product av(1) wr av(21) has the single point as its
        # basis.
        for outer, inner in ((av(321), av(21)), (av(1), av(21))):
            got = [r.perm for r in wreath_basis(outer, inner, 7)]
            assert got == oracle_basis(outer, inner, 7), (outer, inner)

    def test_matches_independent_oracle_deep(self):
        # Pushed to length 8 for the pair with the richest basis.
        outer, inner = av(25134), av(321)
        got = [r.perm for r in wreath_basis(outer, inner, 8)]
        assert got == oracle_basis(outer, inner, 8)

    @pytest.mark.parametrize(
        "outer, inner", INNER_KEEPS_LONG_MEMBERS, ids=lambda c: class_literal(c)
    )
    def test_matches_independent_oracle_when_inner_keeps_long_members(
        self, outer, inner
    ):
        # Children of parents inside the inner class are the ones whose
        # whole host is still tested; these pairs keep such parents at
        # every length, and av() keeps all of them.
        got = [r.perm for r in wreath_basis(outer, inner, 7)]
        assert got == oracle_basis(outer, inner, 7)

    def test_both_family_members_found_at_length_nine(self):
        recs = wreath_basis(av(25134), av(321), 9)
        perms = [r.perm for r in recs]
        assert antichain_member("thm6", 1) in perms
        assert antichain_member("thm6", 2) in perms
        assert check_antichain(perms)

    def test_empty_block_class_gives_point_basis(self):
        recs = wreath_basis(av(21), av(1), 3)
        assert [r.perm for r in recs] == [p("1")]


def _frozen_length_pass(outer, inner, n, prev_members, prev_inner, *, keep_members=True):
    """One length pass as it stood before children re-derived only the
    blocks around n, frozen as the reference: every child gets a full
    ``wreath_member`` test, and a child of a parent in ``inner`` is
    looked up in ``inner``.  The outside-``inner`` hint it passed never
    changed a verdict, so it is left out here."""
    if n == 1:
        if wreath_member(ONE, outer, inner):
            return [], [ONE], {ONE}
        return [ONE], [], set()
    parents = set(prev_members)
    members, in_inner, found = [], set(), []
    for mu in prev_members:
        base = list(mu)
        outside = mu not in prev_inner
        for p in range(n):
            pi = _trusted(base[:p] + [n] + base[p:])
            if wreath_member(pi, outer, inner):
                if keep_members:
                    members.append(pi)
                    if not outside and member(pi, inner):
                        in_inner.add(pi)
            elif all(
                delete_point(pi, q) in parents for q in range(1, n + 1) if q != p + 1
            ):
                found.append(pi)
    found.sort()
    members.sort()
    return found, members, in_inner


#: The pairs the child-aware pass is checked on against the frozen pass,
#: with the longest length each is scanned to.  The canonical pair of
#: every family is there (thm6's is the first).  The last three are
#: degenerate: an inner class equal to the outer, an empty outer class,
#: and a block class without the point.
CHILD_AWARE_PAIRS = [
    (av(25134), av(321), 8),
    (av(21), av(231), 7),
    (av(4321, 3412), av(21), 7),
    (av(123), av(21), 7),
    (av(321), av(21), 7),
    (av(21), av(2413, 3142), 7),
    (av(231), av(321), 7),
    (av(2413), av(12, 21), 7),
    *((fam.outer, fam.inner, 7) for name, fam in FAMILIES.items() if name != "thm6"),
    (av(12), av(12), 6),
    (av(1), av(321), 5),
    (av(321), av(1), 5),
]


@pytest.mark.parametrize(
    "outer, inner, max_len",
    CHILD_AWARE_PAIRS,
    ids=[f"{class_literal(x)}-{class_literal(y)}" for x, y, _ in CHILD_AWARE_PAIRS],
)
def test_child_aware_pass_matches_frozen_pass(outer, inner, max_len):
    members, in_inner = [], set()
    for n in range(1, max_len + 1):
        got = basis_elements_of_length(outer, inner, n, members, in_inner)
        assert got == _frozen_length_pass(outer, inner, n, members, in_inner), n
        last = basis_elements_of_length(
            outer, inner, n, members, in_inner, keep_members=False
        )
        assert last == _frozen_length_pass(
            outer, inner, n, members, in_inner, keep_members=False
        ), n
        _, members, in_inner = got
