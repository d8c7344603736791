import pytest

from permwreath.avoidance import av, member, named
from permwreath.basis_search import (
    FAMILIES,
    VerifyResult,
    antichain_member,
    check_antichain,
    verify_basis_element,
    wreath_basis,
)
from permwreath.decomposition import INDECOMPOSABLE_BOTH, sum_skew_status
from permwreath.perm_core import CapExceeded, Permutation, delete_point, occurrences
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


class TestCheckAntichain:
    def test_families_are_antichains(self):
        for name in FAMILIES:
            upto = 3 if name.startswith("widdershins") else 5
            members = [antichain_member(name, k) for k in range(1, upto + 1)]
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

    def test_matches_independent_oracle(self):
        # Oracle: membership by exhausting deflations, minimality by
        # deleting each point; no shared code with the scanner's greedy
        # profile route.  The empty product av(1) wr av(21) has the single
        # point as its basis.
        for outer, inner in ((av(321), av(21)), (av(1), av(21))):

            def oracle_member(pi):
                return any(member(d, outer) for d in all_deflations(pi, inner))

            expected = []
            for pi in perms_up_to(7):
                if oracle_member(pi):
                    continue
                if len(pi) == 1 or all(
                    oracle_member(delete_point(pi, q)) for q in range(1, len(pi) + 1)
                ):
                    expected.append(pi)
            got = [r.perm for r in wreath_basis(outer, inner, 7)]
            assert got == sorted(expected, key=lambda q: (len(q), q)), (outer, inner)

    def test_matches_independent_oracle_deep(self):
        # Same oracle construction, pushed to length 8 for the pair with
        # the richest basis.  Verdicts are memoised so each permutation
        # is classified once.
        outer, inner = av(25134), av(321)
        verdicts = {}

        def oracle_member(pi):
            got = verdicts.get(pi)
            if got is None:
                got = any(member(d, outer) for d in all_deflations(pi, inner))
                verdicts[pi] = got
            return got

        expected = []
        for pi in perms_up_to(8):
            if oracle_member(pi):
                continue
            if len(pi) == 1 or all(
                oracle_member(delete_point(pi, q)) for q in range(1, len(pi) + 1)
            ):
                expected.append(pi)
        got = [r.perm for r in wreath_basis(outer, inner, 8)]
        assert got == sorted(expected, key=lambda q: (len(q), q))

    def test_both_family_members_found_at_length_nine(self):
        recs = wreath_basis(av(25134), av(321), 9)
        perms = [r.perm for r in recs]
        assert antichain_member("thm6", 1) in perms
        assert antichain_member("thm6", 2) in perms
        assert check_antichain(perms)

    def test_empty_block_class_gives_point_basis(self):
        recs = wreath_basis(av(21), av(1), 3)
        assert [r.perm for r in recs] == [p("1")]
