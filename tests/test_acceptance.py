"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Everything here is exact (no tolerances); the exhaustive
sweeps cover all permutations up to the stated lengths.
"""

from permwreath.avoidance import av, member, named
from permwreath.basis_search import (
    FAMILIES,
    antichain_member,
    check_antichain,
    verify_basis_element,
    wreath_basis,
)
from permwreath.blocks_pins import (
    classify_pins,
    left_reaching,
    minimal_block,
    pin_probe,
    right_reaching,
)
from permwreath.decomposition import INDECOMPOSABLE_BOTH, sum_skew_status
from permwreath.perm_core import Permutation, inflate, occurrences, reduce
from permwreath.profile import left_greedy_profile, wreath_member

from conftest import (
    assert_greedy_is_unique_shortest,
    assert_intersections_are_intervals,
    assert_minimal_spans_nest,
    assert_profile_block_link,
    p,
    perms_up_to,
)

PAIRS = (
    (av(21), av(21)),
    (av(321), av(21)),
    (av(25134), av(321)),
    (av(31542), named("av3412-2413")),
)

LINK_CLASSES = (av(21), av(123), av(321), named("av3412-2413"))


def _report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_worked_examples():
    assert inflate(p("132"), [p("21"), p("2413"), p("321")]) == p("217968543")

    assert left_greedy_profile(p("3415672"), av(21)).profile == p("3142")
    assert left_greedy_profile(p("234615"), av(123)).profile == p("23514")

    mb = minimal_block(p("236745981"), 2, 3)
    assert mb.pos_range == (2, 6)
    assert mb.values == (3, 6, 7, 4, 5)
    assert mb.pattern == reduce((3, 6, 7, 4, 5))

    host = p("3,10,1,7,11,4,9,5,6,2,8")
    pins = [(4, 7), (6, 4), (8, 5), (7, 9), (9, 6), (11, 8), (10, 2), (1, 3)]
    seq = classify_pins(host, pins)
    assert seq.directions[2:] == ("right", "up", "right", "right", "down", "left")
    assert seq.proper_flags[2:] == (False, True, False, False, True, True)

    _report(1, "worked examples")


def test_criterion_2_oracle_equivalence():
    by_inner: dict = {}
    for outer, inner in PAIRS:
        by_inner.setdefault(inner, []).append(outer)
    for pi in perms_up_to(8):
        for inner, outers in by_inner.items():
            defls = assert_greedy_is_unique_shortest(pi, inner)
            for outer in outers:
                oracle = any(member(d, outer) for d in defls)
                assert wreath_member(pi, outer, inner) == oracle
    _report(2, "oracle equivalence up to length 8")


def _displayed_profile(k: int) -> Permutation:
    if k == 1:
        return p("251364")
    body = [2, 5, 1, 3, 7, 4]
    for j in range(3, k + 1):
        body.extend((2 * j + 3, 2 * j))
    body.extend((2 * k + 4, 2 * k + 2))
    return Permutation(body)


def test_criterion_3_antichain_verification():
    outer, inner = av(25134), av(321)
    betas = [antichain_member("thm6", k) for k in range(1, 6)]
    assert check_antichain(betas)
    for k, beta in enumerate(betas, start=1):
        assert verify_basis_element(beta, outer, inner).ok
        assert occurrences(p("321"), beta) == 1
        assert occurrences(p("25134"), beta) == 1
        assert sum_skew_status(beta) == INDECOMPOSABLE_BOTH
        dec = left_greedy_profile(beta, inner)
        assert dec.profile == _displayed_profile(k)
        top_pair = (list(beta).index(2 * k + 5) + 1, list(beta).index(2 * k + 4) + 1)
        assert [seg for seg in dec.segments if seg[0] != seg[1]] == [top_pair]

    for name, family in FAMILIES.items():
        if name == "thm6":
            continue
        for inner_cls in family.inners:
            for k in (1, 2, 3):
                beta = antichain_member(name, k)
                assert verify_basis_element(beta, family.outer, inner_cls).ok

    _report(3, "antichain families verify")


def test_criterion_4_pin_probe():
    assert pin_probe(av(21), 10).threshold == 1

    spiral_cases = (
        (av(321), "12:" + "UR" * 10),
        (named("av3412-2413"), "21:" + "LDRU" * 5),
        (named("inc-osc"), "12:" + "UR" * 10),
    )
    for cls, named_word in spiral_cases:
        result = pin_probe(cls, 20)
        assert result.exceeded and result.threshold is None
        words = {str(w) for w in result.witnesses}
        assert named_word in words
        # every survivor settles into a fixed direction cycle after at
        # most one deflected first letter
        for w in result.witnesses:
            succ: dict = {}
            tail = w.letters[1:]
            for a, b in zip(tail, tail[1:]):
                assert succ.setdefault(a, b) == b, str(w)

    _report(4, "pin probe thresholds and spirals")


def test_criterion_5_basis_bound():
    threshold = pin_probe(av(21), 10).threshold
    assert threshold == 1
    d, b = 3, 2  # longest basis elements of the two classes
    bound = d + (d - 1) * (2 * (threshold - 1) + b)
    assert bound == 7

    records = wreath_basis(av(321), av(21), 8)
    assert records and all(r.length <= bound for r in records)

    small = wreath_basis(av(21), av(21), 5)
    assert [r.perm for r in small] == [p("21")]

    _report(5, "basis length bound")


def test_criterion_6_structural_suites():
    for pi in perms_up_to(7):
        assert_intersections_are_intervals(pi)
        if len(pi) < 2:
            continue
        spans = assert_minimal_spans_nest(pi)
        assert_profile_block_link(pi, spans, LINK_CLASSES)
        for (i, j), (s, e) in spans.items():
            for fn, tpos in ((right_reaching, e), (left_reaching, s)):
                seq = fn(pi, i, j)
                assert all(seq.proper_flags[2:])
                assert seq.pins[-1][0] == tpos or (
                    len(seq.pins) == 2 and any(q[0] == tpos for q in seq.pins)
                )

    _report(6, "structural property suites up to length 7")
