import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permwreath import blocks_pins
from permwreath.avoidance import REGISTRY, av, member, named
from permwreath.basis_search import FAMILIES, antichain_member
from permwreath.blocks_pins import (
    PIN_CAP,
    PROBE_WITNESSES,
    PinConditionError,
    PinWord,
    _bbox,
    _inside,
    _minimal_span,
    _pin_step,
    _proper_pins,
    _slice_direction,
    classify_pins,
    left_reaching,
    minimal_block,
    parse_pin_word,
    pin_probe,
    pin_word_points,
    pin_word_to_perm,
    right_reaching,
)
from permwreath.perm_core import CapExceeded, _trusted, inflate, involves, reduce

from conftest import (
    assert_minimal_spans_nest,
    direct_intervals,
    p,
    perms_up_to,
    value_positions,
)

# An 11-point host whose pins pick up every direction and both
# properness outcomes.
MIXED_HOST = p("3,10,1,7,11,4,9,5,6,2,8")
MIXED_PINS = [(4, 7), (6, 4), (8, 5), (7, 9), (9, 6), (11, 8), (10, 2), (1, 3)]


def points(pi):
    """The plot of ``pi``: (position, value) pairs, positions from 1."""
    return tuple(enumerate(pi, start=1))


def fraction_realize(word):
    """The pin-word realiser as first written, frozen as a reference: it
    places each pin on a fractional grid, one step beyond the extreme in
    its direction and at the midpoint of the separating channel."""
    zero, one = Fraction(0), Fraction(1)
    if word.origin == "12":
        pts = [(zero, zero), (one, one)]
    else:
        pts = [(zero, one), (one, zero)]
    for ch in word.letters:
        prev = pts[-1]
        pmin, pmax, vmin, vmax = _bbox(pts[:-1])
        if ch in "LR":
            pval = prev[1]
            if pval > vmax:
                val = (pval + vmax) / 2
            elif pval < vmin:
                val = (pval + vmin) / 2
            else:
                raise ValueError(f"letter {ch!r} has no separating channel")
            pos = (
                max(p for p, _ in pts) + 1
                if ch == "R"
                else min(p for p, _ in pts) - 1
            )
        else:
            ppos = prev[0]
            if ppos > pmax:
                pos = (ppos + pmax) / 2
            elif ppos < pmin:
                pos = (ppos + pmin) / 2
            else:
                raise ValueError(f"letter {ch!r} has no separating channel")
            val = (
                max(v for _, v in pts) + 1
                if ch == "U"
                else min(v for _, v in pts) - 1
            )
        pts.append((pos, val))
    return pts


def fraction_pin_word_points(word):
    """Reference (host, pins) for a word: the fractional points reduced
    to ranks."""
    pts = fraction_realize(word)
    pos_rank = {p: r for r, p in enumerate(sorted(p for p, _ in pts), start=1)}
    val_rank = {v: r for r, v in enumerate(sorted(v for _, v in pts), start=1)}
    host = _trusted(val_rank[v] for _, v in sorted(pts))
    return host, tuple((pos_rank[p], val_rank[v]) for p, v in pts)


def stepped_pin_word(word):
    """(host, 0-based position of the last pin) of a word, folding the
    probe's one-letter step over its letters from the origin pair."""
    host, pin = p(word.origin), 1
    for ch in word.letters:
        host, pin = _pin_step(host, pin, ch)
    return host, pin


def next_letters(letters):
    """The letters that may follow ``letters`` in a pin word: any letter
    first, then one perpendicular to the last."""
    if not letters:
        return "LRUD"
    return "UD" if letters[-1] in "LR" else "LR"


def all_pin_words(max_letters):
    """Every pin word of up to ``max_letters`` letters, from both origins."""
    for origin in ("12", "21"):
        level = [""]
        for _ in range(max_letters + 1):
            yield from (PinWord(origin, letters) for letters in level)
            level = [letters + ch for letters in level for ch in next_letters(letters)]


def _further(a, b, direction):
    """Is point a further than b in ``direction``?"""
    if direction == "right":
        return a[0] > b[0]
    if direction == "left":
        return a[0] < b[0]
    if direction == "up":
        return a[1] > b[1]
    return a[1] < b[1]


def _grow(rect, q):
    """The rectangle of rect's points and q, by a ``min`` and a ``max`` on
    each axis: the rectangle rule the pin kernels used before the
    direction fixed which edge a pin moves, frozen for the references
    below."""
    pmin, pmax, vmin, vmax = rect
    pos, val = q
    return min(pmin, pos), max(pmax, pos), min(vmin, val), max(vmax, val)


# The three pin kernels as they stood before they read only the channel,
# frozen as references: properness by a scan over every given point, the
# reaching search over the points of the minimal block followed by a
# full reclassification, and realisation by relabelling every rank.

def _frozen_proper_pins(pts, last, rect, prev):
    qmin, qmax, wmin, wmax = prev
    ppos, pval = last
    by_dir = {}
    for q in pts:
        pos, val = q
        if (
            wmax < val < pval
            or pval < val < wmin
            or qmax < pos < ppos
            or ppos < pos < qmin
        ):
            d = _slice_direction(q, rect)
            if d is not None and (d not in by_dir or _further(q, by_dir[d], d)):
                by_dir[d] = q
    return by_dir


def _frozen_classify(host, pts):
    """(directions, proper_flags) of a valid pin sequence, each pin judged
    against every point of the host."""
    host_points = points(host)
    directions, proper = [None, None], [None, None]
    prev, rect = _bbox(pts[:1]), _bbox(pts[:2])
    for idx in range(2, len(pts)):
        q = pts[idx]
        d = _slice_direction(q, rect)
        directions.append(d)
        proper.append(
            _frozen_proper_pins(host_points, pts[idx - 1], rect, prev).get(d) == q
        )
        prev, rect = rect, _grow(rect, q)
    return tuple(directions), tuple(proper)


def _frozen_dfs(block_pts, p1, p2, target):
    stack = [([p1, p2], _bbox([p1, p2]), _bbox([p1]))]
    while stack:
        pins, rect, prev = stack.pop()
        if pins[-1] == target:
            return pins
        cands = _frozen_proper_pins(block_pts, pins[-1], rect, prev)
        for d in ("down", "left", "up", "right"):
            if d in cands:
                q = cands[d]
                stack.append((pins + [q], _grow(rect, q), rect))
    return None


def _frozen_reaching(pi, i, j, side):
    """(pins, directions, proper_flags) of the reaching sequence."""
    s, e = brute_minimal_block(pi, i, j)
    block_pts = [(q, pi[q - 1]) for q in range(s, e + 1)]
    p1, p2 = (i, pi[i - 1]), (j, pi[j - 1])
    target = (e, pi[e - 1]) if side == "right" else (s, pi[s - 1])
    found = [p1, p2] if target in (p1, p2) else _frozen_dfs(block_pts, p1, p2, target)
    return (tuple(found),) + _frozen_classify(pi, found)


def _frozen_pin_word_points(word):
    pos = [1, 2]
    val = [1, 2] if word.origin == "12" else [2, 1]
    for ch in word.letters:
        cross, along = (val, pos) if ch in "LR" else (pos, val)
        cut = len(cross) if cross[-1] > 1 else 2
        cross[:] = [c + 1 if c >= cut else c for c in cross]
        cross.append(cut)
        if ch in "RU":
            along.append(len(along) + 1)
        else:
            along[:] = [c + 1 for c in along]
            along.append(1)
    host = [0] * len(pos)
    for q, v in zip(pos, val):
        host[q - 1] = v
    return _trusted(host), tuple(zip(pos, val))


def _frozen_probe(inner, cap):
    """The pin probe as first written, frozen as a reference: breadth
    first, keeping every live word of each level; returns (threshold,
    exceeded, every cap-level survivor)."""

    def alive(word):
        return member(pin_word_to_perm(word), inner)

    def children(word):
        return [
            PinWord(word.origin, word.letters + ch) for ch in next_letters(word.letters)
        ]

    frontier = [w for w in (PinWord("12"), PinWord("21")) if alive(w)]
    if not frontier:
        return 0, False, ()
    for level in range(1, cap + 1):
        nxt = [c for word in frontier for c in children(word) if alive(c)]
        if not nxt:
            return level, False, ()
        frontier = nxt
    return None, True, tuple(frontier)


def spy_on_member(monkeypatch):
    """Count the probe's class tests as (host, pin) pairs; each still
    goes through the module's ``_in_class``."""
    tested = Counter()
    test = blocks_pins._in_class

    def spy(pi, cls, pin=None):
        tested[tuple(pi), pin] += 1
        return test(pi, cls, pin)

    monkeypatch.setattr(blocks_pins, "_in_class", spy)
    return tested


def realised_probe_tests(inner, cap):
    """The (host, pin) pairs a probe that never stops early tests, by
    the fractional realiser: each origin, and each child of a live word
    of fewer than ``cap`` letters, pinned at its last pin."""
    tested = Counter()
    level = [PinWord("12"), PinWord("21")]
    while level:
        alive = []
        for word in level:
            host, pins = fraction_pin_word_points(word)
            tested[tuple(host), pins[-1][0] - 1] += 1
            if member(host, inner) and len(word.letters) < cap:
                alive.append(word)
        level = [
            PinWord(word.origin, word.letters + ch)
            for word in alive
            for ch in next_letters(word.letters)
        ]
    return tested


def _reached(seq):
    return seq.pins, seq.directions, seq.proper_flags


REACHES = ((right_reaching, "right"), (left_reaching, "left"))


def increasing_oscillation(m):
    """1 4 2 6 3 8 5 ... closed by m - 1: the plot of 12:URUR... with
    m - 2 letters, for even m >= 4."""
    return [1, 4, 2] + [q + 2 if q % 2 == 0 else q - 2 for q in range(4, m)] + [m - 1]


@st.composite
def pin_sequences(draw):
    """A host of length 3-40 and a valid pin sequence of its points: two
    distinct starting points, then up to n - 2 slicing points, stopping
    early when none is left.  Long hosts give wide channels."""
    n = draw(st.integers(3, 40))
    host = _trusted(draw(st.permutations(range(1, n + 1))))
    host_points = points(host)
    pts = draw(
        st.lists(st.sampled_from(host_points), min_size=2, max_size=2, unique=True)
    )
    for _ in range(draw(st.integers(1, n - 2))):
        rect = _bbox(pts)
        slicing = [
            q
            for q in host_points
            if not _inside(q, rect) and _slice_direction(q, rect)
        ]
        if not slicing:
            break
        pts.append(draw(st.sampled_from(slicing)))
    return host, pts


def brute_minimal_block(pi, i, j):
    # Shortest interval containing both positions, by direct scan.
    return min(
        ((s, e) for s, e in direct_intervals(pi) if s <= i and j <= e),
        key=lambda iv: iv[1] - iv[0],
    )


class TestMinimalBlock:
    def test_worked_example(self):
        mb = minimal_block(p("236745981"), 2, 3)
        assert mb.pos_range == (2, 6)
        assert mb.val_range == (3, 7)
        assert mb.values == (3, 6, 7, 4, 5)
        assert mb.pattern == reduce((3, 6, 7, 4, 5))

    def test_whole_for_small_and_simple(self):
        assert minimal_block(p("12"), 1, 2).pos_range == (1, 2)
        assert minimal_block(p("2413"), 1, 2).pos_range == (1, 4)
        # every pair of points of a simple permutation spans the whole
        for pi in (p("2413"), p("3142"), p("35142")):
            n = len(pi)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert minimal_block(pi, i, j).pos_range == (1, n)

    def test_bad_positions(self):
        with pytest.raises(ValueError):
            minimal_block(p("2413"), 2, 2)
        with pytest.raises(ValueError):
            minimal_block(p("2413"), 0, 3)
        with pytest.raises(ValueError):
            minimal_block(p("2413"), 3, 5)

    def test_matches_direct_scan(self):
        for pi in perms_up_to(7):
            n = len(pi)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    mb = minimal_block(pi, i, j)
                    s, e = brute_minimal_block(pi, i, j)
                    seg = pi[s - 1 : e]
                    assert mb.pos_range == (s, e)
                    assert mb.val_range == (min(seg), max(seg))
                    assert mb.pattern == reduce(seg)

    def test_span_matches_direct_scan_on_family_hosts(self):
        rng = random.Random(13)
        for name in FAMILIES:
            for k in range(1, 13):
                host = antichain_member(name, k)
                n = len(host)
                pos_of = value_positions(host)
                for _ in range(12):
                    i = rng.randint(1, n - 1)
                    j = rng.randint(i + 1, n)
                    span = _minimal_span(host, pos_of, i, j)[:2]
                    assert span == brute_minimal_block(host, i, j), (name, k, i, j)

    def test_nesting_and_equality(self):
        for pi in perms_up_to(6):
            if len(pi) >= 2:
                assert_minimal_spans_nest(pi)


class TestClassifyPins:
    def test_mixed_host_directions(self):
        seq = classify_pins(MIXED_HOST, MIXED_PINS)
        assert seq.directions == (
            None, None, "right", "up", "right", "right", "down", "left",
        )

    def test_mixed_host_properness(self):
        seq = classify_pins(MIXED_HOST, MIXED_PINS)
        assert seq.proper_flags == (None, None, False, True, False, False, True, True)

    def test_two_points_alone(self):
        seq = classify_pins(p("2413"), [(1, 2), (3, 1)])
        assert seq.directions == (None, None)
        assert seq.proper_flags == (None, None)

    def test_not_a_point_of_host(self):
        with pytest.raises(PinConditionError):
            classify_pins(p("2413"), [(1, 2), (2, 2)])

    def test_non_slicing_point(self):
        # (4, 4) sits beyond both coordinate ranges of rect((1,2),(2,1)).
        with pytest.raises(PinConditionError) as exc:
            classify_pins(p("2143"), [(1, 2), (2, 1), (4, 4)])
        assert exc.value.index == 3

    def test_point_inside_rectangle(self):
        with pytest.raises(PinConditionError):
            classify_pins(p("25314"), [(1, 2), (5, 4), (3, 3)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            classify_pins(p("2413"), [(1, 2)])

    @settings(max_examples=300, deadline=None)
    @given(pin_sequences())
    def test_matches_frozen_full_scan(self, drawn):
        host, pts = drawn
        seq = classify_pins(host, pts)
        assert (seq.directions, seq.proper_flags) == _frozen_classify(host, pts)


class TestChannelScanMatchesFrozen:
    """The band fixes the direction: one max and one min per band give
    the pins the scan of every host point by ``_frozen_proper_pins`` gave."""

    def test_seeded_proper_pin_walks(self):
        rng = random.Random(1919)
        calls = 0
        for _ in range(3000):
            n = rng.randint(3, 40)
            host = _trusted(rng.sample(range(1, n + 1), n))
            pos_of, host_points = value_positions(host), points(host)
            pins = [(q, host[q - 1]) for q in rng.sample(range(1, n + 1), 2)]
            prev, rect = _bbox(pins[:1]), _bbox(pins)
            while True:
                found = _proper_pins(host, pos_of, pins[-1], rect, prev)
                frozen = _frozen_proper_pins(host_points, pins[-1], rect, prev)
                assert {d: q for q, d in found} == frozen, (host, pins)
                assert [d for _, d in found] == [
                    d for d in ("down", "left", "up", "right") if d in frozen
                ], (host, pins)
                calls += 1
                if not found:
                    break
                q = frozen[rng.choice(sorted(frozen))]
                pins.append(q)
                prev, rect = rect, _grow(rect, q)
        assert calls > 10000


class TestPinWords:
    def test_validation(self):
        with pytest.raises(ValueError):
            PinWord("13")
        with pytest.raises(ValueError):
            PinWord("12", "X")
        with pytest.raises(ValueError):
            PinWord("12", "UU")
        with pytest.raises(ValueError):
            PinWord("12", "LR")
        PinWord("12", "URUR")  # fine

    def test_parse_and_format(self):
        w = parse_pin_word("12:URUR")
        assert w.origin == "12" and w.letters == "URUR"
        assert str(w) == "12:URUR"
        assert parse_pin_word("21") == PinWord("21")
        assert parse_pin_word("21:") == PinWord("21")

    def test_realized_permutations(self):
        assert pin_word_to_perm(PinWord("12")) == p("12")
        assert pin_word_to_perm(PinWord("21")) == p("21")
        assert pin_word_to_perm(PinWord("12", "UR")) == p("1423")
        assert pin_word_to_perm(PinWord("12", "URUR")) == p("142635")

    def test_up_right_words_follow_the_oscillation(self):
        # Successive prefixes stay inside the class of oscillation
        # patterns, as plots of 4 1 6 3 8 5 ... do.
        osc = named("inc-osc")
        letters = "URURURUR"
        for take in range(len(letters) + 1):
            realized = pin_word_to_perm(PinWord("12", letters[:take]))
            assert member(realized, osc)

    def test_widdershins_words_avoid_their_patterns(self):
        wid = named("widdershins-y")
        letters = "LDRULDRULDRU"
        for take in range(len(letters) + 1):
            realized = pin_word_to_perm(PinWord("21", letters[:take]))
            assert member(realized, wid)

    def test_realization_is_a_proper_pin_sequence(self):
        for text in ("12:URUR", "21:LDRULDRU", "12:DLDLD", "21:RURU"):
            host, pts = pin_word_points(parse_pin_word(text))
            seq = classify_pins(host, pts)
            assert all(seq.proper_flags[2:])

    # Each word is realised twice: whole, and by the probe's one-letter
    # step folded over its letters, which also gives the last pin's index.

    def test_next_letters_turn_perpendicular(self):
        assert next_letters("") == "LRUD"
        assert next_letters("UL") == next_letters(["R"]) == "UD"
        assert next_letters("LU") == next_letters(["D"]) == "LR"

    def test_matches_fractional_realiser(self):
        for word in all_pin_words(10):
            host, pins = fraction_pin_word_points(word)
            assert pin_word_points(word) == (host, pins), word
            assert stepped_pin_word(word) == (host, pins[-1][0] - 1), word

    def test_matches_frozen_relabelling(self):
        for word in all_pin_words(12):
            host, pins = _frozen_pin_word_points(word)
            assert pin_word_points(word) == (host, pins), word
            assert stepped_pin_word(word) == (host, pins[-1][0] - 1), word

    def test_long_up_right_word_is_the_increasing_oscillation(self):
        for m in range(4, 40, 2):
            word = PinWord("12", "UR" * (m // 2 - 1))
            assert list(pin_word_to_perm(word)) == increasing_oscillation(m)
        word = PinWord("12", "UR" * 25_000)
        assert list(pin_word_to_perm(word)) == increasing_oscillation(50_002)

    def test_long_mixed_words_match_frozen_relabelling(self):
        rng = random.Random(2008)
        for n in range(20):
            letters = []
            for _ in range(rng.randint(200, 2000)):
                letters.append(rng.choice(next_letters(letters)))
            word = PinWord(("12", "21")[n % 2], "".join(letters))
            host, pins = _frozen_pin_word_points(word)
            assert pin_word_points(word) == (host, pins), n
            assert stepped_pin_word(word) == (host, pins[-1][0] - 1), n

    @given(st.sampled_from(["12", "21"]), st.data())
    def test_prefix_embeds(self, origin, data):
        letters = []
        for _ in range(data.draw(st.integers(0, 6))):
            letters.append(data.draw(st.sampled_from(next_letters(letters))))
        word = PinWord(origin, "".join(letters))
        full = pin_word_to_perm(word)
        for take in range(len(letters)):
            prefix = pin_word_to_perm(PinWord(origin, "".join(letters[:take])))
            assert involves(prefix, full)


class TestReaching:
    def test_trivial_pairs(self):
        assert right_reaching(p("21"), 1, 2).pins == ((1, 2), (2, 1))
        assert left_reaching(p("12"), 1, 2).pins == ((1, 1), (2, 2))

    def test_worked_examples(self):
        seq = right_reaching(p("2413"), 1, 2)
        assert seq.pins[-1][0] == 4
        assert all(seq.proper_flags[2:])

        seq = right_reaching(p("236745981"), 2, 3)
        assert seq.pins[-1][0] == 6  # rightmost point of the minimal block
        assert all(seq.proper_flags[2:])

        seq = left_reaching(p("2413"), 3, 4)
        assert seq.pins[-1][0] == 1

        mb = minimal_block(p("236745981"), 3, 6)
        seq = left_reaching(p("236745981"), 3, 6)
        target = mb.pos_range[0]
        assert seq.pins[-1][0] == target or (
            len(seq.pins) == 2 and any(q[0] == target for q in seq.pins)
        )

    def test_bad_positions(self):
        for reach in (right_reaching, left_reaching):
            for i, j in ((3, 3), (3, 2), (0, 2), (1, 5)):
                with pytest.raises(ValueError, match="need 1 <= i < j <= 4"):
                    reach(p("2413"), i, j)

    def test_exhaustive_small(self):
        axis = {"left": 0, "right": 0, "up": 1, "down": 1}
        for pi in perms_up_to(6):
            n = len(pi)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    mb = minimal_block(pi, i, j)
                    s, e = mb.pos_range
                    for fn, tpos in ((right_reaching, e), (left_reaching, s)):
                        seq = fn(pi, i, j)
                        assert all(seq.proper_flags[2:]), (pi, i, j)
                        frozen = _frozen_classify(pi, seq.pins)
                        assert (seq.directions, seq.proper_flags) == frozen, (pi, i, j)
                        assert seq.pins[-1][0] == tpos or (
                            len(seq.pins) == 2
                            and any(q[0] == tpos for q in seq.pins)
                        )
                        # pins stay inside the minimal block
                        assert all(s <= q[0] <= e for q in seq.pins)
                        # consecutive proper pins run perpendicular
                        dirs = [d for d in seq.directions[2:]]
                        for a, b in zip(dirs, dirs[1:]):
                            assert axis[a] != axis[b]


class TestReachingMatchesFrozenSearch:
    """Channel-only properness and flags set by construction give the
    sequence the block search and full reclassification gave."""

    def test_every_pair_up_to_six(self):
        for pi in perms_up_to(6):
            n = len(pi)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for fn, side in REACHES:
                        assert _reached(fn(pi, i, j)) == _frozen_reaching(
                            pi, i, j, side
                        ), (pi, i, j, side)

    def test_family_members(self):
        rng = random.Random(12)
        for name in FAMILIES:
            for k in range(1, 13):
                host = antichain_member(name, k)
                n = len(host)
                for _ in range(6):
                    i = rng.randint(1, n - 1)
                    j = rng.randint(i + 1, n)
                    for fn, side in REACHES:
                        assert _reached(fn(host, i, j)) == _frozen_reaching(
                            host, i, j, side
                        ), (name, k, i, j, side)

    def test_seeded_long_hosts(self):
        # Hosts of 20-80 points, half of them uniform (mostly simple, so
        # blocks span the host and sequences run long) and half inflations
        # of a short skeleton (so blocks are proper intervals).
        rng = random.Random(2108)
        for _ in range(120):
            n = rng.randint(20, 80)
            if rng.random() < 0.5:
                host = _trusted(rng.sample(range(1, n + 1), n))
            else:
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, 5)))
                sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
                skeleton = rng.sample(range(1, len(sizes) + 1), len(sizes))
                host = inflate(
                    skeleton, [rng.sample(range(1, m + 1), m) for m in sizes]
                )
            for _ in range(3):
                i = rng.randint(1, n - 1)
                j = rng.randint(i + 1, n)
                assert minimal_block(host, i, j).pos_range == brute_minimal_block(
                    host, i, j
                ), (host, i, j)
                for fn, side in REACHES:
                    assert _reached(fn(host, i, j)) == _frozen_reaching(
                        host, i, j, side
                    ), (host, i, j, side)


class TestPinProbe:
    def test_increasing_class_threshold(self):
        # Directly: all eight three-point words realise a descent.
        for origin in ("12", "21"):
            for ch in "LRUD":
                realized = pin_word_to_perm(PinWord(origin, ch))
                assert involves(p("21"), realized)
        result = pin_probe(av(21), 10)
        assert result.threshold == 1 and not result.exceeded

    def test_monotone_class_with_long_spirals_exceeds(self):
        result = pin_probe(av(321), 8)
        assert result.exceeded and result.threshold is None
        words = {str(w) for w in result.witnesses}
        assert "12:" + "UR" * 4 in words
        assert "12:" + "RU" * 4 in words

    def test_widdershins_class_exceeds(self):
        result = pin_probe(named("widdershins-y"), 8)
        assert result.exceeded
        assert "21:" + "LDRU" * 2 in {str(w) for w in result.witnesses}

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            pin_probe(av(21), 0)
        with pytest.raises(CapExceeded):
            pin_probe(av(21), PIN_CAP + 1)

    @pytest.mark.parametrize(
        "cls", [av(321), named("widdershins-y")], ids=["av321", "widdershins-y"]
    )
    def test_matches_probe_on_fractional_realiser(self, cls, monkeypatch):
        # The probe never stops early here, so it tests exactly the
        # origins and every child of a live word shorter than the cap.
        tested = spy_on_member(monkeypatch)
        result = pin_probe(cls, 12)
        assert result.exceeded and 0 < len(result.witnesses) < PROBE_WITNESSES
        assert tested == realised_probe_tests(cls, 12)
        assert (result.threshold, result.exceeded, result.witnesses) == _frozen_probe(
            cls, 12
        )

    def test_empty_class_threshold_zero(self):
        assert pin_probe(av(1), 5).threshold == 0

    def test_survivor_tails_are_spirals(self):
        # Every cap-level survivor settles, after at most one deflected
        # first letter, into a fixed successor cycle of directions.
        for cls in (av(321), named("widdershins-y")):
            result = pin_probe(cls, 8)
            for w in result.witnesses:
                tail = w.letters[1:]
                succ = {}
                for a, b in zip(tail, tail[1:]):
                    assert succ.setdefault(a, b) == b, w


# The registry holds av(21) as "av21".
PROBE_CLASSES = {
    **REGISTRY,
    "av": av(),
    "av1": av(1),
    "av12": av(12),
    "av231": av(231),
    "av2413-3142": av(2413, 3142),
}


class TestPinProbeMatchesFrozenBreadthFirst:
    @pytest.mark.parametrize("cls", PROBE_CLASSES.values(), ids=list(PROBE_CLASSES))
    def test_thresholds_and_first_witnesses(self, cls):
        for cap in range(1, 11):
            threshold, exceeded, survivors = _frozen_probe(cls, cap)
            result = pin_probe(cls, cap)
            assert (result.threshold, result.exceeded) == (threshold, exceeded), cap
            assert result.witnesses == survivors[:PROBE_WITNESSES], cap

    def test_realisations_at_cap_40(self, monkeypatch):
        tested = spy_on_member(monkeypatch)
        result = pin_probe(av(321), 40)
        assert result.exceeded and len(result.witnesses) == 12
        assert sum(tested.values()) == 938
        assert tested == realised_probe_tests(av(321), 40)


GOLDEN_PROBES = Path(__file__).with_name("golden_pin_probe.json")


class TestPinProbeGoldenAtPinCap:
    def test_registry_classes(self):
        golden = json.loads(GOLDEN_PROBES.read_text())
        assert list(golden) == list(REGISTRY)
        for name, cls in REGISTRY.items():
            result = pin_probe(cls, PIN_CAP)
            assert {
                "threshold": result.threshold,
                "exceeded": result.exceeded,
                "witnesses": [str(w) for w in result.witnesses],
            } == golden[name], name
