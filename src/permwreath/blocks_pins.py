"""Minimal blocks, pin sequences, pin words, and the bounded pin probe.

Viewing a permutation as its plot, the *minimal block* on two positions
is the shortest interval containing both.  A *pin sequence* walks the
plot: each pin after the second lies outside the bounding rectangle of
its predecessors and slices that rectangle horizontally or vertically.
A *proper* pin additionally separates the previous pin from the earlier
rectangle and is taken maximally in its direction among the pins that
could do so.

Pin words give proper pin sequences a free-standing form: an origin pair
(rising or falling) plus letters over L, R, U, D with consecutive
letters perpendicular.  Realising a word by integer ranks yields a
permutation, and every proper pin sequence of a given shape realises the
same pattern, so searching over words covers all of them.

The kernels read only what can change their answer.  The proper pins
after a given pin lie in the channel between it and the earlier
rectangle, so ``_proper_pins`` reads only that band: slices of the
host's values and of its positions by value.  The band fixes the
direction: the value band holds R and L pins, the position band U and
D pins, so a ``max`` and a ``min`` find the furthest, and the pins come
back in the order the reaching search pushes them.  Reaching sequences
are proper by construction (flags set, not rechecked) and searched as
linked paths.  Both pin-word realisers apply one placement rule,
``_pin_ranks``, which gives each new pin's position and value ranks: a
whole word is realised by one insertion per letter into each axis's
rank order, and the probe inserts the pin into its parent word's
realisation, so it grows each word's host in one step instead of
realising the word again.  The new pin is an extreme of the host, and
the parent word is alive, so a word is tested only for occurrences
through its newest pin: the pinned test of ``avoidance._in_class``.  An
origin's newest pin is its second point, and the origin less that point
is the one-point permutation.

The pin probe walks the words depth first, so it holds O(cap) words
whatever the class, and it lists at most ``PROBE_WITNESSES`` survivors.
It accepts caps up to ``PIN_CAP``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .avoidance import PermClass, _in_class
from .perm_core import CapExceeded, Permutation, _inverse, _trusted

LEFT = "left"
RIGHT = "right"
UP = "up"
DOWN = "down"

_HORIZONTAL = frozenset("LR")  # position lies outside, value slices


class PinConditionError(ValueError):
    """A claimed pin sequence breaks one of the pin conditions."""

    def __init__(self, index: int, condition: str):
        self.index = index
        self.condition = condition
        super().__init__(f"pin {index}: {condition}")


# --- minimal blocks ---------------------------------------------------

@dataclass(frozen=True)
class MinimalBlock:
    """The shortest interval of ``host`` containing two given positions."""

    host: Permutation
    pos_range: tuple[int, int]
    val_range: tuple[int, int]
    pattern: Permutation

    @property
    def values(self) -> tuple[int, ...]:
        s, e = self.pos_range
        return tuple(self.host[s - 1 : e])


def _minimal_span(
    pi: Sequence[int], pos_of: Sequence, i: int, j: int
) -> tuple[int, int, int, int]:
    # The minimal block's positions lo..hi and values vlo..vhi, by
    # closure expansion over a work list: the ranges read so far widen to
    # cover what the other range needs, plo..phi and wlo..whi, until
    # neither needs more.  Each position and each value is read once,
    # when it is first covered: the new positions as slices of ``pi``,
    # the new values as slices of ``pos_of``, the value-indexed positions
    # (``pos_of[v]`` is the position of v, and index 0 is unused).  The
    # value slices leave out ``wlo`` and ``whi`` themselves: each is
    # ``vlo`` or ``vhi`` again, or a value just read at a covered position.
    lo = hi = i
    vlo = vhi = pi[i - 1]
    plo, phi, wlo, whi = i, j, vlo, vhi
    while plo < lo or hi < phi:
        for v in pi[plo - 1 : lo - 1] + pi[hi:phi]:
            if v < wlo:
                wlo = v
            elif v > whi:
                whi = v
        lo, hi = plo, phi
        for q in pos_of[wlo + 1 : vlo] + pos_of[vhi + 1 : whi]:
            if q < plo:
                plo = q
            elif q > phi:
                phi = q
        vlo, vhi = wlo, whi
    return lo, hi, vlo, vhi


def minimal_block(pi: Sequence[int], i: int, j: int) -> MinimalBlock:
    """The unique smallest interval of ``pi`` containing positions i and j.

    >>> mb = minimal_block(Permutation((2, 3, 6, 7, 4, 5, 9, 8, 1)), 2, 3)
    >>> mb.pos_range, mb.values
    ((2, 6), (3, 6, 7, 4, 5))
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    n = len(pi)
    if not 1 <= i < j <= n:
        raise ValueError(f"need positions 1 <= i < j <= {n}, got i={i}, j={j}")
    s, e, vlo, vhi = _minimal_span(pi, (0, *_inverse(pi)), i, j)
    pattern = _trusted(v - vlo + 1 for v in pi[s - 1 : e])
    return MinimalBlock(pi, (s, e), (vlo, vhi), pattern)


# --- rectangles and pin conditions ------------------------------------

Point = tuple  # (position, value)


def _bbox(pts: Sequence[Point]) -> tuple:
    xs = [p for p, _ in pts]
    ys = [v for _, v in pts]
    return min(xs), max(xs), min(ys), max(ys)


def _moved(rect, q: Point, d: str) -> tuple:
    # The rectangle of rect's points and q, a pin slicing rect in
    # direction d.  An R or L pin lies strictly inside rect's values, so
    # it moves only pmax or pmin; a U or D pin lies strictly inside its
    # positions, so it moves only vmax or vmin.
    pmin, pmax, vmin, vmax = rect
    if d == RIGHT:
        return pmin, q[0], vmin, vmax
    if d == LEFT:
        return q[0], pmax, vmin, vmax
    if d == UP:
        return pmin, pmax, vmin, q[1]
    return pmin, pmax, q[1], vmax


def _inside(q: Point, rect) -> bool:
    pmin, pmax, vmin, vmax = rect
    return pmin <= q[0] <= pmax and vmin <= q[1] <= vmax


def _slice_direction(q: Point, rect):
    # The direction in which q slices rect, or None if it does not.
    pos, val = q
    pmin, pmax, vmin, vmax = rect
    if vmin < val < vmax:
        if pos > pmax:
            return RIGHT
        if pos < pmin:
            return LEFT
        return None
    if pmin < pos < pmax:
        if val > vmax:
            return UP
        if val < vmin:
            return DOWN
    return None


def _proper_pins(pi: Sequence[int], pos_of: Sequence, last: Point, rect, prev) -> list:
    # The proper next pins as (pin, direction) pairs, in the order D, L,
    # U, R in which the reaching search pushes them: among the points of
    # ``pi`` that slice ``rect``, the rectangle of the pins so far, and
    # separate the ``last`` pin from ``prev``, the rectangle of the
    # earlier ones, the furthest in each direction.  A point separates
    # them exactly when it lies in the channel between them: its value in
    # the band (wmax, pval) or (pval, wmin), or its position in the band
    # (qmax, ppos) or (ppos, qmin).  At most one band of each kind is
    # non-empty, so each is read as one slice: the positions of the value
    # band from ``pos_of``, the value-indexed positions, and the values of
    # the position band from ``pi``.  No other point is visited.
    # The band fixes the direction.  A value in the value band lies
    # strictly inside ``rect``'s values, so its point slices only
    # horizontally: an R pin when its position is beyond ``rect``'s, an L
    # pin when before, and the furthest are the band's last and first
    # positions.  Likewise a point of the position band is a U or D pin by
    # its value, and the furthest are the band's top and bottom values.
    # A point in both bands lies inside ``rect`` and passes neither test.
    qmin, qmax, wmin, wmax = prev
    ppos, pval = last
    pmin, pmax, vmin, vmax = rect
    found = []
    positions = pos_of[wmax + 1 : pval] or pos_of[pval + 1 : wmin]
    values = pi[qmax : ppos - 1] or pi[ppos : qmin - 1]
    if values and (v := min(values)) < vmin:
        found.append(((pos_of[v], v), DOWN))
    if positions and (p := min(positions)) < pmin:
        found.append(((p, pi[p - 1]), LEFT))
    if values and (v := max(values)) > vmax:
        found.append(((pos_of[v], v), UP))
    if positions and (p := max(positions)) > pmax:
        found.append(((p, pi[p - 1]), RIGHT))
    return found


@dataclass(frozen=True)
class PinSequence:
    """A validated pin sequence of a host permutation.

    ``directions`` and ``proper_flags`` align with ``pins``; the first
    two entries are None since the conditions start at the third pin.
    A pin is proper when it separates the previous pin from the earlier
    rectangle and is maximal in its direction among the separating
    candidates.
    """

    host: Permutation
    pins: tuple[tuple[int, int], ...]
    directions: tuple
    proper_flags: tuple


def classify_pins(host: Sequence[int], pin_points: Iterable) -> PinSequence:
    """Validate a pin sequence and classify each pin.

    ``pin_points`` are (position, value) points of ``host``.  Raises
    :class:`PinConditionError` naming the first offending pin when the
    points are not a pin sequence at all; properness shortfalls are
    reported through the flags, not as errors.
    """
    host = host if isinstance(host, Permutation) else Permutation(host)
    pts = tuple((int(p), int(v)) for p, v in pin_points)
    if len(pts) < 2:
        raise ValueError("a pin sequence needs at least two points")
    n = len(host)
    for idx, (p, v) in enumerate(pts, start=1):
        if not (1 <= p <= n and host[p - 1] == v):
            raise PinConditionError(idx, f"({p}, {v}) is not a point of the host")
    if len(set(pts)) != len(pts):
        raise ValueError("pin points must be distinct")

    pos_of = (0, *_inverse(host))
    directions: list = [None, None]
    proper: list = [None, None]
    prev, rect = _bbox(pts[:1]), _bbox(pts[:2])
    for idx in range(2, len(pts)):
        p = pts[idx]
        if _inside(p, rect):
            raise PinConditionError(
                idx + 1, "lies inside the rectangle of the earlier pins"
            )
        d = _slice_direction(p, rect)
        if d is None:
            raise PinConditionError(
                idx + 1, "does not slice the rectangle of the earlier pins"
            )
        directions.append(d)
        proper.append((p, d) in _proper_pins(host, pos_of, pts[idx - 1], rect, prev))
        prev, rect = rect, _moved(rect, p, d)
    return PinSequence(host, pts, tuple(directions), tuple(proper))


# --- pin words --------------------------------------------------------

@dataclass(frozen=True)
class PinWord:
    """An origin pair plus a string of pin directions.

    ``origin`` is "12" or "21" (the pattern of the first two points);
    letters run over L, R, U, D with consecutive letters perpendicular.
    """

    origin: str
    letters: str = ""

    def __post_init__(self):
        if self.origin not in ("12", "21"):
            raise ValueError(f"origin must be '12' or '21', got {self.origin!r}")
        for ch in self.letters:
            if ch not in "LRUD":
                raise ValueError(f"bad pin letter {ch!r}; expected L, R, U or D")
        for a, b in zip(self.letters, self.letters[1:]):
            if (a in _HORIZONTAL) == (b in _HORIZONTAL):
                raise ValueError(
                    f"consecutive pins must be perpendicular: {a!r} then {b!r}"
                )

    def __str__(self) -> str:
        return f"{self.origin}:{self.letters}"


def parse_pin_word(text: str) -> PinWord:
    """Parse "12:URUR" (or bare "12" for the two starting points alone)."""
    s = text.strip()
    origin, _, letters = s.partition(":")
    return PinWord(origin.strip(), letters.strip().upper())


def _pin_ranks(letter: str, k: int, pos_top: bool, val_top: bool) -> tuple[int, int]:
    # The one rule that places a pin, for both realisers: the (position
    # rank, value rank) of a new pin written ``letter`` among k + 1 pins,
    # given whether the newest of the k pins before it holds the top
    # position and the top value.  On each axis every rank from the new
    # pin's up moves up by one.  Only pins are in the plot, so the
    # channel separating the newest pin from the earlier rectangle is
    # empty, and on the axis the new pin slices (values for L and R,
    # positions for U and D) it takes the rank ``cut`` at that
    # rectangle's edge.  The newest pin left along that axis, or is the
    # origin's second point, so there it holds rank 1 or k: the cut is k,
    # just below it, when it is on top, and 2, just above it, otherwise.
    # On the other axis the new pin goes one step beyond the extreme in
    # its direction: rank k + 1 for R and U, rank 1 for L and D.  Every
    # proper pin sequence with a given word realises the same pattern, so
    # the placement is canonical as well as valid.
    end = k + 1 if letter in "RU" else 1
    if letter in _HORIZONTAL:
        return end, k if val_top else 2
    return k if pos_top else 2, end


def pin_word_points(word: PinWord) -> tuple[Permutation, tuple[tuple[int, int], ...]]:
    """Realise a word and return (host permutation, pins as host points).

    >>> pin_word_points(PinWord("12", "UR"))
    (Permutation([1, 4, 2, 3]), ((1, 1), (3, 2), (2, 4), (4, 3)))
    """
    # Each axis keeps the pin numbers in rank order, bottom first, and
    # ``_pin_ranks`` gives the ranks at which pin k + 1 enters each of
    # them, both next to an end.  The ranks are read off once at the end,
    # so a word of m letters costs O(m).
    pos = deque((1, 2))
    val = deque((1, 2) if word.origin == "12" else (2, 1))
    for k, ch in enumerate(word.letters, start=2):
        p, v = _pin_ranks(ch, k, pos[-1] == k, val[-1] == k)
        pos.insert(p - 1, k + 1)
        val.insert(v - 1, k + 1)
    pos_rank, val_rank = _inverse(pos), _inverse(val)
    return _trusted(val_rank[pin - 1] for pin in pos), tuple(zip(pos_rank, val_rank))


def pin_word_to_perm(word: PinWord) -> Permutation:
    """The permutation realised by a pin word.

    >>> pin_word_to_perm(PinWord("12", "UR"))
    Permutation([1, 4, 2, 3])
    """
    return pin_word_points(word)[0]


# --- reaching sequences -----------------------------------------------

def _dfs_reaching(pi: Sequence[int], pos_of: Sequence, p1, p2, target):
    # Depth-first over proper pins, trying R, U, L, D in that order:
    # ``_proper_pins`` returns them in the reverse order, which is the
    # order they are pushed.  A proper reaching sequence always exists
    # (Brignall, Huczynska and Vatter), so the search only has to find
    # one.  Each entry carries a node (pin, direction, parent) of a
    # linked path, whose direction is the one ``_proper_pins`` paired
    # with the pin, the rectangle of the path's pins, which that
    # direction grows by one edge (``_moved``), and that of all but the
    # last.  A push copies no list: the path is read off the nodes once,
    # at the target.  A target among the starting points is reached by
    # them alone.
    if target in (p1, p2):
        return [p1, p2], [None, None]
    stack = [((p2, None, (p1, None, None)), _bbox([p1, p2]), _bbox([p1]))]
    while stack:
        node, rect, prev = stack.pop()
        if node[0] == target:
            pins, dirs = [], []
            while node:
                q, d, node = node
                pins.append(q)
                dirs.append(d)
            return pins[::-1], dirs[::-1]
        for q, d in _proper_pins(pi, pos_of, node[0], rect, prev):
            stack.append(((q, d, node), _moved(rect, q, d), rect))
    return None


def _reaching(pi: Sequence[int], i: int, j: int, side: str) -> PinSequence:
    """The reaching sequence from positions (i, j) to the ``side`` end
    of their minimal block, proper by construction.

    Every pin the search takes is the one ``_proper_pins`` returned for
    its direction, the proper pin among all the points of the host, so
    every flag after the second pin is True and ``classify_pins`` need
    not recheck them.  The search never leaves the minimal block, since
    the block is an interval: its positions form a range and so do its
    values.  The pins lie in the block, so the channel between the last
    pin and the earlier rectangle lies within the block's position range
    and its value range, and a host point outside the block lies outside
    both ranges, so it can neither separate nor slice.  Properness among
    the block's points is therefore properness among the host's points,
    and a search over the block alone finds the same sequence.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if not 1 <= i < j <= len(pi):
        raise ValueError(f"need 1 <= i < j <= {len(pi)}, got i={i}, j={j}")
    pos_of = (0, *_inverse(pi))
    s, e = _minimal_span(pi, pos_of, i, j)[:2]
    p1 = (i, pi[i - 1])
    p2 = (j, pi[j - 1])
    target = (e, pi[e - 1]) if side == "right" else (s, pi[s - 1])
    found = _dfs_reaching(pi, pos_of, p1, p2, target)
    if found is None:
        raise RuntimeError(
            f"no proper {side}-reaching pin sequence from ({i}, {j}); "
            "this should be impossible"
        )
    pins, dirs = found
    flags = (None, None) + (True,) * (len(pins) - 2)
    return PinSequence(pi, tuple(pins), tuple(dirs), flags)


def right_reaching(pi: Sequence[int], i: int, j: int) -> PinSequence:
    """A proper pin sequence from positions (i, j) ending at the
    rightmost point of their minimal block."""
    return _reaching(pi, i, j, "right")


def left_reaching(pi: Sequence[int], i: int, j: int) -> PinSequence:
    """Mirror of :func:`right_reaching`: ends at the leftmost point."""
    return _reaching(pi, i, j, "left")


# --- the bounded pin probe --------------------------------------------

#: Largest cap :func:`pin_probe` accepts.
PIN_CAP = 64

#: Most cap-length survivors :func:`pin_probe` lists before it stops.
PROBE_WITNESSES = 64

# The letters that may follow a word's last letter, in reverse order:
# pushed in this order, the first of them pops first.
_PUSH_ORDER = {"": "DURL", "L": "DU", "R": "DU", "U": "RL", "D": "RL"}


def _pin_step(host: Permutation, pin: int, letter: str) -> tuple[Permutation, int]:
    # The realisation of a word one letter longer, from ``host``, the
    # realisation of the word, and ``pin``, the 0-based position of its
    # newest pin (the origin's second point when it has no letter).  The
    # new pin takes the ranks ``_pin_ranks`` gives: value v goes in at
    # position p, and every value from v up moves up by one.  It is an
    # extreme of the child: its last or first position, or its top or
    # bottom value.
    k = len(host)
    p, v = _pin_ranks(letter, k, pin == k - 1, host[pin] == k)
    values = [w + 1 if w >= v else w for w in host]
    values.insert(p - 1, v)
    return _trusted(values), p - 1


@dataclass(frozen=True)
class PinProbeResult:
    """Outcome of the bounded probe.

    ``threshold`` is one more than the number of letters of the longest
    word whose realised permutation stays in the class, or 0 when neither
    origin does (None when the cap was hit).  ``witnesses`` are the
    cap-length words still alive on exceeding, in the order a
    breadth-first search lists them, and at most ``PROBE_WITNESSES`` of
    them: the walk stops once it has that many.
    """

    threshold: int | None
    exceeded: bool
    witnesses: tuple[PinWord, ...]


def pin_probe(inner: PermClass, cap: int) -> PinProbeResult:
    """Search for the point where every proper pin sequence leaves ``inner``.

    A depth-first walk over the pin words from both origins, so it holds
    O(cap) words on its stack.  A branch dies as soon as its realised
    permutation leaves the class (the class is closed downward, so dead
    branches stay dead).  A word is pushed only when its parent, the
    word less its last letter, is alive, and deleting the last pin from
    a word's realisation gives its parent's.  So each stack entry
    carries its word's realisation and the position of its last pin,
    and a child's realisation is grown from its parent's by one step
    that places the new pin by ``_pin_ranks``, the placement rule
    :func:`pin_word_points` applies; only the two origins are realised
    whole.  The newest pin is an extreme of its word's realisation, so
    every word, origins included, is tested only for occurrences through
    it, by ``avoidance._in_class``, unmemoised, as in the downset
    grower.  An origin less its second point is the one-point
    permutation, which lies in the class unless the basis is {1}; then
    the pinned search finds that point itself, so the verdict is the
    whole test's.
    Each word's children are pushed in reverse letter order, so the
    words of one length are met in the order a breadth-first search
    lists them.  The walk stops once ``PROBE_WITNESSES`` words of ``cap``
    letters are alive, and returns them.  Otherwise it returns the
    threshold, one more than the longest live word: the first length at
    which no word is alive.  A cap above ``PIN_CAP`` raises
    :class:`CapExceeded`.

    >>> from .avoidance import av
    >>> pin_probe(av(21), 10).threshold
    1
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap > PIN_CAP:
        raise CapExceeded(f"pin cap {cap} exceeds the cap {PIN_CAP}")
    longest, witnesses = -1, []
    stack = [(o, "", pin_word_to_perm(PinWord(o)), 1) for o in ("21", "12")]
    while stack and len(witnesses) < PROBE_WITNESSES:
        origin, letters, host, pin = stack.pop()
        if not _in_class(host, inner, pin):
            continue
        longest = max(longest, len(letters))
        if len(letters) == cap:
            witnesses.append(PinWord(origin, letters))
            continue
        for ch in _PUSH_ORDER[letters[-1:]]:
            stack.append((origin, letters + ch, *_pin_step(host, pin, ch)))
    if witnesses:
        return PinProbeResult(None, True, tuple(witnesses))
    return PinProbeResult(longest + 1, False, ())
