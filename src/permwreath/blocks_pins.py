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
rectangle, so ``_proper_pins`` reads that band of values and of
positions and no other point.  Reaching sequences are proper by
construction, so their flags are set, not rechecked.  A pin word is
realised by one insertion per letter into each axis's rank order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .avoidance import PermClass, member
from .perm_core import Permutation, _trusted, reduce

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


def _minimal_span(pi: Sequence[int], pos_of: dict, i: int, j: int) -> tuple[int, int]:
    # Closure expansion over a work list: the positions lo..hi and the
    # values vlo..vhi read so far widen to cover what the other range
    # needs, plo..phi and wlo..whi, until neither needs more.  Each
    # position and each value is read once, when it is first covered.
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
        for v in (*range(wlo, vlo), *range(vhi + 1, whi + 1)):
            q = pos_of[v]
            if q < plo:
                plo = q
            elif q > phi:
                phi = q
        vlo, vhi = wlo, whi
    return lo, hi


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
    s, e = _minimal_span(pi, {v: p for p, v in enumerate(pi, start=1)}, i, j)
    seg = pi[s - 1 : e]
    return MinimalBlock(pi, (s, e), (min(seg), max(seg)), reduce(seg))


# --- rectangles and pin conditions ------------------------------------

Point = tuple  # (position, value)


def _bbox(pts: Sequence[Point]) -> tuple:
    xs = [p for p, _ in pts]
    ys = [v for _, v in pts]
    return min(xs), max(xs), min(ys), max(ys)


def _grow(rect, q: Point) -> tuple:
    # The rectangle of rect's points and q: pins only ever enlarge it.
    pmin, pmax, vmin, vmax = rect
    pos, val = q
    return min(pmin, pos), max(pmax, pos), min(vmin, val), max(vmax, val)


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


def _further(a: Point, b: Point, direction: str) -> bool:
    if direction == RIGHT:
        return a[0] > b[0]
    if direction == LEFT:
        return a[0] < b[0]
    if direction == UP:
        return a[1] > b[1]
    return a[1] < b[1]


def _proper_pins(pi: Sequence[int], pos_of: dict, last: Point, rect, prev) -> dict:
    # The proper next pin in each direction: among the points of ``pi``
    # that slice ``rect``, the rectangle of the pins so far, and separate
    # the ``last`` pin from ``prev``, the rectangle of the earlier ones,
    # the furthest in its direction.  A point separates them exactly when
    # it lies in the channel between them: its value in the band
    # (wmax, pval) or (pval, wmin), or its position in the band
    # (qmax, ppos) or (ppos, qmin).  So only those values, read through
    # ``pos_of``, and those positions, read through ``pi``, are visited.
    # The order of the visits does not matter: ``_further`` is strict and
    # two points differ in both coordinates, so the furthest is unique,
    # and a point in both bands is merely visited twice.
    qmin, qmax, wmin, wmax = prev
    ppos, pval = last
    band = [(pos_of[v], v) for v in (*range(wmax + 1, pval), *range(pval + 1, wmin))]
    band += [(p, pi[p - 1]) for p in (*range(qmax + 1, ppos), *range(ppos + 1, qmin))]
    by_dir: dict = {}
    for q in band:
        d = _slice_direction(q, rect)
        if d is not None and (d not in by_dir or _further(q, by_dir[d], d)):
            by_dir[d] = q
    return by_dir


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

    pos_of = {v: p for p, v in enumerate(host, start=1)}
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
        proper.append(_proper_pins(host, pos_of, pts[idx - 1], rect, prev).get(d) == p)
        prev, rect = rect, _grow(rect, p)
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


def pin_word_points(word: PinWord) -> tuple[Permutation, tuple[tuple[int, int], ...]]:
    """Realise a word and return (host permutation, pins as host points).

    >>> pin_word_points(PinWord("12", "UR"))
    (Permutation([1, 4, 2, 3]), ((1, 1), (3, 2), (2, 4), (4, 3)))
    """
    # Place the pins by integer rank.  Only pins are in the plot, so the
    # channel separating the previous pin from the earlier rectangle is
    # empty: the new pin takes the rank ``cut`` at that rectangle's edge,
    # every rank from ``cut`` up moves up by one, and on the other axis
    # the pin goes one step beyond the extreme in its direction.  The
    # previous pin left along the axis the new pin slices, or is the
    # origin's second point, so there it holds rank 1 or k of the k pins
    # so far: the cut is k when it is at k, and 2 when it is at 1.  Every
    # proper pin sequence with this word realises the same pattern, so
    # the construction is canonical as well as valid.
    #
    # Each axis keeps the pin numbers in rank order, bottom first, and each
    # letter makes one insertion next to an end of each.  On the axis it
    # slices, the new pin goes just below the top pin when the previous
    # pin is on top, taking rank k and lifting the top pin to k + 1 (cut
    # k), and just above the bottom pin otherwise, taking rank 2 and
    # lifting every rank from 2 (cut 2).  On the axis it leaves by, it
    # goes on top for R and U, taking rank k + 1, and at the bottom for L
    # and D, taking rank 1 and lifting every other.  The ranks are read
    # off once at the end, so a word of k letters costs O(k).
    pos = deque((0, 1))
    val = deque((0, 1) if word.origin == "12" else (1, 0))
    for k, ch in enumerate(word.letters, start=2):
        # ``cross`` is the axis the pin slices, ``along`` the one it leaves by.
        cross, along = (val, pos) if ch in _HORIZONTAL else (pos, val)
        cross.insert(k - 1 if cross[-1] == k - 1 else 1, k)
        if ch in "RU":
            along.append(k)
        else:
            along.appendleft(k)
    pos_rank, val_rank = [0] * len(pos), [0] * len(val)
    for axis, rank in ((pos, pos_rank), (val, val_rank)):
        for r, pin in enumerate(axis, start=1):
            rank[pin] = r
    return _trusted(val_rank[pin] for pin in pos), tuple(zip(pos_rank, val_rank))


def pin_word_to_perm(word: PinWord) -> Permutation:
    """The permutation realised by a pin word.

    >>> pin_word_to_perm(PinWord("12", "UR"))
    Permutation([1, 4, 2, 3])
    """
    return pin_word_points(word)[0]


# --- reaching sequences -----------------------------------------------

def _dfs_reaching(pi: Sequence[int], pos_of: dict, p1, p2, target):
    # Depth-first over proper pins, trying R, U, L, D in that order (so
    # they are pushed in reverse).  A proper reaching sequence always
    # exists (Brignall, Huczynska and Vatter), so the search only has to
    # find one.  Each entry carries its pins, their directions (the keys
    # under which ``_proper_pins`` returned them), the rectangle of its
    # pins and that of all but the last.  A target among the starting
    # points is reached by them alone.
    if target in (p1, p2):
        return [p1, p2], [None, None]
    stack = [([p1, p2], [None, None], _bbox([p1, p2]), _bbox([p1]))]
    while stack:
        pins, dirs, rect, prev = stack.pop()
        if pins[-1] == target:
            return pins, dirs
        cands = _proper_pins(pi, pos_of, pins[-1], rect, prev)
        for d in (DOWN, LEFT, UP, RIGHT):
            if d in cands:
                q = cands[d]
                stack.append((pins + [q], dirs + [d], _grow(rect, q), rect))
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
    pos_of = {v: p for p, v in enumerate(pi, start=1)}
    s, e = _minimal_span(pi, pos_of, i, j)
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

@dataclass(frozen=True)
class PinProbeResult:
    """Outcome of the bounded probe.

    ``threshold`` is the smallest number of letters at which every
    realised permutation leaves the class (None when the cap was hit);
    ``witnesses`` are the cap-length words still alive on exceeding.
    """

    threshold: int | None
    exceeded: bool
    witnesses: tuple[PinWord, ...]


def _next_letters(letters: str) -> str:
    if not letters:
        return "LRUD"
    return "UD" if letters[-1] in _HORIZONTAL else "LR"


def _expand_alive(word: PinWord, inner: PermClass) -> list[PinWord]:
    out = []
    for ch in _next_letters(word.letters):
        child = PinWord(word.origin, word.letters + ch)
        if member(pin_word_to_perm(child), inner):
            out.append(child)
    return out


def pin_probe(inner: PermClass, cap: int) -> PinProbeResult:
    """Search for the point where every proper pin sequence leaves ``inner``.

    Level k holds the permutations realised by proper pin sequences of
    k + 2 points, probed from both origins.  A branch dies as soon as
    its realised permutation leaves the class (the class is closed
    downward, so dead branches stay dead).  Returns the first empty
    level, or the surviving cap-level words when the cap is reached.

    >>> from .avoidance import av
    >>> pin_probe(av(21), 10).threshold
    1
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    frontier = [
        w
        for w in (PinWord("12"), PinWord("21"))
        if member(pin_word_to_perm(w), inner)
    ]
    if not frontier:
        return PinProbeResult(0, False, ())
    for level in range(1, cap + 1):
        nxt = [w for word in frontier for w in _expand_alive(word, inner)]
        if not nxt:
            return PinProbeResult(level, False, ())
        frontier = nxt
    return PinProbeResult(None, True, tuple(frontier))
