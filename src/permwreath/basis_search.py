"""Basis enumeration for wreath products and the infinite antichain families.

A permutation sits in the basis of a wreath product when it is not a
member but every one-point deletion is: the basis is the set of minimal
non-members.  Membership is closed downward, so a permutation whose
deletion of its maximum is a non-member is itself a non-member and not
minimal.  The scan therefore never visits all of S_n: it keeps the
members of each length as one set and builds the length-n candidates
as their children, by inserting n at every position.  Each parent gets
one full greedy pass, and its deflation extends to most of its
children: n joins the block that holds n - 1, or stands alone as a new
block, and one pinned row of the downset grower for that block's
pattern, or for the parent's profile, certifies those children members
with no pass of their own.  Every other child gets one greedy pass, and
its profile is tested against the outer class.  Only a non-member has
its other deletions looked up in the previous length's members.

Next to the members, the scan carries the members that lie in the
inner class itself, at every length below the one it scans.  Every
permutation of the inner class is a member, one block inflating the
point, so that set is the whole inner class below the scanned length,
and it answers every block test: the scan makes no memo entry for a
block.  A child contains its parent and the inner class is closed
downward, so a child of a parent outside the inner class is outside it
too: its greedy pass is told so and never tests the whole host.  A child
of a parent inside the inner class is tested whole, once, as a bit of
its parent's row, and so is a child that is its own profile; neither
verdict is memoised, since no later test repeats a whole host.

The antichain families are parameterised generators of arbitrarily long
basis elements for specific products, each pairing an outer class with
the inner classes it defeats.  The seven families come from two
constructions.  Five are near-diagonal, each one periodic word of
offsets pi(i) - i: a head, the period (2, -2) once per step, and a tail
(``PeriodicFamily``).  Two are one spiral around a core.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .avoidance import PermClass, _children, _in_class, member, named
from .perm_core import (
    ONE,
    CapExceeded,
    Permutation,
    _matches,
    _trusted,
    delete_point,
    involves,
)
from .profile import _greedy_blocks, _in_product, _profile_of, wreath_member

#: Bound on the length of exhaustive basis enumeration.
BASIS_CAP = 10

#: Bound on the points one ``antichain gen`` call builds.
ANTICHAIN_POINTS_CAP = 10**6


@dataclass(frozen=True)
class BasisRecord:
    """A discovered minimal non-member of a wreath product."""

    perm: Permutation
    x_basis: tuple[Permutation, ...]
    y_basis: tuple[Permutation, ...]
    length: int


def _row(pattern: Permutation, cls: PermClass, rows: dict) -> int:
    # Bit q is set when ``pattern``, which lies in ``cls``, still lies in
    # it with its maximum plus one inserted at index q; memoised in ``rows``.
    key = pattern, cls
    row = rows.get(key)
    if row is None:
        row = rows[key] = sum(1 << q for q, _, ok in _children(pattern, cls) if ok)
    return row


def _certificate(
    mu: Permutation,
    ends: list[int],
    lows: list[int],
    outer: PermClass,
    inner: PermClass,
    rows: dict,
) -> tuple[int, int]:
    """The children of the member ``mu`` that its own deflation certifies.

    ``ends`` and ``lows`` are the left-greedy blocks of ``mu``.  Returns
    two bitmasks over the index p at which n = len(mu) + 1 is inserted:
    the children that rules (a) and (b) of
    :func:`basis_elements_of_length` certify as members, and among them
    the children that lie in ``inner``, which only a parent that is one
    block, T = mu, can have (rule (d)).  ``rows`` holds the rows of the
    pass.
    """
    t = lows.index(max(lows))  # the block T that holds n - 1
    s = ends[t - 1] + 1 if t else 0
    top = _trusted([v - lows[t] + 1 for v in mu[s : ends[t] + 1]])
    profile = _profile_of(lows, len(mu))
    # A row whose pattern is mu itself is read by mu alone, so it is not
    # memoised.
    sure = _row(top, inner, {} if top == mu else rows) << s
    in_y = sure if top == mu else 0
    row = _row(profile, outer, {} if profile == mu else rows)
    for i, p in enumerate((0, *(e + 1 for e in ends))):
        if row >> i & 1:
            sure |= 1 << p
    return sure, in_y


def basis_elements_of_length(
    outer: PermClass,
    inner: PermClass,
    n: int,
    parents: set[Permutation],
    prev_inner: set[Permutation],
    *,
    keep_members: bool = True,
) -> tuple[list[Permutation], set[Permutation], set[Permutation]]:
    """One length-n pass of the basis scan, grown from the members below.

    ``parents`` is the set of length-(n-1) members of the product, which
    the pass grows its candidates from and looks deletions up in, and
    ``prev_inner`` the set of the members of every length below n that
    lie in ``inner`` itself (both ignored for n = 1).  Every length-n
    permutation has exactly one parent, the deletion of its maximum n,
    and a permutation whose parent is a non-member is a non-member that
    is not minimal.  So the candidates are the children of members: n
    inserted at each 0-based index p of each member.  A non-member has
    its other n-1 deletions looked up in ``parents``, and it is a basis
    element when all of them are there.

    Each parent mu gets one full greedy pass, the loop of
    ``profile._greedy_blocks``, with the hint that it lies outside
    ``inner`` when it does: that gives its m blocks and its profile P,
    which lies in ``outer`` since mu is a member.  A child's values
    other than n are the parent's, so the parent's deflation extends to
    most children, and any deflation with its profile in ``outer`` and
    its blocks in ``inner`` makes a member.

    (a) Top block.  Let T be the parent block that holds n - 1, at
        indices s..e.  When p is in s..e+1, T with n inserted is an
        interval of the child; when its pattern lies in ``inner``, the
        child is P inflated by the parent's blocks with T replaced, a
        member.
    (b) New block.  When p is the start of parent block i, or n - 1
        with i = m, n is a block alone; when P with m + 1 inserted at
        index i lies in ``outer``, the child is a member.
    (c) Rows.  Both verdicts are bits of one row of the downset grower
        ``avoidance._children``: T's pattern in ``inner`` for (a) and P
        in ``outer`` for (b).  T lies in ``inner`` and P in ``outer``,
        so each child is a pinned test.  Each row is memoised as a
        bitmask for the pass, keyed by pattern and class, except a row
        whose pattern is the parent itself, which only that parent
        reads: row (a) of a parent in ``inner``, which is one block (see
        (d)), and row (b) of a parent of singleton blocks, which is its
        own profile.  The helper ``_certificate`` reads both rows.

    Every child that (a) and (b) leave gets one full greedy pass with
    the outside hint.  A child of n singleton blocks is its own profile
    and is tested whole against ``outer`` (see (e)); any other child's
    profile, shorter than n, is looked up in ``outer``'s memo.

    (d) In ``inner``.  A child contains its parent and ``inner`` is
        closed downward, so only a child of a parent in ``inner`` can
        lie in it.  Such a parent is one block, T is the parent itself,
        and row (a) is the pinned test of each child whole against
        ``inner``; no child of a parent outside ``inner`` is tested.  A
        child in ``inner`` is a member by (a); any other child's greedy
        pass gets the outside hint.
    (e) Block verdicts from the layers.  When the point lies in the
        product it lies in ``outer``, and every permutation sigma of
        ``inner`` is a member, the inflation 1[sigma].  By induction on
        n, then, ``prev_inner`` is every permutation of ``inner``
        shorter than n: each length's members include all of ``inner``
        at that length, and (d) sorts out the ones in ``inner``.  Every
        block this pass tests is shorter than n, a block of a parent or
        of a child that the hint keeps off the whole host, so its
        verdict is a lookup in ``prev_inner``, with no memo entry.  The
        whole host is tested once and never memoised: against ``inner``
        in (d), its verdict going into the returned set, and against
        ``outer`` when the child has n blocks, since a child of
        singleton blocks is its own profile.  No later test reads such a
        verdict: memoising the singleton-block children raised the
        length-8 scan's peak RSS by about 0.38 MB.  When the point is
        not in the product, no pass has parents and nothing is tested.

    Returns the basis elements of length n in lexicographic order, the
    set of length-n members (the next pass's ``parents``) and the
    set of those members that lie in ``inner``, which the caller adds to
    the next pass's ``prev_inner``; both sets are empty when
    ``keep_members`` is false, for the last length of a scan, and then
    no certified child is built.  Only the basis elements are sorted:
    the order in which a pass visits its parents changes no verdict.
    """
    if n == 1:
        # The point is a member only when blocks exist, i.e. it lies in inner.
        if wreath_member(ONE, outer, inner):
            return [], {ONE}, {ONE}
        return [ONE], set(), set()
    is_block = prev_inner.__contains__  # (e): every block is shorter than n
    members: set[Permutation] = set()
    in_inner: set[Permutation] = set()
    found: list[Permutation] = []
    rows: dict[tuple[Permutation, PermClass], int] = {}
    for mu in parents:
        ends, lows = _greedy_blocks(mu, inner, mu not in prev_inner, in_inner=is_block)
        sure, in_y = _certificate(mu, ends, lows, outer, inner, rows)
        for p in range(n):
            if sure >> p & 1:  # (a), (b)
                if keep_members:
                    pi = _trusted(mu[:p] + (n,) + mu[p:])
                    members.add(pi)
                    if in_y >> p & 1:
                        in_inner.add(pi)
                continue
            child = _trusted(mu[:p] + (n,) + mu[p:])
            _, lows = _greedy_blocks(child, inner, True, in_inner=is_block)
            if (
                _in_class(child, outer)
                if len(lows) == n
                else member(_profile_of(lows, n), outer)
            ):
                if keep_members:
                    members.add(child)
            elif all(
                delete_point(child, q) in parents for q in range(1, n + 1) if q != p + 1
            ):
                found.append(child)
    found.sort()
    return found, members, in_inner


def basis_passes(
    outer: PermClass,
    inner: PermClass,
    max_len: int,
) -> Iterator[tuple[int, list[Permutation]]]:
    """The one basis loop: (n, basis elements of length n) for n = 1..max_len.

    The limits are checked when this is called, not when the passes are
    first iterated, so a refused scan raises before its caller does
    anything else: ``ValueError`` below length 1 and ``CapExceeded``
    above ``BASIS_CAP``.  It then returns the generator of passes.  Each
    length is grown from the previous length's members and the members
    in ``inner`` of every length before it, so every pass runs; a caller
    that has already reported some lengths, as the CLI has those in its
    store, skips them.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_len > BASIS_CAP:
        raise CapExceeded(f"max_len {max_len} exceeds the cap {BASIS_CAP}")

    def passes() -> Iterator[tuple[int, list[Permutation]]]:
        members, in_inner = set(), set()
        for n in range(1, max_len + 1):
            found, members, new_inner = basis_elements_of_length(
                outer, inner, n, members, in_inner, keep_members=n < max_len
            )
            in_inner |= new_inner
            yield n, found

    return passes()


def wreath_basis(
    outer: PermClass,
    inner: PermClass,
    max_len: int,
) -> list[BasisRecord]:
    """All basis elements of the wreath product up to ``max_len``.

    Ascending by (length, lexicographic order).

    >>> from .avoidance import av
    >>> [r.perm for r in wreath_basis(av(21), av(21), 5)]
    [Permutation([2, 1])]
    """
    return [
        BasisRecord(p, outer.basis, inner.basis, len(p))
        for _, found in basis_passes(outer, inner, max_len)
        for p in found
    ]


@dataclass(frozen=True)
class VerifyResult:
    """Verdict on a claimed basis element, with the failure witness."""

    ok: bool
    reason: str
    deleted_position: int | None = None
    witness: Permutation | None = None

    def __bool__(self) -> bool:
        return self.ok


def _live(cls: PermClass, pi: Permutation, found: list | None = None) -> PermClass:
    """The class whose basis is the elements of ``cls.basis`` that ``pi`` involves.

    When ``pi`` involves them all, that is ``cls`` itself, and no new
    class is built for the membership memo's keys to hold.  With
    ``found``, an empty list, the search that finds the first live
    element also writes the values of its occurrence into it.
    """
    live: list[Permutation] = []
    for b in cls.basis:
        if _matches(b, pi, 1, None, None if live else found):
            live.append(b)
    return cls if len(live) == len(cls.basis) else PermClass(tuple(live))


def verify_basis_element(
    pi: Sequence[int], outer: PermClass, inner: PermClass
) -> VerifyResult:
    """Check that ``pi`` is minimally outside the wreath product.

    True requires pi itself to be a non-member while every one-point
    deletion is a member; a failed check names the offending deletion
    or reports that pi is a member.

    Every permutation that ``wreath_member(d, outer, inner)`` tests --
    the blocks grown by the greedy profile and the profile itself -- is
    a pattern of ``d``, and so of ``pi`` when ``d`` is ``pi`` or one of
    its deletions.  Avoidance is inherited by patterns: a basis element
    that ``pi`` avoids is avoided by all of them, and testing for it is
    wasted work.  So each class is first cut down to its live basis, the
    elements ``pi`` involves, and every membership test runs on the cut
    classes.  The verdict is exact.  A sub-basis of an antichain is an
    antichain, so the cut classes need no normalisation; an empty live
    basis is the class of all permutations, and a block class that
    excludes the point keeps the point live, since every ``pi`` involves
    it.

    The search that finds the live block basis also hands back one
    occurrence W in ``pi`` of a live block basis element beta.  Then pi
    lies outside the cut block class, and so does each deletion at a
    position outside W, since it keeps W and so involves beta.  Their
    greedy passes take the promise ``outside_inner`` of
    ``profile._greedy_blocks``: none grows its first block to the whole
    host, so none tests it.  Only the at most len(beta) deletions at W's
    positions, and every host when ``pi`` avoids the block basis, run
    the pass without it, and test a whole host through the membership
    memo: a family's inner classes often cut to one live basis, so
    verifying a member against each of them asks the same deletions
    again.  The blocks, and so the verdict, are the same either way.
    """
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    occurrence: list[int] = []
    outer, inner = _live(outer, pi), _live(inner, pi, occurrence)
    w_positions = {pi.index(v) + 1 for v in occurrence}
    outside = bool(w_positions)
    if _in_product(pi, outer, inner, outside):
        return VerifyResult(False, "the permutation is a member of the product")
    if len(pi) > 1:
        for pos in range(1, len(pi) + 1):
            d = delete_point(pi, pos)
            if not _in_product(d, outer, inner, outside and pos not in w_positions):
                return VerifyResult(
                    False,
                    f"deleting position {pos} leaves a non-member",
                    deleted_position=pos,
                    witness=d,
                )
    return VerifyResult(True, "minimal non-member")


# --- antichain families -----------------------------------------------

#: The period of every offset row: each step adds a high and a low point.
PERIOD = (2, -2)


@dataclass(frozen=True)
class PeriodicFamily:
    """A near-diagonal family, written by its offsets pi(i) - i.

    Members 1..len(first) are the rows of ``first``, given as values.
    Every later member k has the offsets ``head``, then ``PERIOD``
    repeated k - 1 - len(first) times, then ``tail``.

    >>> FAMILIES["thm6"].generate(2)
    [2, 5, 1, 3, 7, 4, 9, 8, 6]
    """

    head: tuple[int, ...]
    tail: tuple[int, ...]
    first: tuple[tuple[int, ...], ...] = ()

    def __call__(self, k: int) -> list[int]:
        if k <= len(self.first):
            return list(self.first[k - 1])
        offsets = (*self.head, *PERIOD * (k - 1 - len(self.first)), *self.tail)
        return [i + d for i, d in enumerate(offsets, 1)]


def _widdershins(k: int, core: tuple[int, ...]) -> list[int]:
    # The descent pairs the highs 4k+m-1, 4k+m-3, .. with the lows
    # 1, 4, 6, .., 2k; the core (offsets from 2k) follows; the ascent
    # pairs the highs 2k+4+m, 2k+6+m, .. with the lows 2k+1, 2k-1, .., 5;
    # and 2 3 closes the spiral.  m is the length of the core.
    m = len(core)
    descent = zip(range(4 * k + m - 1, 2 * k + m, -2), [1, *range(4, 2 * k + 1, 2)])
    ascent = zip(range(2 * k + 4 + m, 4 * k + m + 1, 2), range(2 * k + 1, 4, -2))
    return [
        *(v for pair in descent for v in pair),
        *(2 * k + c for c in core),
        *(v for pair in ascent for v in pair),
    ] + [2, 3]


def _wid_2413(k: int) -> list[int]:
    return _widdershins(k, (4, 2, 7, 5, 3))


def _wid_2143(k: int) -> list[int]:
    return _widdershins(k, (6, 2, 4, 7, 9, 5, 3))


@dataclass(frozen=True)
class AntichainFamily:
    """A generator of arbitrarily long basis elements for X wr Y.

    ``outer`` is the class supplying the anchor pattern; ``inners`` are
    the block classes the family defeats (the first is canonical).
    """

    name: str
    generate: Callable[[int], list[int]]
    outer: PermClass
    inners: tuple[PermClass, ...]

    @property
    def inner(self) -> PermClass:
        return self.inners[0]


# The offset rows.  The av25134 rows share one head and the av25143 rows
# another, after a k = 1 member that is no offset word of the row.
_HEAD_25134, _HEAD_25143 = (1, 3, -2, -1), (1, 3, -2, 0, 2, -3)
_THM6 = PeriodicFamily(_HEAD_25134, (2, 0, -3))
_EX2II = PeriodicFamily(_HEAD_25134, (3, 1, -1, -4))
_EX2III = PeriodicFamily(_HEAD_25134, (3, 1, -3, -2))
_EX3_4321 = PeriodicFamily(_HEAD_25143, (3, 1, -1, -4), ((2, 5, 1, 4, 8, 7, 6, 3),))
_EX3_4312 = PeriodicFamily(_HEAD_25143, (3, 1, -3, -2), ((2, 5, 1, 4, 8, 7, 3, 6),))

FAMILIES: dict[str, AntichainFamily] = {
    name: AntichainFamily(name, gen, named(outer), tuple(map(named, inners)))
    for name, gen, outer, inners in (
        ("thm6", _THM6, "av25134", ("av321", "av321-2341", "av321-3412")),
        (
            "ex2ii",
            _EX2II,
            "av25134",
            ("av4321-4312", "av4321-4231", "av4321-4213", "av4321-3412", "av4321-3214"),
        ),
        ("ex2iii", _EX2III, "av25134", ("av4312-4231", "av4312-4213", "av4312-3421")),
        ("ex3-4321-4123", _EX3_4321, "av25143", ("av4321-4123",)),
        ("ex3-4312-4123", _EX3_4312, "av25143", ("av4312-4123",)),
        ("widdershins-2413", _wid_2413, "av31542", ("av3412-2413",)),
        ("widdershins-2143", _wid_2143, "av412563", ("av3412-2143",)),
    )
}


def antichain_member(family: str | AntichainFamily, k: int) -> Permutation:
    """The k-th member of an antichain family (k from 1).

    >>> str(antichain_member("thm6", 1))
    '2 5 1 3 7 6 4'
    """
    if isinstance(family, str):
        try:
            family = FAMILIES[family]
        except KeyError:
            known = ", ".join(sorted(FAMILIES))
            raise ValueError(
                f"unknown family {family!r}; known: {known}"
            ) from None
    if k < 1:
        raise ValueError("family members are indexed from 1")
    return Permutation(family.generate(k))


def family_points(family: AntichainFamily, k: int, *, upto: bool = False) -> int:
    """Points in the k-th member of ``family``, or in members 1..k with ``upto``.

    Every family's member length is affine in k: each period of an
    offset row adds two points and each turn of a spiral four.  So the
    first two members fix the line, and nothing longer is built.

    >>> family_points(FAMILIES["thm6"], 10**5)
    200005
    """
    first = len(family.generate(1))
    step = len(family.generate(2)) - first
    if upto:
        k = max(k, 0)
        return step * k * (k + 1) // 2 + (first - step) * k
    return first + step * (k - 1)


def check_antichain(perms: Iterable[Sequence[int]]) -> bool:
    """True iff the permutations are pairwise incomparable under involvement."""
    ps = [p if isinstance(p, Permutation) else Permutation(p) for p in perms]
    for a, b in itertools.combinations(ps, 2):
        if involves(a, b) or involves(b, a):
            return False
    return True
