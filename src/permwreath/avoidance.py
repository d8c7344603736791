"""Finitely based pattern classes: membership, enumeration, named classes.

A class is represented by its basis, the finite set of forbidden
patterns; a permutation belongs to the class exactly when it involves
none of them.  Bases are normalised to antichains on construction --
any element involving another is redundant and silently dropped (with a
warning so sloppy command-line input stays visible).
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Sequence

from .perm_core import (
    LENGTH_CAP,
    CapExceeded,
    Permutation,
    _matches,
    _trusted,
    format_perm,
    involves,
    parse_perm,
)

#: Bound on the length of exhaustive enumeration of class members.
ENUM_CAP = 10

#: Entries kept by the membership memo.  Its main traffic is the greedy
#: passes of ``wreath_member`` and ``left_greedy_profile``, whose blocks
#: and whole hosts recur across one host's deletions and across inner
#: classes that cut to one live basis, the profiles that every pass
#: tests against the outer class, and the ``all_deflations`` oracle.  The
#: basis scan answers its block tests from its own layers.
MEMBER_CACHE_SIZE = 1 << 20


class BasisNormalizationWarning(UserWarning):
    """A supplied basis was not an antichain and has been trimmed."""


@dataclass(frozen=True)
class PermClass:
    """A pattern-avoidance class given by its basis.

    Equality and hashing look only at the (normalised) basis, so two
    differently named handles on the same class compare equal and share
    membership cache entries.
    """

    basis: tuple[Permutation, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        elems = sorted(
            {b if isinstance(b, Permutation) else Permutation(b) for b in self.basis},
            key=lambda p: (len(p), p),
        )
        keep = tuple(
            b
            for b in elems
            if not any(o != b and involves(o, b) for o in elems)
        )
        if len(keep) != len(elems):
            dropped = [format_perm(b) for b in elems if b not in keep]
            warnings.warn(
                f"basis was not an antichain; dropped {', '.join(dropped)}",
                BasisNormalizationWarning,
                stacklevel=3,
            )
        object.__setattr__(self, "basis", keep)
        # The membership memo hashes its class argument on every lookup.
        object.__setattr__(self, "_hash", hash(keep))
        # Every permutation shorter than this is a member; with no basis,
        # every permutation is.
        object.__setattr__(self, "_shortest", len(keep[0]) if keep else math.inf)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name if self.name else class_literal(self)


def av(*patterns, name: str | None = None) -> PermClass:
    """Build the class avoiding the given patterns.

    Patterns may be Permutations, iterables of ranks, or anything
    :func:`parse_perm` understands (ints included, so ``av(321)`` works).

    >>> av(321).basis
    (Permutation([3, 2, 1]),)
    """
    basis = []
    for p in patterns:
        if isinstance(p, Permutation):
            basis.append(p)
        elif isinstance(p, (str, int)):
            basis.append(parse_perm(str(p)))
        else:
            basis.append(Permutation(p))
    return PermClass(tuple(basis), name=name)


def _in_class(pi: Sequence[int], cls: PermClass, pin: int | None = None) -> bool:
    # The one class test, unmemoised: for a host that is tested once,
    # a memo entry would only be written and never read.  Its callers
    # outside the memo are the pinned tests of the downset grower, whose
    # rows the basis scan reads, and of the pin probe, origin words
    # included, and the scan's whole test of a child that is its own
    # profile (rule (e) of
    # ``basis_search.basis_elements_of_length``).  ``pin``, a 0-based
    # position, promises that the point there is an extreme of ``pi``
    # (its first or last position, or its top or bottom value) and that
    # ``pi`` less that point lies in ``cls``.  Then only an occurrence
    # through the point can put ``pi`` outside, and only those are
    # searched (see ``perm_core.involves``).  A pin outside ``pi`` is
    # refused here, as the search refuses it, so that a class with an
    # empty basis refuses it too.
    if pin is None:
        return not any(involves(b, pi) for b in cls.basis if len(b) <= len(pi))
    if not 0 <= pin < len(pi):
        raise ValueError(f"pin {pin} is not a position of a host of length {len(pi)}")
    return not any(_matches(b, pi, 1, pin) for b in cls.basis)


_member = lru_cache(maxsize=MEMBER_CACHE_SIZE)(_in_class)


def member(pi: Sequence[int], cls: PermClass) -> bool:
    """True iff ``pi`` avoids every basis element of ``cls``.

    Memoised (bounded LRU); the cache is safe under concurrent readers
    and writers.

    >>> member(Permutation((2, 5, 1, 3, 7, 6, 4)), av(321))
    False
    """
    if not isinstance(pi, Permutation):
        pi = Permutation(pi)
    return _member(pi, cls)


def _children(mu: Sequence[int], cls: PermClass) -> Iterator[tuple]:
    """The one downset grower: each child of ``mu`` with its verdict in ``cls``.

    Yields ``(p, child, verdict)`` for n = len(mu) + 1 inserted at each
    0-based index p of ``mu``, left to right.  Deleting n from the child
    (position p + 1) gives ``mu`` back, so the insertion is inverted by
    deleting the maximum: every length-n permutation is the child of
    exactly one length-(n-1) permutation, its one parent, at exactly one
    index.  Growing every child of a layer therefore visits each longer
    permutation once, and a walk that keeps only the children of members
    misses no member: a class is closed downward and a child contains its
    parent, so a child of a non-member is a non-member.

    The verdict is the child's membership in ``cls``, tested once and
    unmemoised, since each child is a distinct host.  The caller
    promises that ``mu`` lies in ``cls``, so the test looks only for
    occurrences through n, the child's top value (the pinned test of
    :func:`_in_class`).  ``mu`` may be empty, whose one child is the point.
    """
    n = len(mu) + 1
    for p in range(n):
        child = [*mu[:p], n, *mu[p:]]
        yield p, child, _in_class(child, cls, p)


def enumerate_members(cls: PermClass, n: int) -> list[Permutation]:
    """All members of ``cls`` of length ``n``, in lexicographic order.

    The members of each length are the children of the members one
    shorter that :func:`_children` finds in ``cls``, grown from the
    empty permutation.
    """
    if n < 1:
        raise ValueError("length must be positive")
    if n > ENUM_CAP:
        raise CapExceeded(f"enumeration length {n} exceeds the cap {ENUM_CAP}")
    layer = [()]
    for _ in range(n):
        layer = [_trusted(c) for mu in layer for _, c, ok in _children(mu, cls) if ok]
    return sorted(layer)


# --- registry ---------------------------------------------------------

def _pairs(*bases: tuple[int, int]) -> list[PermClass]:
    return [av(a, b, name=f"av{a}-{b}") for a, b in bases]


def _build_registry() -> dict[str, PermClass]:
    classes = [
        av(21, name="av21"),
        av(123, name="av123"),
        av(321, name="av321"),
        av(25134, name="av25134"),
        av(25143, name="av25143"),
        av(31542, name="av31542"),
        av(412563, name="av412563"),
        av(321654, name="av321654"),
        *_pairs((321, 2341), (321, 3412)),
        *_pairs((4321, 4312), (4321, 4231), (4321, 4213), (4321, 3412), (4321, 3214)),
        *_pairs((4312, 4231), (4312, 4213), (4312, 3421)),
        *_pairs((4321, 4123), (4312, 4123)),
        *_pairs((3412, 2413), (3412, 2143)),
        av(321, 2341, 3412, 4123, name="inc-osc"),
    ]
    reg = {}
    for c in classes:
        if c.name in reg:
            raise ValueError(f"duplicate registry name {c.name}")
        reg[c.name] = c
    reg["widdershins-y"] = reg["av3412-2413"]
    return reg


REGISTRY = MappingProxyType(_build_registry())


def named(name: str) -> PermClass:
    """Look up a registered class by name.

    >>> named("av321").basis
    (Permutation([3, 2, 1]),)
    """
    try:
        return REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown class name {name!r}; known: {known}") from None


_LITERAL = re.compile(r"^av\((?P<body>.*)\)$", re.IGNORECASE)


def parse_class(text: str, *, max_len: int = LENGTH_CAP) -> PermClass:
    """Parse a class from a registry name or an ``av(p1,p2,...)`` literal.

    The patterns of a literal are parsed text, so more than ``max_len``
    ranks in one raise :class:`CapExceeded`, as :func:`parse_perm` does;
    a registry name is not text to parse and has no cap.

    >>> parse_class("av(3412, 2413)") == named("widdershins-y")
    True
    """
    s = text.strip()
    if s.lower() in REGISTRY:
        return REGISTRY[s.lower()]
    m = _LITERAL.match(s)
    if not m:
        raise ValueError(
            f"cannot parse class {text!r}: expected a registry name or av(...)"
        )
    body = m.group("body").strip()
    if not body:
        return PermClass(())
    return av(*[parse_perm(tok, max_len=max_len) for tok in body.split(",")])


def class_literal(cls: PermClass) -> str:
    """Canonical ``av(...)`` literal for ``cls``; re-parses to an equal class."""
    return "av(" + ",".join(format_perm(b) for b in cls.basis) + ")"
