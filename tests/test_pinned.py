"""The pinned search against the unpinned one.

``_matches(sigma, pi, limit, pin)`` counts only the occurrences through
the extreme point at 0-based position ``pin``.  When ``pi`` less that
point avoids ``sigma``, those are all of them, so the pinned verdict must
be ``involves``.  Every pattern of length at most 5 is checked at every
extreme point of every host of length at most 6, and of a seeded sample
of hosts of lengths 7 and 8.
"""

import pytest

from permwreath.avoidance import _in_class, _member, av, member
from permwreath.perm_core import _matches, delete_point, involves

from conftest import p, pattern_census, perms_up_to, seeded_hosts

PATTERNS = tuple(perms_up_to(5))


def extremes(pi):
    """0-based positions of the first, last, top and bottom points."""
    n = len(pi)
    return sorted({0, n - 1, pi.index(n), pi.index(1)})


def check_host(host, counting=True):
    """The pinned verdict against ``involves`` wherever the deletion of the
    pin avoids the pattern; with ``counting``, also the pinned count
    against the occurrences the pin adds, for every pattern."""
    counts = pattern_census(host, 5)
    checked = 0
    for pin in extremes(host):
        less = pattern_census(delete_point(host, pin + 1), 5)
        for sigma in PATTERNS:
            if counting:
                through = counts[sigma] - less[sigma]
                assert _matches(sigma, host, None, pin) == through, (sigma, host, pin)
            if not less[sigma]:
                pinned = _matches(sigma, host, 1, pin) > 0
                assert pinned == involves(sigma, host), (sigma, host, pin)
                checked += 1
    return checked


def test_every_host_up_to_six():
    # Length 1 has no deletion; its one point is checked by the k < 2 case.
    # Counts are checked up to length 5, and on the seeded hosts below.
    checked = sum(
        check_host(host, counting=len(host) < 6) for host in perms_up_to(6) if len(host) > 1
    )
    assert checked > 0


@pytest.mark.parametrize("n", [7, 8])
def test_seeded_hosts(n):
    for host in seeded_hosts(n):
        check_host(host)


def test_a_point_through_a_pin():
    assert _matches(p("1"), p("213"), None, 0) == 1
    assert _matches(p("1"), p("1"), 1, 0) == 1


def test_a_pin_that_is_no_extreme_is_refused():
    with pytest.raises(ValueError, match="not an extreme point"):
        _matches(p("12"), p("25314"), 1, 2)


@pytest.mark.parametrize("pin", [-1, 2])
def test_a_pin_outside_the_host_is_refused(pin):
    # A negative pin would reverse the host but not the pattern, and one
    # past the end would read the last position; both are refused before
    # the early returns of a pattern too long or too short to search.
    for sigma in (p("21"), p("1"), p("321")):
        with pytest.raises(ValueError, match="not a position"):
            _matches(sigma, p("12"), 1, pin)
    with pytest.raises(ValueError, match="not a position"):
        _in_class(p("12"), av(21), pin)
    with pytest.raises(ValueError, match="not a position"):
        _in_class(p("12"), av(321), pin)
    # A class with an empty basis runs no search, and refuses it too.
    with pytest.raises(ValueError, match="not a position"):
        _in_class(p("12"), av(), pin)


def test_member_takes_no_pin():
    # A pin is a promise that the host less the pinned point lies in the
    # class; 213 less its 3 is 21, outside av(21), so a pinned answer
    # here would be wrong.  The public, memoised test takes no promise.
    with pytest.raises(TypeError):
        member(p("213"), av(21), pin=2)
    # The pinned test is the unmemoised ``_in_class``.
    before = _member.cache_info()
    assert not _in_class(p("2513764"), av(321), 4)
    assert _in_class(p("2513647"), av(321), 6)
    after = _member.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
