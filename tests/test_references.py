"""The brute-force references in ``conftest`` on answers known by hand.

More than a dozen tests compare the kernels against these, so a fault in
one of them would weaken all of those at once.
"""

from math import comb

from conftest import (
    direct_intervals,
    interval_segmentations,
    p,
    pattern_census,
    seeded_hosts,
)


def test_direct_intervals_of_2413():
    assert direct_intervals(p("2413")) == ((1, 1), (1, 4), (2, 2), (3, 3), (4, 4))


def test_interval_segmentations():
    # Every cut of an identity is into intervals; 2413 is simple, so only
    # the whole and the singletons are left.
    for n in range(1, 7):
        assert len(interval_segmentations(p("123456"[:n]))) == 2 ** (n - 1)
    assert interval_segmentations(p("2413")) == (
        ((1, 4),),
        ((1, 1), (2, 2), (3, 3), (4, 4)),
    )


def test_pattern_census_counts_every_subsequence():
    pi = p("2413")
    for max_len in range(1, 6):
        census = pattern_census(pi, max_len)
        for k in range(1, 5):
            total = sum(c for sigma, c in census.items() if len(sigma) == k)
            assert total == (comb(4, k) if k <= max_len else 0)
    assert pattern_census(pi, 4)[p("2413")] == 1
    assert pattern_census(pi, 4)[p("12")] == 3


def test_seeded_hosts_are_sixty_permutations():
    hosts = seeded_hosts(7)
    assert len(hosts) == 60
    assert all(sorted(pi) == list(range(1, 8)) for pi in hosts)
    assert len(set(hosts)) > 1
