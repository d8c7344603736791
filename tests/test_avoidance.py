import itertools

import pytest

from permwreath.avoidance import (
    REGISTRY,
    BasisNormalizationWarning,
    PermClass,
    _children,
    av,
    class_literal,
    enumerate_members,
    member,
    named,
    parse_class,
)
from permwreath.perm_core import CapExceeded, Permutation, delete_point

from conftest import p, perms_of_length, perms_up_to


class TestBasisNormalization:
    def test_redundant_element_dropped_with_warning(self):
        with pytest.warns(BasisNormalizationWarning):
            cls = av(21, 321)
        assert cls.basis == (p("21"),)

    def test_duplicates_collapse(self):
        assert av(321, 321).basis == (p("321"),)

    def test_order_independent(self):
        patterns = [p("25134"), p("321"), p("4321")]
        classes = set()
        for perm_order in itertools.permutations(patterns):
            with pytest.warns(BasisNormalizationWarning):
                classes.add(av(*perm_order))
        assert len(classes) == 1

    def test_antichain_untouched(self):
        cls = av(3412, 2413)
        assert cls.basis == (p("2413"), p("3412"))

    def test_normalization_idempotent(self):
        with pytest.warns(BasisNormalizationWarning):
            once = av(21, 321, 4321)
        again = av(*once.basis)
        assert once == again and again.basis == once.basis

    def test_named_handles_compare_by_basis(self):
        assert av(321, name="a") == av(321, name="b") == av(321)


class TestMember:
    def test_known_values(self):
        assert not member(p("2513764"), av(321))
        assert member(p("123456"), av(21))
        assert not member(p("251364"), av(25134))

    def test_empty_basis_admits_everything(self):
        everything = PermClass(())
        for pi in perms_of_length(4):
            assert member(pi, everything)

    def test_one_point_basis_excludes_everything(self):
        empty = av(1)
        for pi in perms_up_to(3):
            assert not member(pi, empty)

    def test_closed_downward(self):
        for cls in (av(321), av(123), named("av3412-2413")):
            for pi in perms_up_to(7):
                if member(pi, cls) and len(pi) > 1:
                    for pos in range(1, len(pi) + 1):
                        assert member(delete_point(pi, pos), cls)

    def test_concurrent_lookups(self):
        from concurrent.futures import ThreadPoolExecutor

        cls = named("av3412-2413")
        perms = list(perms_of_length(6))
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda q: member(q, cls), perms))
        assert threaded == [member(q, cls) for q in perms]


class TestEnumerate:
    def test_known_values(self):
        assert enumerate_members(av(21), 4) == [p("1234")]
        assert len(enumerate_members(PermClass(()), 4)) == 24

    def test_catalan_counts_for_single_pattern_of_length_three(self):
        catalan = [1, 2, 5, 14, 42, 132]
        for basis in (321, 123, 132):
            for n, c in zip(range(1, 7), catalan):
                assert len(enumerate_members(av(basis), n)) == c

    def test_matches_filter(self):
        for cls in (av(321), *REGISTRY.values()):
            for n in range(1, 8):
                expected = sorted(pi for pi in perms_of_length(n) if member(pi, cls))
                assert enumerate_members(cls, n) == expected

    def test_lexicographic_order(self):
        out = enumerate_members(av(321), 5)
        assert out == sorted(out)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_members(av(321), 11)


class TestChildren:
    """The one downset grower: every permutation once, with its verdict."""

    @pytest.mark.parametrize("text", [*sorted(REGISTRY), "av()", "av(1)"])
    def test_children_of_every_layer(self, text):
        # _children promises that mu lies in the class, so it is given
        # the members of each layer; their children are every permutation
        # one longer whose deletion of its maximum is a member, once each.
        cls = parse_class(text)
        layer = [()]
        for n in range(1, 8):
            grown = []
            for mu in layer:
                for p, child, verdict in _children(mu, cls):
                    grown.append(tuple(child))
                    if n > 1:
                        assert delete_point(child, p + 1) == mu, (mu, p)
                    assert verdict == member(child, cls), child
            assert sorted(grown) == [
                pi
                for pi in perms_of_length(n)
                if n == 1 or member(delete_point(pi, pi.index(n) + 1), cls)
            ], n
            layer = [mu for mu in perms_of_length(n) if member(mu, cls)]


class TestRegistry:
    def test_known_entries(self):
        assert named("av321").basis == (p("321"),)
        assert named("inc-osc").basis == (p("321"), p("2341"), p("3412"), p("4123"))
        assert named("widdershins-y").basis == (p("2413"), p("3412"))

    def test_expected_names_present(self):
        expected = {
            "av21", "av123", "av321", "av25134", "av25143", "av31542",
            "av412563", "av321654",
            "av321-2341", "av321-3412",
            "av4321-4312", "av4321-4231", "av4321-4213", "av4321-3412",
            "av4321-3214",
            "av4312-4231", "av4312-4213", "av4312-3421",
            "av4321-4123", "av4312-4123",
            "av3412-2413", "av3412-2143",
            "inc-osc", "widdershins-y",
        }
        assert expected <= set(REGISTRY)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named("nope")

    def test_registry_is_read_only(self):
        with pytest.raises(TypeError):
            REGISTRY["oops"] = av(21)


class TestParseClass:
    def test_literals(self):
        assert parse_class("av(25134)") == av(25134)
        assert parse_class("av(3412, 2413)") == named("widdershins-y")
        assert parse_class("Av(21)") == av(21)
        assert parse_class("av()") == PermClass(())

    def test_registry_names_accepted(self):
        assert parse_class("inc-osc") == named("inc-osc")

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_class("avoid everything")

    def test_literal_round_trip(self):
        for cls in (av(321), av(3412, 2413), av(25143), PermClass(())):
            assert parse_class(class_literal(cls)) == cls

    def test_literal_patterns_obey_the_cap(self):
        with pytest.raises(CapExceeded):
            parse_class("av(321, 4321)", max_len=3)
        long = " ".join(map(str, range(1, 71)))
        with pytest.raises(CapExceeded):
            parse_class(f"av({long})")
        parsed = parse_class(f"av({long})", max_len=100)
        assert parsed.basis == (Permutation(range(1, 71)),)
        # A registry name is not parsed text, so the cap does not touch it.
        assert parse_class("av4321-3412", max_len=3) == av(4321, 3412)

    def test_long_patterns_round_trip(self):
        cls = av(p("10 1 8 4 6 9 11 7 5 2 3"))
        assert class_literal(cls) == "av(10 1 8 4 6 9 11 7 5 2 3)"
        assert parse_class(class_literal(cls)) == cls


class TestBasisMinimality:
    def test_basis_of_the_class_itself(self):
        # The basis elements are exactly the minimal non-members.
        for cls in (av(321), av(3412, 2413)):
            maxlen = max(len(b) for b in cls.basis)
            minimal = []
            for pi in perms_up_to(maxlen + 1):
                if member(pi, cls):
                    continue
                if len(pi) == 1 or all(
                    member(delete_point(pi, q), cls) for q in range(1, len(pi) + 1)
                ):
                    minimal.append(pi)
            assert sorted(minimal, key=lambda q: (len(q), q)) == sorted(
                cls.basis, key=lambda q: (len(q), q)
            )
