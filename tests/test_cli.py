import hashlib
import json
import os
import sys

import pytest

import permwreath.basis_search as basis_search
import permwreath.cli as cli
from permwreath.avoidance import av
from permwreath.basis_search import verify_basis_element
from permwreath.cli import (
    StoreError,
    _store_line,
    execute,
    store_append,
    store_lines,
    store_resume,
)
from permwreath.perm_core import Permutation, parse_perm

from conftest import p
from test_basis_search import _oracle_thm6, _oracle_wid_2143
from test_blocks_pins import increasing_oscillation


def run(*argv):
    return execute(list(argv))


def scan(store, max_len, *flags, x="av(25134)", y="av(321)"):
    """``basis --x X --y Y --max-len MAX_LEN`` after the global ``flags``,
    on the store at ``store`` unless it is None."""
    on_store = () if store is None else ("--store", str(store))
    basis = ("basis", "--x", x, "--y", y, "--max-len", str(max_len))
    return run(*flags, *on_store, *basis)


def stored_records(path):
    """The payloads of the store's basis records, in file order."""
    return [
        obj["payload"] for _, obj in store_lines(path) if obj["kind"] == "basis_record"
    ]


def stored_perms(path):
    return [tuple(record["perm"]) for record in stored_records(path)]


def above(lines, k):
    """The printed records of lengths over k."""
    return [line for line in lines if int(line.split()[0]) > k]


def assert_stores_the_fresh_scan(path, fresh_scan):
    """The store holds each record a fresh scan prints, once, and no other."""
    assert sorted(stored_perms(path)) == sorted(
        tuple(map(int, line.split()[1])) for line in fresh_scan
    )


def append_torn_record(path):
    """Append the first half of a length-6 record, as a crash in the
    middle of its write leaves it."""
    record = _store_line(
        "basis_record",
        {"perm": [2, 6, 4, 1, 3, 5], "x_basis": [[2, 5, 1, 3, 4]],
         "y_basis": [[3, 2, 1]], "length": 6},
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record[: len(record) // 2])


def assert_store_error_at_line_2(path):
    """A scan stops at the store's corrupt line 2 and leaves the file as it was."""
    size = os.path.getsize(path)
    res = scan(path, 3, x="av(21)", y="av(21)")
    assert res.exit_code == 2
    assert res.stdout.startswith(f"store error: {path}: line 2: ")
    assert os.path.getsize(path) == size


MARKER = ("length_complete", {"job": "x", "length": 1})


@pytest.fixture
def store(tmp_path):
    """The path of a store that does not exist yet."""
    return str(tmp_path / "run.jsonl")


@pytest.fixture(scope="module")
def fresh_scan():
    """The printed records of a fresh scan to length 7, one per line."""
    return scan(None, 7).stdout.splitlines()


@pytest.fixture
def passes(monkeypatch):
    """The lengths of the basis passes run from here on, in order."""
    real = basis_search.basis_elements_of_length
    lengths = []

    def spy(outer, inner, n, *rest, **kwargs):
        lengths.append(n)
        return real(outer, inner, n, *rest, **kwargs)

    monkeypatch.setattr(basis_search, "basis_elements_of_length", spy)
    return lengths


class TestComputeCommands:
    def test_enumerate(self):
        res = run("enumerate", "av(21)", "4")
        assert res.stdout == "1234"
        res = run("enumerate", "av321", "5")
        assert len(res.stdout.splitlines()) == 42

    def test_printed_perms_reparse(self):
        for argv in (
            ["inflate", "132", "21", "2413", "321"],
            ["skeleton", "346215"],
            ["profile", "3415672", "--y", "av21"],
            ["antichain", "gen", "widdershins-2143", "1"],
        ):
            out = run(*argv).stdout.splitlines()[0]
            parse_perm(out)


class TestStore:
    def test_fresh_resume_is_empty(self, store):
        assert store_resume(store) == {}

    def test_basis_run_is_resumable(self, store):
        res = scan(store, 4, x="av(21)", y="av(21)")
        assert res.exit_code == 0 and res.stdout == "2 21"
        assert store_resume(store) == {"av(21)|av(21)": 4}

        before = os.path.getsize(store)
        res = scan(store, 4, x="av(21)", y="av(21)")
        assert res.stdout == "" and os.path.getsize(store) == before

        scan(store, 6, x="av(21)", y="av(21)")
        assert store_resume(store) == {"av(21)|av(21)": 6}

    def test_store_keys_are_per_job(self, store):
        scan(store, 3, x="av(21)", y="av(21)")
        scan(store, 3, x="av(321)", y="av(21)")
        assert store_resume(store) == {"av(21)|av(21)": 3, "av(321)|av(21)": 3}

    def test_over_cap_writes_no_record(self, store):
        res = scan(store, 11, x="av(21)", y="av(21)")
        assert res.exit_code == 3 and res.stdout.startswith("limit: ")
        assert not os.path.exists(store)

    @pytest.mark.parametrize(
        "line", [b"{oops\n", b"\xff\xfe garbage\n"], ids=["bad json", "not utf-8"]
    )
    def test_corrupt_line_is_fatal_with_line_number(self, store, line):
        store_append(store, [MARKER])
        with open(store, "ab") as fh:
            fh.write(line)
        with pytest.raises(StoreError, match=f"{store}: line 2: "):
            list(store_lines(store))
        assert_store_error_at_line_2(store)

    def test_torn_final_line_not_utf8_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        store_append(str(path), [MARKER])
        intact = path.read_bytes()
        path.write_bytes(intact + b"\xff\xfe garb")
        assert store_resume(str(path)) == {"x": 1}
        assert "dropped a torn final line" in capsys.readouterr().err
        assert path.read_bytes() == intact

    def test_torn_first_line_is_dropped(self, tmp_path, capsys):
        # A crash during the very first write leaves one torn line and
        # nothing intact before it: the store is cut back to empty.
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"kind":"basis_rec')
        res = scan(path, 3, x="av(21)", y="av(21)")
        assert res.exit_code == 0 and res.stdout == "2 21"
        assert "dropped a torn final line" in capsys.readouterr().err
        assert store_resume(str(path)) == {"av(21)|av(21)": 3}

    @pytest.mark.parametrize(
        "payload",
        [
            [1],
            {"length": 3},
            {"job": "av(21)|av(21)"},
            {"job": "av(21)|av(21)", "length": "x"},
            {"job": "av(21)|av(21)", "length": "3"},
            {"job": "av(21)|av(21)", "length": 2.5},
            {"job": "av(21)|av(21)", "length": None},
            {"job": ["av(21)|av(21)"], "length": 3},
        ],
        ids=[
            "list payload", "no job", "no length", "length x", "length string",
            "length float", "length null", "job list",
        ],
    )
    def test_malformed_marker_is_a_store_error(self, store, payload):
        store_append(store, [MARKER])
        store_append(store, [("length_complete", payload)])
        with pytest.raises(StoreError, match=f"{store}: line 2: length_complete"):
            store_resume(store)
        assert_store_error_at_line_2(store)

    def test_json_records_reverify(self, store):
        assert scan(store, 7, "--json").exit_code == 0
        assert store_resume(store) == {"av(25134)|av(321)": 7}
        records = stored_records(store)
        assert records
        for record in records:
            pi = Permutation(record["perm"])
            outer = av(*map(Permutation, record["x_basis"]))
            inner = av(*map(Permutation, record["y_basis"]))
            assert verify_basis_element(pi, outer, inner).ok

    def test_records_carry_no_run_dependent_fields(self, store):
        res = scan(store, 6, "--json")
        records = stored_records(store)
        assert records
        for record in records:
            assert set(record) == {"perm", "x_basis", "y_basis", "length"}
        os.remove(store)
        assert scan(store, 6, "--json").stdout == res.stdout

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        # Two runs in one process: each reads the variable as it runs,
        # and both parse with the one command table.
        cli._build_parser.cache_clear()
        for name in ("env.jsonl", "env2.jsonl"):
            path = str(tmp_path / name)
            monkeypatch.setenv("PERMWREATH_STORE", path)
            scan(None, 3, x="av(21)", y="av(21)")
            assert store_resume(path) == {"av(21)|av(21)": 3}
        assert cli._build_parser.cache_info().misses == 1


class TestResume:
    @pytest.mark.parametrize("k", range(7))
    def test_resume_prints_what_a_fresh_scan_prints_above_k(self, store, fresh_scan, k):
        if k:
            scan(store, k)
            assert store_resume(store) == {"av(25134)|av(321)": k}
        res = scan(store, 7)
        assert res.exit_code == 0
        assert res.stdout.splitlines() == above(fresh_scan, k)
        assert_stores_the_fresh_scan(store, fresh_scan)
        assert store_resume(store) == {"av(25134)|av(321)": 7}

    def test_one_length_pass_per_length(self, store, passes):
        scan(store, 6)
        assert passes == [1, 2, 3, 4, 5, 6]

    def test_complete_store_runs_no_pass(self, store, passes):
        scan(store, 6)
        passes.clear()
        for max_len in (6, 4):
            assert scan(store, max_len).stdout == ""
        assert passes == []
        scan(store, 7)
        assert passes == [1, 2, 3, 4, 5, 6, 7]

    def test_three_runs_on_one_store_print_and_store_fixed_bytes(self, store):
        # A fresh run to 6, a resumed --json run to 8 and a no-op run to
        # 7: the sha256 of each stdout and of the store bytes are fixed.
        digests = []
        for flags, max_len in (((), 6), (("--json",), 8), ((), 7)):
            res = scan(store, max_len, *flags)
            assert res.exit_code == 0
            digests.append(hashlib.sha256(res.stdout.encode()).hexdigest())
        with open(store, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests == [
            "8e981f05245bb569f4e931534f85ca6df67fca4379e353818c35e182cd2353f2",
            "abe3b33ca710df634cc6820606bd098c0cda5e5c25d34120ec8bb8a4e9d11b3c",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "750cc734808dfbb8dd3c4ffac9c9a412412434fe32a2335546edff26ac25df63",
        ]

    @pytest.mark.parametrize(
        "x, y",
        [
            ("av(321)", "av(123)"),
            ("av(25134)", "av(3412,2413)"),
            ("av(2413,3142)", "av(231)"),
            ("av(21)", "av()"),
        ],
    )
    def test_resume_from_five_matches_a_fresh_scan(self, store, x, y):
        # Inner classes with members at every length, so the carried set
        # of members inside the inner class is never empty.
        first = scan(store, 5, x=x, y=y)
        resumed = scan(store, 7, x=x, y=y)
        fresh = scan(None, 7, x=x, y=y)
        assert first.exit_code == resumed.exit_code == fresh.exit_code == 0
        lines = fresh.stdout.splitlines()
        assert first.stdout.splitlines() + resumed.stdout.splitlines() == lines
        assert resumed.stdout.splitlines() == above(lines, 5)
        fresh_json = scan(None, 7, "--json", x=x, y=y).stdout.splitlines()
        assert stored_records(store) == [json.loads(line) for line in fresh_json]

    def test_resume_tests_no_more_members_than_a_fresh_scan(self, store, monkeypatch):
        # Deletions of the resumed length are looked up in the rebuilt
        # member layer, never re-tested, so resuming from 6 costs the same
        # greedy passes as scanning from scratch.
        real = basis_search._greedy_blocks
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(basis_search, "_greedy_blocks", counting)
        scan(store, 6)
        calls[0] = 0
        scan(store, 7)
        resumed = calls[0]
        calls[0] = 0
        scan(None, 7)
        assert resumed == calls[0]


class TestCrashSafeStore:
    def test_failed_length_commit_leaves_no_duplicates(
        self, store, monkeypatch, fresh_scan
    ):
        real_fsync = os.fsync

        def failing_fsync(fd):
            # Fail the first flush that finds a length-6 line in the store,
            # as a crash in the middle of committing length 6 would.
            with open(store, encoding="utf-8") as fh:
                if '"length":6' in fh.read():
                    monkeypatch.setattr(os, "fsync", real_fsync)
                    raise OSError("injected failure while committing length 6")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        res = scan(store, 7)
        assert res.exit_code == 2
        assert res.stdout.startswith("store error:") and "injected" in res.stdout
        assert os.fsync is real_fsync

        assert scan(store, 7).exit_code == 0
        assert_stores_the_fresh_scan(store, fresh_scan)

    def test_one_fsync_per_length(self, store, monkeypatch):
        real_fsync = os.fsync
        calls = [0]

        def counting(fd):
            calls[0] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        scan(store, 7)
        assert calls[0] == 7

    def test_one_store_append_per_length(self, store, monkeypatch):
        # The benchmark tracer counts store commits by wrapping this name.
        real = cli.store_append
        batches = []

        def recording(path, records):
            batches.append(list(records))
            real(path, records)

        monkeypatch.setattr(cli, "store_append", recording)
        scan(store, 5)
        assert [batch[-1] for batch in batches] == [
            ("length_complete", {"job": "av(25134)|av(321)", "length": n})
            for n in range(1, 6)
        ]
        for batch in batches:
            assert {kind for kind, _ in batch[:-1]} <= {"basis_record"}

    def test_torn_final_line_is_dropped_on_resume(self, store, fresh_scan, capsys):
        scan(store, 5)
        append_torn_record(store)
        res = scan(store, 7)
        assert res.exit_code == 0
        assert res.stdout.splitlines() == above(fresh_scan, 5)
        assert "torn final line" in capsys.readouterr().err
        assert_stores_the_fresh_scan(store, fresh_scan)
        assert store_resume(store) == {"av(25134)|av(321)": 7}

    @pytest.mark.parametrize("stored", [0, 5], ids=["torn line alone", "after 5"])
    @pytest.mark.parametrize(
        "max_len, code, message",
        [(11, 3, "limit: "), (0, 2, "error: ")],
        ids=["over cap", "below one"],
    )
    def test_refused_run_leaves_a_torn_store_alone(
        self, store, capsys, stored, max_len, code, message
    ):
        # The length is checked before the store is read, so a refused
        # run neither repairs nor writes it.
        if stored:
            scan(store, stored)
        append_torn_record(store)
        with open(store, "rb") as fh:
            before = fh.read()
        capsys.readouterr()

        res = scan(store, max_len)
        assert res.exit_code == code and res.stdout.startswith(message)
        with open(store, "rb") as fh:
            assert fh.read() == before
        assert "dropped a torn final line" not in capsys.readouterr().err

    def test_whole_final_record_without_newline_is_kept(self, store):
        scan(store, 5)
        with open(store, "rb+") as fh:
            fh.truncate(os.path.getsize(store) - 1)
        res = scan(store, 6)
        assert res.exit_code == 0 and res.stdout
        assert store_resume(store) == {"av(25134)|av(321)": 6}

    def test_corrupt_inner_line_stays_fatal(self, store):
        scan(store, 3)
        with open(store, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[1] = lines[1][:10] + "\n"
        with open(store, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        res = scan(store, 4)
        assert res.exit_code == 2 and "line 2" in res.stdout


class TestErrors:
    def test_unknown_command(self):
        assert run("frobnicate").exit_code == 2

    def test_jobs_option_is_gone(self):
        assert scan(None, 3, "--jobs", "2", x="av(21)", y="av(21)").exit_code == 2

    def test_enum_cap_option_is_gone(self):
        res = run("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "3",
                  "--enum-cap", "5")
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "name", ["nonexistent/s.jsonl", "."], ids=["missing directory", "directory"]
    )
    def test_unusable_store_path_is_a_store_error(
        self, tmp_path, monkeypatch, capsys, name
    ):
        monkeypatch.setattr(sys, "argv", [
            "permwreath", "--store", str(tmp_path / name),
            "basis", "--x", "av21", "--y", "av21", "--max-len", "3",
        ])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("store error:")


class TestLongPermutations:
    # The length cap bounds permutations parsed from text; family members
    # and inflations are computed, so they are built at any length.
    def test_antichain_member_past_the_cap(self):
        expected = _oracle_wid_2143(15)
        assert len(expected) == 67
        res = run("antichain", "gen", "widdershins-2143", "15")
        assert (res.exit_code, res.stdout) == (0, " ".join(map(str, expected)))

    @pytest.mark.parametrize(
        "argv, points",
        [(("thm6", "1000000"), 2000005), (("widdershins-2143", "1000", "--upto"), 2009000)],
    )
    def test_antichain_gen_over_the_points_cap(self, monkeypatch, argv, points):
        # The total is computed before any member is built.
        def refuse(*args):
            raise AssertionError("a member was built")

        monkeypatch.setattr(cli, "antichain_member", refuse)
        res = run("antichain", "gen", *argv)
        assert (res.exit_code, res.stdout) == (
            3,
            f"limit: {points} points exceed the cap 1000000",
        )

    def test_antichain_gen_at_the_points_cap(self, monkeypatch):
        # Members 1..997 of thm6 have 997 * 998 + 5 * 997 = 999,991
        # points, under the cap, so every member is asked for; 998 is over.
        built = []

        def record(family, k):
            built.append(k)
            return p("1")

        monkeypatch.setattr(cli, "antichain_member", record)
        assert run("antichain", "gen", "thm6", "997", "--upto").exit_code == 0
        assert built == list(range(1, 998))
        assert run("antichain", "gen", "thm6", "998", "--upto").exit_code == 3

    def test_inflation_past_the_cap(self):
        up = " ".join(str(v) for v in range(1, 41))
        down = " ".join(str(v) for v in range(40, 0, -1))
        expected = [*range(1, 41), *range(80, 40, -1)]
        res = run("inflate", "12", up, down)
        assert (res.exit_code, res.stdout) == (0, " ".join(map(str, expected)))

    def test_verify_long_member_under_a_raised_cap(self):
        member = " ".join(map(str, _oracle_thm6(30)))
        argv = ("verify-basis", member, "--x", "av25134", "--y", "av321")
        assert run(*argv).exit_code == 3
        res = run("--max-perm-len", "80", *argv)
        assert (res.exit_code, res.stdout) == (0, "basis element")

    def test_verify_long_spiral_member(self):
        member = " ".join(map(str, _oracle_wid_2143(20)))
        assert len(member.split()) == 87
        argv = ("verify-basis", member, "--x", "av412563", "--y", "av3412-2143")
        res = run("--max-perm-len", "100", *argv)
        assert (res.exit_code, res.stdout) == (0, "basis element")

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (("antichain", "gen", "thm6", "498"), 1001**2),
            (
                ("antichain", "gen", "thm6", "100", "--upto"),
                sum((2 * k + 5) ** 2 for k in range(1, 101)),
            ),
            (("reduce", *map(str, range(1001))), 1001**2),
            (("pins", "word", "12:" + "UR" * 500), 1002**2),
        ],
        ids=["member", "upto", "reduce", "pin word"],
    )
    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_plot_over_the_cells_cap(self, monkeypatch, argv, cells, mode):
        # The cells are counted before any plot is drawn; --json prints
        # no plot, so it neither draws nor counts one.
        def refuse(pi):
            raise AssertionError("a plot was drawn")

        monkeypatch.setattr(cli, "ascii_plot", refuse)
        if mode == "json":
            res = run("--json", *argv, "--ascii-plot")
            assert res.exit_code == 0
            assert res.stdout == run("--json", *argv).stdout
            assert json.loads(res.stdout)
        else:
            res = run(*argv, "--ascii-plot")
            assert (res.exit_code, res.stdout) == (
                3,
                f"limit: {cells} plot cells exceed the cap 1000000",
            )

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (("thm6", "499997"), 999_999**2),
            (("thm6", "100", "--upto"), sum((2 * k + 5) ** 2 for k in range(1, 101))),
        ],
        ids=["member", "upto"],
    )
    def test_plot_cells_counted_before_any_member_is_built(self, monkeypatch, argv, cells):
        # Member lengths are affine in k, so no member is built to count.
        def refuse(*args):
            raise AssertionError("a member was built")

        monkeypatch.setattr(cli, "antichain_member", refuse)
        res = run("antichain", "gen", *argv, "--ascii-plot")
        assert (res.exit_code, res.stdout) == (
            3,
            f"limit: {cells} plot cells exceed the cap 1000000",
        )

    def test_plot_at_the_cells_cap(self, monkeypatch):
        # Member 497 of thm6 has 999 points, 998,001 cells, under the cap.
        drawn = []
        monkeypatch.setattr(cli, "ascii_plot", lambda pi: drawn.append(len(pi)) or "")
        assert run("antichain", "gen", "thm6", "497", "--ascii-plot").exit_code == 0
        assert drawn == [999]

    def test_long_pin_word(self):
        # A realised word is computed, not parsed, so no cap applies.
        res = run("pins", "word", "12:" + "UR" * 25_000)
        expected = " ".join(map(str, increasing_oscillation(50_002)))
        assert (res.exit_code, res.stdout) == (0, expected)


# The exact stdout and exit code of one command line per subcommand and
# outcome, in text and in --json mode: the one place a command line's
# expected output is written.  Usage errors and limits print the same in
# both modes.
LONG = " ".join(str(v) for v in range(1, 70))

GOLDEN = [
    (("involve", "21", "12"), 1, "no", '{"involves": false}'),
    (("involve", "1324", "6351427"), 0, "yes", '{"involves": true}'),
    (("occurrences", "321", "2513764"), 0, "1", '{"occurrences": 1}'),
    (("occurrences", "1", "312"), 0, "3", '{"occurrences": 3}'),
    (
        ("inflate", "132", "21", "2413", "321"),
        0,
        "217968543",
        '{"perm": [2, 1, 7, 9, 6, 8, 5, 4, 3]}',
    ),
    (("inflate", "21", "1"), 2, "error: need 2 blocks, got 1", "error: need 2 blocks, got 1"),
    (("reduce", "3,5,4,7"), 0, "1324", '{"perm": [1, 3, 2, 4]}'),
    (("reduce", "3", "5", "4", "7"), 0, "1324", '{"perm": [1, 3, 2, 4]}'),
    (
        ("reduce", "3", "3"),
        2,
        "error: entries must be distinct: [3, 3]",
        "error: entries must be distinct: [3, 3]",
    ),
    (
        ("reduce", "20,40,10,30", "--ascii-plot"),
        0,
        (
            "2413",
            ".*..",
            "...*",
            "*...",
            "..*.",
        ),
        '{"perm": [2, 4, 1, 3]}',
    ),
    (("intervals", "1"), 0, "1..1", '{"intervals": [[1, 1]]}'),
    (
        ("intervals", "2413"),
        0,
        (
            "1..1",
            "1..4",
            "2..2",
            "3..3",
            "4..4",
        ),
        '{"intervals": [[1, 1], [1, 4], [2, 2], [3, 3], [4, 4]]}',
    ),
    (
        ("intervals", "236745981"),
        0,
        (
            "1..1",
            "1..2",
            "1..6",
            "1..8",
            "1..9",
            "2..2",
            "2..6",
            "2..8",
            "3..3",
            "3..4",
            "3..6",
            "3..8",
            "4..4",
            "5..5",
            "5..6",
            "6..6",
            "7..7",
            "7..8",
            "8..8",
            "9..9",
        ),
        '{"intervals": [[1, 1], [1, 2], [1, 6], [1, 8], [1, 9], [2, 2], [2, 6], [2, 8], [3, 3], [3, 4], [3, 6], [3, 8], [4, 4], [5, 5], [5, 6], [6, 6], [7, 7], [7, 8], [8, 8], [9, 9]]}',
    ),
    (("simple", "2413"), 0, "simple", '{"simple": true}'),
    (("simple", "132"), 1, "not simple", '{"simple": false}'),
    (("skeleton", "346215"), 0, "2413", '{"perm": [2, 4, 1, 3]}'),
    (("skeleton", "456123"), 0, "21", '{"perm": [2, 1]}'),
    (
        ("decompose", "1"),
        0,
        ("skeleton: 1", "block 1..1: 1"),
        '{"blocks": [[1]], "segments": [[1, 1]], "skeleton": [1]}',
    ),
    (
        ("decompose", "217968543"),
        0,
        (
            "skeleton: 12",
            "block 1..2: 21",
            "block 3..9: 5746321",
        ),
        '{"blocks": [[2, 1], [5, 7, 4, 6, 3, 2, 1]], "segments": [[1, 2], [3, 9]], "skeleton": [1, 2]}',
    ),
    (
        ("decompose", "25314"),
        0,
        (
            "skeleton: 25314",
            "block 1..1: 1",
            "block 2..2: 1",
            "block 3..3: 1",
            "block 4..4: 1",
            "block 5..5: 1",
        ),
        '{"blocks": [[1], [1], [1], [1], [1]], "segments": [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]], "skeleton": [2, 5, 3, 1, 4]}',
    ),
    (("member", "2513764", "av(321)"), 1, "non-member", '{"member": false}'),
    (("member", "123", "av321"), 0, "member", '{"member": true}'),
    (("enumerate", "av(21)", "4"), 0, "1234", '{"count": 1, "perms": [[1, 2, 3, 4]]}'),
    (("enumerate", "av(12,21)", "3"), 0, "", '{"count": 0, "perms": []}'),
    (
        ("enumerate", "av321", "4"),
        0,
        (
            "1234",
            "1243",
            "1324",
            "1342",
            "1423",
            "2134",
            "2143",
            "2314",
            "2341",
            "2413",
            "3124",
            "3142",
            "3412",
            "4123",
        ),
        '{"count": 14, "perms": [[1, 2, 3, 4], [1, 2, 4, 3], [1, 3, 2, 4], [1, 3, 4, 2], [1, 4, 2, 3], [2, 1, 3, 4], [2, 1, 4, 3], [2, 3, 1, 4], [2, 3, 4, 1], [2, 4, 1, 3], [3, 1, 2, 4], [3, 1, 4, 2], [3, 4, 1, 2], [4, 1, 2, 3]]}',
    ),
    (
        ("enumerate", "av(321)", "11"),
        3,
        "limit: enumeration length 11 exceeds the cap 10",
        "limit: enumeration length 11 exceeds the cap 10",
    ),
    (
        ("profile", "3415672", "--y", "av(21)"),
        0,
        "3142",
        '{"blocks": [[1, 2], [1], [1, 2, 3], [1]], "profile": [3, 1, 4, 2], "segments": [[1, 2], [3, 3], [4, 6], [7, 7]]}',
    ),
    (
        ("profile", "2513764", "--y", "av(321)"),
        0,
        "251364",
        '{"blocks": [[1], [1], [1], [1], [2, 1], [1]], "profile": [2, 5, 1, 3, 6, 4], "segments": [[1, 1], [2, 2], [3, 3], [4, 4], [5, 6], [7, 7]]}',
    ),
    (
        ("profile", "2513764", "--y", "av(321)", "--blocks", "--ascii-plot"),
        0,
        (
            "251364",
            "block 1..1: 1",
            "block 2..2: 1",
            "block 3..3: 1",
            "block 4..4: 1",
            "block 5..6: 21",
            "block 7..7: 1",
            "....*.",
            ".*....",
            ".....*",
            "...*..",
            "*.....",
            "..*...",
        ),
        '{"blocks": [[1], [1], [1], [1], [2, 1], [1]], "profile": [2, 5, 1, 3, 6, 4], "segments": [[1, 1], [2, 2], [3, 3], [4, 4], [5, 6], [7, 7]]}',
    ),
    (
        ("deflations", "234615", "--y", "av(123)"),
        0,
        (
            "23514",
            "234615",
        ),
        '{"deflations": [[2, 3, 5, 1, 4], [2, 3, 4, 6, 1, 5]]}',
    ),
    (("deflations", "21", "--y", "av(1)"), 0, "", '{"deflations": []}'),
    (
        ("deflations", "10 1 8 4 6 9 11 7 5 2 3", "--y", "av(21)"),
        3,
        "limit: deflation scan of length 11 exceeds the cap 10",
        "limit: deflation scan of length 11 exceeds the cap 10",
    ),
    (
        ("wreath-member", "2513764", "--x", "av(25134)", "--y", "av(321)"),
        1,
        "non-member",
        '{"member": false}',
    ),
    (
        ("wreath-member", "251364", "--x", "av(25134)", "--y", "av(321)"),
        0,
        "member",
        '{"member": true}',
    ),
    (
        ("wreath-member", "1", "--x", "av(21)", "--y", "av(1)"),
        1,
        "non-member",
        '{"member": false}',
    ),
    (
        ("minblock", "236745981", "2", "3"),
        0,
        (
            "positions 2..6",
            "values 3..7",
            "pattern 14523",
        ),
        '{"pattern": [1, 4, 5, 2, 3], "pos_range": [2, 6], "val_range": [3, 7], "values": [3, 6, 7, 4, 5]}',
    ),
    (
        ("minblock", "2413", "1", "3", "--ascii-plot"),
        0,
        (
            "positions 1..4",
            "values 1..4",
            "pattern 2413",
            ".*..",
            "...*",
            "*...",
            "..*.",
        ),
        '{"pattern": [2, 4, 1, 3], "pos_range": [1, 4], "val_range": [1, 4], "values": [2, 4, 1, 3]}',
    ),
    (
        ("minblock", "2413", "3", "1"),
        2,
        "error: need positions 1 <= i < j <= 4, got i=3, j=1",
        "error: need positions 1 <= i < j <= 4, got i=3, j=1",
    ),
    (
        ("pins", "classify", "3,10,1,7,11,4,9,5,6,2,8", "4", "6", "8", "7", "9", "11", "10", "1"),
        0,
        (
            "p1 (4,7)",
            "p2 (6,4)",
            "p3 (8,5) right not proper",
            "p4 (7,9) up proper",
            "p5 (9,6) right not proper",
            "p6 (11,8) right not proper",
            "p7 (10,2) down proper",
            "p8 (1,3) left proper",
        ),
        '{"directions": [null, null, "right", "up", "right", "right", "down", "left"], "pins": [[4, 7], [6, 4], [8, 5], [7, 9], [9, 6], [11, 8], [10, 2], [1, 3]], "proper": [null, null, false, true, false, false, true, true]}',
    ),
    (
        ("pins", "classify", "2143", "1", "2", "4"),
        1,
        "invalid: pin 3: does not slice the rectangle of the earlier pins",
        '{"error": "pin 3: does not slice the rectangle of the earlier pins", "valid": false}',
    ),
    (
        ("pins", "classify", "2413", "1"),
        2,
        "error: a pin sequence needs at least two points",
        "error: a pin sequence needs at least two points",
    ),
    (
        ("pins", "word", "12:URUR"),
        0,
        "142635",
        '{"perm": [1, 4, 2, 6, 3, 5], "word": "12:URUR"}',
    ),
    (("pins", "word", "12:"), 0, "12", '{"perm": [1, 2], "word": "12:"}'),
    (
        ("pins", "word", "21:LDR", "--ascii-plot"),
        0,
        (
            "41532",
            "..*..",
            "*....",
            "...*.",
            "....*",
            ".*...",
        ),
        '{"perm": [4, 1, 5, 3, 2], "word": "21:LDR"}',
    ),
    (
        ("pins", "word", "12:UU"),
        2,
        "error: consecutive pins must be perpendicular: 'U' then 'U'",
        "error: consecutive pins must be perpendicular: 'U' then 'U'",
    ),
    (
        ("pins", "reach", "236745981", "2", "3"),
        0,
        (
            "p1 (2,3)",
            "p2 (3,6)",
            "p3 (6,5) right proper",
        ),
        '{"directions": [null, null, "right"], "pins": [[2, 3], [3, 6], [6, 5]], "proper": [null, null, true]}',
    ),
    (
        ("pins", "reach", "2413", "3", "4", "--side", "left"),
        0,
        (
            "p1 (3,1)",
            "p2 (4,3)",
            "p3 (1,2) left proper",
        ),
        '{"directions": [null, null, "left"], "pins": [[3, 1], [4, 3], [1, 2]], "proper": [null, null, true]}',
    ),
    (
        ("pins", "reach", "163524", "1", "3"),
        0,
        (
            "p1 (1,1)",
            "p2 (3,3)",
            "p3 (5,2) right proper",
            "p4 (4,5) up proper",
            "p5 (6,4) right proper",
        ),
        '{"directions": [null, null, "right", "up", "right"], "pins": [[1, 1], [3, 3], [5, 2], [4, 5], [6, 4]], "proper": [null, null, true, true, true]}',
    ),
    (
        ("pins", "reach", "2413", "3", "1"),
        2,
        "error: need 1 <= i < j <= 4, got i=3, j=1",
        "error: need 1 <= i < j <= 4, got i=3, j=1",
    ),
    (
        ("pins",),
        2,
        "permwreath pins: the following arguments are required: pins_command",
        "permwreath pins: the following arguments are required: pins_command",
    ),
    (
        ("pin-probe", "--y", "av(21)"),
        0,
        "threshold = 1",
        '{"exceeded": false, "threshold": 1, "witnesses": []}',
    ),
    (
        ("pin-probe", "--y", "av(321)", "--pin-cap", "6"),
        3,
        "exceeded cap 6; surviving words: 12:LURURU, 12:LDLDLD, 12:RURURU, 12:RDLDLD (+8 more)",
        '{"exceeded": true, "threshold": null, "witnesses": ["12:LURURU", "12:LDLDLD", "12:RURURU", "12:RDLDLD", "12:ULDLDL", "12:URURUR", "12:DLDLDL", "12:DRURUR", "21:LDLDLD", "21:RURURU", "21:URURUR", "21:DLDLDL"]}',
    ),
    (
        ("pin-probe", "--y", "av(321)", "--pin-cap", "0"),
        2,
        "error: cap must be at least 1",
        "error: cap must be at least 1",
    ),
    (
        ("pin-probe", "--y", "av(321)", "--pin-cap", "40"),
        3,
        (
            "exceeded cap 40; surviving words: 12:LURURURURURURURURURURURURURURURURURURURU, "
            "12:LDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLD, "
            "12:RURURURURURURURURURURURURURURURURURURURU, "
            "12:RDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLD (+8 more)"
        ),
        (
            '{"exceeded": true, "threshold": null, "witnesses": ['
            '"12:LURURURURURURURURURURURURURURURURURURURU", '
            '"12:LDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLD", '
            '"12:RURURURURURURURURURURURURURURURURURURURU", '
            '"12:RDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLD", '
            '"12:ULDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDL", '
            '"12:URURURURURURURURURURURURURURURURURURURUR", '
            '"12:DLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDL", '
            '"12:DRURURURURURURURURURURURURURURURURURURUR", '
            '"21:LDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLD", '
            '"21:RURURURURURURURURURURURURURURURURURURURU", '
            '"21:URURURURURURURURURURURURURURURURURURURUR", '
            '"21:DLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDLDL"]}'
        ),
    ),
    (
        ("pin-probe", "--y", "av321654", "--pin-cap", "40"),
        3,
        (
            "exceeded cap 40; surviving words: 12:LULULULULULULULULULULULULULULULULULULULU, "
            "12:LULULULULULULULULULULULULULULULULULULULD, "
            "12:LULULULULULULULULULULULULULULULULULULURU, "
            "12:LULULULULULULULULULULULULULULULULULULURD (+60 more; the listing stops at 64)"
        ),
        (
            '{"exceeded": true, "threshold": null, "witnesses": ['
            '"12:LULULULULULULULULULULULULULULULULULULULU", '
            '"12:LULULULULULULULULULULULULULULULULULULULD", '
            '"12:LULULULULULULULULULULULULULULULULULULURU", '
            '"12:LULULULULULULULULULULULULULULULULULULURD", '
            '"12:LULULULULULULULULULULULULULULULULULULDLU", '
            '"12:LULULULULULULULULULULULULULULULULULULDLD", '
            '"12:LULULULULULULULULULULULULULULULULULULDRU", '
            '"12:LULULULULULULULULULULULULULULULULULULDRD", '
            '"12:LULULULULULULULULULULULULULULULULULURULU", '
            '"12:LULULULULULULULULULULULULULULULULULURULD", '
            '"12:LULULULULULULULULULULULULULULULULULURURU", '
            '"12:LULULULULULULULULULULULULULULULULULURURD", '
            '"12:LULULULULULULULULULULULULULULULULULURDLU", '
            '"12:LULULULULULULULULULULULULULULULULULURDLD", '
            '"12:LULULULULULULULULULULULULULULULULULURDRU", '
            '"12:LULULULULULULULULULULULULULULULULULURDRD", '
            '"12:LULULULULULULULULULULULULULULULULULDLULU", '
            '"12:LULULULULULULULULULULULULULULULULULDLULD", '
            '"12:LULULULULULULULULULULULULULULULULULDLURU", '
            '"12:LULULULULULULULULULULULULULULULULULDLURD", '
            '"12:LULULULULULULULULULULULULULULULULULDLDLU", '
            '"12:LULULULULULULULULULULULULULULULULULDLDLD", '
            '"12:LULULULULULULULULULULULULULULULULULDLDRU", '
            '"12:LULULULULULULULULULULULULULULULULULDLDRD", '
            '"12:LULULULULULULULULULULULULULULULULULDRULU", '
            '"12:LULULULULULULULULULULULULULULULULULDRULD", '
            '"12:LULULULULULULULULULULULULULULULULULDRURU", '
            '"12:LULULULULULULULULULULULULULULULULULDRURD", '
            '"12:LULULULULULULULULULULULULULULULULULDRDLU", '
            '"12:LULULULULULULULULULULULULULULULULULDRDLD", '
            '"12:LULULULULULULULULULULULULULULULULULDRDRU", '
            '"12:LULULULULULULULULULULULULULULULULULDRDRD", '
            '"12:LULULULULULULULULULULULULULULULULURULULU", '
            '"12:LULULULULULULULULULULULULULULULULURULULD", '
            '"12:LULULULULULULULULULULULULULULULULURULURU", '
            '"12:LULULULULULULULULULULULULULULULULURULURD", '
            '"12:LULULULULULULULULULULULULULULULULURULDLU", '
            '"12:LULULULULULULULULULULULULULULULULURULDLD", '
            '"12:LULULULULULULULULULULULULULULULULURULDRU", '
            '"12:LULULULULULULULULULULULULULULULULURULDRD", '
            '"12:LULULULULULULULULULULULULULULULULURURULU", '
            '"12:LULULULULULULULULULULULULULULULULURURULD", '
            '"12:LULULULULULULULULULULULULULULULULURURURU", '
            '"12:LULULULULULULULULULULULULULULULULURURURD", '
            '"12:LULULULULULULULULULULULULULULULULURURDLU", '
            '"12:LULULULULULULULULULULULULULULULULURURDLD", '
            '"12:LULULULULULULULULULULULULULULULULURURDRU", '
            '"12:LULULULULULULULULULULULULULULULULURURDRD", '
            '"12:LULULULULULULULULULULULULULULULULURDLULU", '
            '"12:LULULULULULULULULULULULULULULULULURDLULD", '
            '"12:LULULULULULULULULULULULULULULULULURDLURU", '
            '"12:LULULULULULULULULULULULULULULULULURDLURD", '
            '"12:LULULULULULULULULULULULULULULULULURDLDLU", '
            '"12:LULULULULULULULULULULULULULULULULURDLDLD", '
            '"12:LULULULULULULULULULULULULULULULULURDLDRU", '
            '"12:LULULULULULULULULULULULULULULULULURDLDRD", '
            '"12:LULULULULULULULULULULULULULULULULURDRULU", '
            '"12:LULULULULULULULULULULULULULULULULURDRULD", '
            '"12:LULULULULULULULULULULULULULULULULURDRURU", '
            '"12:LULULULULULULULULULULULULULULULULURDRURD", '
            '"12:LULULULULULULULULULULULULULULULULURDRDLU", '
            '"12:LULULULULULULULULULULULULULULULULURDRDLD", '
            '"12:LULULULULULULULULULULULULULULULULURDRDRU", '
            '"12:LULULULULULULULULULULULULULULULULURDRDRD"]}'
        ),
    ),
    (
        ("pin-probe", "--y", "av(321)", "--pin-cap", "65"),
        3,
        "limit: pin cap 65 exceeds the cap 64",
        "limit: pin cap 65 exceeds the cap 64",
    ),
    (
        ("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "5"),
        0,
        "2 21",
        '{"length": 2, "perm": [2, 1], "x_basis": [[2, 1]], "y_basis": [[2, 1]]}',
    ),
    (
        ("basis", "--x", "av(25134)", "--y", "av(321)", "--max-len", "6"),
        0,
        (
            "6 264135",
            "6 361425",
            "6 362415",
            "6 426135",
        ),
        (
            '{"length": 6, "perm": [2, 6, 4, 1, 3, 5], "x_basis": [[2, 5, 1, 3, 4]], "y_basis": [[3, 2, 1]]}',
            '{"length": 6, "perm": [3, 6, 1, 4, 2, 5], "x_basis": [[2, 5, 1, 3, 4]], "y_basis": [[3, 2, 1]]}',
            '{"length": 6, "perm": [3, 6, 2, 4, 1, 5], "x_basis": [[2, 5, 1, 3, 4]], "y_basis": [[3, 2, 1]]}',
            '{"length": 6, "perm": [4, 2, 6, 1, 3, 5], "x_basis": [[2, 5, 1, 3, 4]], "y_basis": [[3, 2, 1]]}',
        ),
    ),
    (
        ("basis", "--x", "av(1)", "--y", "av(21)", "--max-len", "3"),
        0,
        "1 1",
        '{"length": 1, "perm": [1], "x_basis": [[1]], "y_basis": [[2, 1]]}',
    ),
    (
        ("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "12"),
        3,
        "limit: max_len 12 exceeds the cap 10",
        "limit: max_len 12 exceeds the cap 10",
    ),
    (
        ("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "11"),
        3,
        "limit: max_len 11 exceeds the cap 10",
        "limit: max_len 11 exceeds the cap 10",
    ),
    (
        ("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "0"),
        2,
        "error: max_len must be at least 1",
        "error: max_len must be at least 1",
    ),
    (
        ("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "-3"),
        2,
        "error: max_len must be at least 1",
        "error: max_len must be at least 1",
    ),
    (
        ("verify-basis", "2513764", "--x", "av(25134)", "--y", "av(321)"),
        0,
        "basis element",
        '{"deleted_position": null, "ok": true, "reason": "minimal non-member", "witness": null}',
    ),
    (
        ("verify-basis", "12", "--x", "av(21)", "--y", "av(21)"),
        1,
        "not a basis element: the permutation is a member of the product",
        '{"deleted_position": null, "ok": false, "reason": "the permutation is a member of the product", "witness": null}',
    ),
    (
        ("verify-basis", "321", "--x", "av(21)", "--y", "av(21)"),
        1,
        "not a basis element: deleting position 1 leaves a non-member (21)",
        '{"deleted_position": 1, "ok": false, "reason": "deleting position 1 leaves a non-member", "witness": [2, 1]}',
    ),
    (
        ("antichain", "gen", "thm6", "2", "--upto"),
        0,
        (
            "2513764",
            "251374986",
        ),
        '{"perms": [[2, 5, 1, 3, 7, 6, 4], [2, 5, 1, 3, 7, 4, 9, 8, 6]]}',
    ),
    (
        ("antichain", "gen", "thm6", "3", "--upto"),
        0,
        ("2513764", "251374986", "2 5 1 3 7 4 9 6 11 10 8"),
        '{"perms": [[2, 5, 1, 3, 7, 6, 4], [2, 5, 1, 3, 7, 4, 9, 8, 6], [2, 5, 1, 3, 7, 4, 9, 6, 11, 10, 8]]}',
    ),
    (
        ("antichain", "gen", "thm6", "0"),
        2,
        "error: family members are indexed from 1",
        "error: family members are indexed from 1",
    ),
    (
        ("antichain", "gen", "thm6", "0", "--upto"),
        2,
        "error: family members are indexed from 1",
        "error: family members are indexed from 1",
    ),
    (
        ("antichain", "gen", "thm6", "-3", "--upto"),
        2,
        "error: family members are indexed from 1",
        "error: family members are indexed from 1",
    ),
    (
        ("antichain", "gen", "widdershins-2413", "1", "--ascii-plot"),
        0,
        (
            "816497523",
            "....*....",
            "*........",
            ".....*...",
            "..*......",
            "......*..",
            "...*.....",
            "........*",
            ".......*.",
            ".*.......",
        ),
        '{"perms": [[8, 1, 6, 4, 9, 7, 5, 2, 3]]}',
    ),
    (
        ("antichain", "check", "2513764", "251374986"),
        0,
        "antichain",
        '{"antichain": true}',
    ),
    (
        ("antichain", "check", "2513764", "251374986", "2 5 1 3 7 4 9 6 11 10 8"),
        0,
        "antichain",
        '{"antichain": true}',
    ),
    (("antichain", "check", "1", "12"), 1, "not an antichain", '{"antichain": false}'),
    (
        ("antichain",),
        2,
        "permwreath antichain: the following arguments are required: antichain_command",
        "permwreath antichain: the following arguments are required: antichain_command",
    ),
    (
        ("simple", "1  3"),
        2,
        "error: not a permutation of 1..2: (1, 3)",
        "error: not a permutation of 1..2: (1, 3)",
    ),
    (
        ("member", "123", "av-nonsense"),
        2,
        "error: cannot parse class 'av-nonsense': expected a registry name or av(...)",
        "error: cannot parse class 'av-nonsense': expected a registry name or av(...)",
    ),
    (
        ("simple", LONG),
        3,
        "limit: length 69 exceeds the cap 64",
        "limit: length 69 exceeds the cap 64",
    ),
    (("--max-perm-len", "80", "simple", LONG), 1, "not simple", '{"simple": false}'),
    (
        ("antichain", "gen", "thm6", "1000", "--upto"),
        3,
        "limit: 1006000 points exceed the cap 1000000",
        "limit: 1006000 points exceed the cap 1000000",
    ),
    (
        (),
        2,
        "permwreath: the following arguments are required: command",
        "permwreath: the following arguments are required: command",
    ),
    (
        ("--max-perm-len", "100", "member", LONG, f"av({LONG})"),
        1,
        "non-member",
        '{"member": false}',
    ),
    (
        ("--max-perm-len", "3", "member", "12", "av(4321)"),
        3,
        "limit: length 4 exceeds the cap 3",
        "limit: length 4 exceeds the cap 3",
    ),
    (
        ("reduce", "3", "x"),
        2,
        "error: cannot parse entry 'x': expected an integer",
        "error: cannot parse entry 'x': expected an integer",
    ),
    (
        ("reduce", "3", "1" * 5000),
        2,
        "error: '11111111111111111111'... is a decimal of 5000 digits, too long to read",
        "error: '11111111111111111111'... is a decimal of 5000 digits, too long to read",
    ),
    (
        ("minblock", "2413", "9" * 5000, "2"),
        2,
        "permwreath minblock: argument i: '99999999999999999999'... is a decimal of "
        "5000 digits, too long to read",
        "permwreath minblock: argument i: '99999999999999999999'... is a decimal of "
        "5000 digits, too long to read",
    ),
    (
        ("involve", "1 " + "9" * 5000, "12"),
        2,
        "error: cannot parse permutation from '1 999999999999999999'...",
        "error: cannot parse permutation from '1 999999999999999999'...",
    ),
]


def _joined(out):
    return out if isinstance(out, str) else "\n".join(out)


class TestGolden:
    @pytest.mark.parametrize("mode", ["text", "json"])
    @pytest.mark.parametrize(
        "argv, code, text, as_json",
        GOLDEN,
        ids=[" ".join(row[0])[:40] or "no-command" for row in GOLDEN],
    )
    def test_stdout_and_exit_code(self, argv, code, text, as_json, mode):
        flags = ("--json",) if mode == "json" else ()
        res = run(*flags, *argv)
        expected = as_json if mode == "json" else text
        assert (res.exit_code, res.stdout) == (code, _joined(expected))
