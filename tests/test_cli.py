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


class TestVerdictCommands:
    def test_profile(self):
        res = run("profile", "3415672", "--y", "av(21)")
        assert res.exit_code == 0 and res.stdout == "3142"

    def test_wreath_member_negative(self):
        res = run("wreath-member", "2513764", "--x", "av(25134)", "--y", "av(321)")
        assert res.exit_code == 1 and res.stdout == "non-member"

    def test_wreath_member_positive(self):
        res = run("wreath-member", "251364", "--x", "av(25134)", "--y", "av(321)")
        assert res.exit_code == 0 and res.stdout == "member"

    def test_involve(self):
        assert run("involve", "21", "12").exit_code == 1
        assert run("involve", "21", "12").stdout == "no"
        assert run("involve", "1324", "6351427").stdout == "yes"

    def test_member(self):
        assert run("member", "2513764", "av(321)").exit_code == 1
        assert run("member", "123", "av321").exit_code == 0

    def test_simple(self):
        assert run("simple", "2413").exit_code == 0
        assert run("simple", "132").exit_code == 1


class TestComputeCommands:
    def test_inflate(self):
        res = run("inflate", "132", "21", "2413", "321")
        assert res.stdout == "217968543"

    def test_reduce(self):
        assert run("reduce", "3,5,4,7").stdout == "1324"
        assert run("reduce", "3", "5", "4", "7").stdout == "1324"

    def test_occurrences(self):
        assert run("occurrences", "321", "2513764").stdout == "1"

    def test_intervals(self):
        out = run("intervals", "236745981").stdout.splitlines()
        assert "2..6" in out

    def test_skeleton_and_decompose(self):
        assert run("skeleton", "346215").stdout == "2413"
        out = run("decompose", "217968543").stdout.splitlines()
        assert out[0] == "skeleton: 12"
        assert out[1] == "block 1..2: 21"
        assert out[2] == "block 3..9: 5746321"

    def test_enumerate(self):
        res = run("enumerate", "av(21)", "4")
        assert res.stdout == "1234"
        res = run("enumerate", "av321", "5")
        assert len(res.stdout.splitlines()) == 42

    def test_deflations(self):
        res = run("deflations", "234615", "--y", "av(123)")
        lines = res.stdout.splitlines()
        assert "23514" in lines and "234615" in lines

    def test_minblock(self):
        res = run("minblock", "236745981", "2", "3")
        assert res.stdout.splitlines() == [
            "positions 2..6",
            "values 3..7",
            "pattern 14523",
        ]

    def test_json_round_trip(self):
        res = run("--json", "profile", "2513764", "--y", "av(321)")
        data = json.loads(res.stdout)
        assert data["profile"] == [2, 5, 1, 3, 6, 4]
        assert Permutation(data["profile"]) == p("251364")

    def test_printed_perms_reparse(self):
        for argv in (
            ["inflate", "132", "21", "2413", "321"],
            ["skeleton", "346215"],
            ["profile", "3415672", "--y", "av21"],
            ["antichain", "gen", "widdershins-2143", "1"],
        ):
            out = run(*argv).stdout.splitlines()[0]
            parse_perm(out)

    def test_ascii_plot(self):
        res = run("reduce", "20,40,10,30", "--ascii-plot")
        lines = res.stdout.splitlines()
        assert lines[0] == "2413"
        assert lines[1:] == [".*..", "...*", "*...", "..*."]


class TestPinsCommands:
    def test_classify(self):
        res = run(
            "pins", "classify", "3,10,1,7,11,4,9,5,6,2,8",
            "4", "6", "8", "7", "9", "11", "10", "1",
        )
        lines = res.stdout.splitlines()
        assert lines[2].endswith("right not proper")
        assert lines[3].endswith("up proper")
        assert lines[7].endswith("left proper")

    def test_classify_invalid(self):
        res = run("pins", "classify", "2143", "1", "2", "4")
        assert res.exit_code == 1 and "invalid" in res.stdout

    def test_word(self):
        assert run("pins", "word", "12:URUR").stdout == "142635"
        assert run("pins", "word", "12:").stdout == "12"

    def test_reach(self):
        res = run("pins", "reach", "236745981", "2", "3")
        lines = res.stdout.splitlines()
        assert lines[0] == "p1 (2,3)"
        assert lines[-1].startswith("p3 (6,5)")
        res = run("pins", "reach", "2413", "3", "4", "--side", "left")
        assert res.exit_code == 0

    def test_probe(self):
        res = run("pin-probe", "--y", "av(21)")
        assert res.exit_code == 0 and res.stdout == "threshold = 1"
        res = run("pin-probe", "--y", "av(321)", "--pin-cap", "6")
        assert res.exit_code == 3 and "exceeded" in res.stdout


class TestBasisCommands:
    def test_basis_stdout(self):
        res = run("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "5")
        assert res.stdout == "2 21"

    def test_verify_basis(self):
        res = run("verify-basis", "2513764", "--x", "av(25134)", "--y", "av(321)")
        assert res.exit_code == 0 and res.stdout == "basis element"
        res = run("verify-basis", "12", "--x", "av(21)", "--y", "av(21)")
        assert res.exit_code == 1

    def test_antichain_gen_and_check(self):
        res = run("antichain", "gen", "thm6", "3", "--upto")
        lines = res.stdout.splitlines()
        assert lines[0] == "2513764"
        assert run("antichain", "check", *lines).exit_code == 0
        assert run("antichain", "check", "1", "12").exit_code == 1


class TestStore:
    def test_fresh_resume_is_empty(self, tmp_path):
        assert store_resume(str(tmp_path / "missing.jsonl")) == {}

    def test_basis_run_is_resumable(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        res = run("--store", path, "basis", "--x", "av(21)", "--y", "av(21)",
                  "--max-len", "4")
        assert res.exit_code == 0 and res.stdout == "2 21"
        assert store_resume(path) == {"av(21)|av(21)": 4}

        before = os.path.getsize(path)
        res = run("--store", path, "basis", "--x", "av(21)", "--y", "av(21)",
                  "--max-len", "4")
        assert res.stdout == "" and os.path.getsize(path) == before

        res = run("--store", path, "basis", "--x", "av(21)", "--y", "av(21)",
                  "--max-len", "6")
        assert store_resume(path) == {"av(21)|av(21)": 6}

    def test_store_keys_are_per_job(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run("--store", path, "basis", "--x", "av(21)", "--y", "av(21)",
            "--max-len", "3")
        run("--store", path, "basis", "--x", "av(321)", "--y", "av(21)",
            "--max-len", "3")
        done = store_resume(path)
        assert done == {"av(21)|av(21)": 3, "av(321)|av(21)": 3}

    def test_corrupt_line_is_fatal_with_line_number(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        store_append(path, [("length_complete", {"job": "x", "length": 1})])
        with open(path, "a") as fh:
            fh.write("{oops\n")
        with pytest.raises(StoreError, match="line 2"):
            list(store_lines(path))

    def test_json_records_reverify(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        res = run("--json", "--store", path, "basis", "--x", "av(25134)",
                  "--y", "av(321)", "--max-len", "7")
        assert res.exit_code == 0
        assert store_resume(path) == {"av(25134)|av(321)": 7}
        reloaded = 0
        for _, obj in store_lines(path):
            if obj["kind"] != "basis_record":
                continue
            payload = obj["payload"]
            pi = Permutation(payload["perm"])
            outer = av(*[Permutation(b) for b in payload["x_basis"]])
            inner = av(*[Permutation(b) for b in payload["y_basis"]])
            assert verify_basis_element(pi, outer, inner).ok
            reloaded += 1
        assert reloaded > 0

    def test_records_carry_no_run_dependent_fields(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        argv = ("--json", "--store", path, "basis", "--x", "av(25134)",
                "--y", "av(321)", "--max-len", "6")
        res = run(*argv)
        payloads = [
            obj["payload"]
            for _, obj in store_lines(path)
            if obj["kind"] == "basis_record"
        ]
        assert payloads
        for payload in payloads:
            assert set(payload) == {"perm", "x_basis", "y_basis", "length"}
        os.remove(path)
        assert run(*argv).stdout == res.stdout

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("PERMWREATH_STORE", path)
        run("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "3")
        assert store_resume(path) == {"av(21)|av(21)": 3}


SCAN = ("basis", "--x", "av(25134)", "--y", "av(321)")


def stored_perms(path):
    return [
        tuple(obj["payload"]["perm"])
        for _, obj in store_lines(path)
        if obj["kind"] == "basis_record"
    ]


@pytest.fixture(scope="module")
def fresh_scan():
    """The printed records of a fresh scan to length 7, one per line."""
    return run(*SCAN, "--max-len", "7").stdout.splitlines()


class TestResume:
    def _resume_from(self, tmp_path, k):
        path = str(tmp_path / "run.jsonl")
        if k:
            run("--store", path, *SCAN, "--max-len", str(k))
            assert store_resume(path) == {"av(25134)|av(321)": k}
        return path, run("--store", path, *SCAN, "--max-len", "7")

    @pytest.mark.parametrize("k", range(7))
    def test_resume_prints_what_a_fresh_scan_prints_above_k(
        self, tmp_path, fresh_scan, k
    ):
        path, res = self._resume_from(tmp_path, k)
        assert res.exit_code == 0
        assert res.stdout.splitlines() == [
            line for line in fresh_scan if int(line.split()[0]) > k
        ]
        perms = stored_perms(path)
        assert len(perms) == len(set(perms)) == len(fresh_scan)
        assert store_resume(path) == {"av(25134)|av(321)": 7}

    def test_one_length_pass_per_length(self, tmp_path, monkeypatch):
        real = basis_search.basis_elements_of_length
        lengths = []

        def spy(outer, inner, n, *rest, **kwargs):
            lengths.append(n)
            return real(outer, inner, n, *rest, **kwargs)

        monkeypatch.setattr(basis_search, "basis_elements_of_length", spy)
        run("--store", str(tmp_path / "run.jsonl"), *SCAN, "--max-len", "6")
        assert lengths == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize(
        "x, y",
        [
            ("av(321)", "av(123)"),
            ("av(25134)", "av(3412,2413)"),
            ("av(2413,3142)", "av(231)"),
            ("av(21)", "av()"),
        ],
    )
    def test_resume_from_five_matches_a_fresh_scan(self, tmp_path, x, y):
        # Inner classes with members at every length, so the carried set
        # of members inside the inner class is never empty.
        scan = ("basis", "--x", x, "--y", y)
        path = str(tmp_path / "run.jsonl")
        first = run("--store", path, *scan, "--max-len", "5")
        resumed = run("--store", path, *scan, "--max-len", "7")
        fresh = run(*scan, "--max-len", "7")
        assert first.exit_code == resumed.exit_code == fresh.exit_code == 0
        lines = fresh.stdout.splitlines()
        assert first.stdout.splitlines() == [s for s in lines if int(s.split()[0]) <= 5]
        assert resumed.stdout.splitlines() == [s for s in lines if int(s.split()[0]) > 5]
        records = [
            obj["payload"] for _, obj in store_lines(path) if obj["kind"] == "basis_record"
        ]
        fresh_json = run("--json", *scan, "--max-len", "7").stdout
        assert records == [json.loads(line) for line in fresh_json.splitlines()]

    def test_resume_tests_no_more_members_than_a_fresh_scan(
        self, tmp_path, monkeypatch
    ):
        # Deletions of the resumed length are looked up in the rebuilt
        # member layer, never re-tested, so resuming from 6 costs the same
        # greedy passes as scanning from scratch.
        real = basis_search._greedy_blocks
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(basis_search, "_greedy_blocks", counting)
        path = str(tmp_path / "run.jsonl")
        run("--store", path, *SCAN, "--max-len", "6")
        calls[0] = 0
        run("--store", path, *SCAN, "--max-len", "7")
        resumed = calls[0]
        calls[0] = 0
        run(*SCAN, "--max-len", "7")
        assert resumed == calls[0]


class TestCrashSafeStore:
    def test_failed_length_commit_leaves_no_duplicates(
        self, tmp_path, monkeypatch, fresh_scan
    ):
        path = str(tmp_path / "run.jsonl")
        real_fsync = os.fsync

        def failing_fsync(fd):
            # Fail the first flush that finds a length-6 line in the store,
            # as a crash in the middle of committing length 6 would.
            with open(path, encoding="utf-8") as fh:
                if '"length":6' in fh.read():
                    monkeypatch.setattr(os, "fsync", real_fsync)
                    raise OSError("injected failure while committing length 6")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        res = run("--store", path, *SCAN, "--max-len", "7")
        assert res.exit_code == 2
        assert res.stdout.startswith("store error:") and "injected" in res.stdout
        assert os.fsync is real_fsync

        res = run("--store", path, *SCAN, "--max-len", "7")
        assert res.exit_code == 0
        perms = stored_perms(path)
        assert len(perms) == len(set(perms)) == len(fresh_scan)
        assert sorted(perms) == sorted(
            tuple(int(d) for d in line.split()[1]) for line in fresh_scan
        )

    def test_one_fsync_per_length(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        calls = [0]

        def counting(fd):
            calls[0] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        run("--store", str(tmp_path / "run.jsonl"), *SCAN, "--max-len", "7")
        assert calls[0] == 7

    def test_one_store_append_per_length(self, tmp_path, monkeypatch):
        # The benchmark tracer counts store commits by wrapping this name.
        real = cli.store_append
        batches = []

        def recording(path, records):
            batches.append(list(records))
            real(path, records)

        monkeypatch.setattr(cli, "store_append", recording)
        run("--store", str(tmp_path / "run.jsonl"), *SCAN, "--max-len", "5")
        assert [batch[-1] for batch in batches] == [
            ("length_complete", {"job": "av(25134)|av(321)", "length": n})
            for n in range(1, 6)
        ]
        for batch in batches:
            assert {kind for kind, _ in batch[:-1]} <= {"basis_record"}

    def test_torn_final_line_is_dropped_on_resume(
        self, tmp_path, fresh_scan, capsys
    ):
        path = str(tmp_path / "run.jsonl")
        run("--store", path, *SCAN, "--max-len", "5")
        record = _store_line(
            "basis_record",
            {"perm": [2, 6, 4, 1, 3, 5], "x_basis": [[2, 5, 1, 3, 4]],
             "y_basis": [[3, 2, 1]], "length": 6},
        )
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(record[: len(record) // 2])

        res = run("--store", path, *SCAN, "--max-len", "7")
        assert res.exit_code == 0
        assert res.stdout.splitlines() == [
            line for line in fresh_scan if int(line.split()[0]) > 5
        ]
        assert "torn final line" in capsys.readouterr().err
        perms = stored_perms(path)
        assert len(perms) == len(set(perms)) == len(fresh_scan)
        assert store_resume(path) == {"av(25134)|av(321)": 7}

    def test_whole_final_record_without_newline_is_kept(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run("--store", path, *SCAN, "--max-len", "5")
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) - 1)
        res = run("--store", path, *SCAN, "--max-len", "6")
        assert res.exit_code == 0 and res.stdout
        assert store_resume(path) == {"av(25134)|av(321)": 6}

    def test_corrupt_inner_line_stays_fatal(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run("--store", path, *SCAN, "--max-len", "3")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[1] = lines[1][:10] + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        res = run("--store", path, *SCAN, "--max-len", "4")
        assert res.exit_code == 2 and "line 2" in res.stdout


class TestErrors:
    def test_unknown_command(self):
        assert run("frobnicate").exit_code == 2

    def test_bad_permutation(self):
        assert run("simple", "1  3").exit_code == 2

    def test_jobs_option_is_gone(self):
        res = run("--jobs", "2", "basis", "--x", "av(21)", "--y", "av(21)",
                  "--max-len", "3")
        assert res.exit_code == 2

    def test_enum_cap_option_is_gone(self):
        res = run("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "3",
                  "--enum-cap", "5")
        assert res.exit_code == 2

    def test_unknown_class(self):
        assert run("member", "123", "av-nonsense").exit_code == 2

    def test_cap_exceeded_is_exit_three(self):
        res = run("enumerate", "av(321)", "11")
        assert res.exit_code == 3
        res = run("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", "12")
        assert res.exit_code == 3
        res = run("deflations", "10 1 8 4 6 9 11 7 5 2 3", "--y", "av(21)")
        assert res.exit_code == 3

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

    def test_perm_length_cap(self):
        long_perm = " ".join(str(v) for v in range(1, 70))
        assert run("simple", long_perm).exit_code == 3
        # raising the cap lets the identity through (it is not simple)
        assert run("--max-perm-len", "80", "simple", long_perm).exit_code == 1

    @pytest.mark.parametrize("max_len", ["0", "-3"])
    def test_basis_max_len_below_one(self, max_len):
        res = run("basis", "--x", "av(21)", "--y", "av(21)", "--max-len", max_len)
        assert (res.exit_code, res.stdout) == (2, "error: max_len must be at least 1")


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

    def test_long_pin_word(self):
        # A realised word is computed, not parsed, so no cap applies.
        res = run("pins", "word", "12:" + "UR" * 25_000)
        expected = " ".join(map(str, increasing_oscillation(50_002)))
        assert (res.exit_code, res.stdout) == (0, expected)


# The exact stdout and exit code of one command line per subcommand and
# outcome, in text and in --json mode.  Usage errors and limits print
# the same in both modes.
LONG = " ".join(str(v) for v in range(1, 70))

GOLDEN = [
    (("involve", "21", "12"), 1, "no", '{"involves": false}'),
    (("involve", "1324", "6351427"), 0, "yes", '{"involves": true}'),
    (("occurrences", "321", "2513764"), 0, "1", '{"occurrences": 1}'),
    (
        ("inflate", "132", "21", "2413", "321"),
        0,
        "217968543",
        '{"perm": [2, 1, 7, 9, 6, 8, 5, 4, 3]}',
    ),
    (("reduce", "3,5,4,7"), 0, "1324", '{"perm": [1, 3, 2, 4]}'),
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
        "limit: max_len 12 exceeds the cap 11",
        "limit: max_len 12 exceeds the cap 11",
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
