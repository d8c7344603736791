import json
import os

import pytest

import permwreath.basis_search as basis_search
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
        store_append(path, "length_complete", {"job": "x", "length": 1})
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

    def test_resume_tests_no_more_members_than_a_fresh_scan(
        self, tmp_path, monkeypatch
    ):
        # Deletions of the resumed length are looked up in the rebuilt
        # member layer, never re-tested, so resuming from 6 costs the same
        # membership tests as scanning from scratch.
        real = basis_search.wreath_member
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(basis_search, "wreath_member", counting)
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
        with pytest.raises(OSError, match="injected"):
            run("--store", path, *SCAN, "--max-len", "7")
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

    def test_perm_length_cap(self):
        long_perm = " ".join(str(v) for v in range(1, 70))
        assert run("simple", long_perm).exit_code == 3
        # raising the cap lets the identity through (it is not simple)
        assert run("--max-perm-len", "80", "simple", long_perm).exit_code == 1
