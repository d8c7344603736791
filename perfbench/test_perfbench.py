"""Tests of the benchmark itself, at tiny sizes (scan to 5, k <= 2, cap 5).

Run with ``python3 -m pytest perfbench``.  Each test starts the benchmark
as a subprocess from the repository root, as the benchmark is meant to
be started.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*extra):
    proc = bench(*extra)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_each_workload_emits_its_metrics_with_units():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOADS:
            out = result("--workload", name, "--trace", str(trace), "--tiny")
            assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
            assert {k: m["unit"] for k, m in out["metrics"].items()} == want
            values = [m["value"] for m in out["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values)
            if trace == 0:
                assert all(v > 0 for v in values)


def test_all_prints_every_end_to_end_metric_per_workload():
    out = result("--workload", "all", "--trace", "0", "--tiny")
    assert out["correct"]
    for name in WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert out["metrics"][f"{name}.{m['name']}"]["unit"] == m["unit"]
        assert out["metrics"][f"{name}.failed_ops"]["value"] == 0
    assert out["metrics"]["long-hosts.basis_search.verify.p90_ms"]["value"] > 0
    assert out["metrics"]["pins.blocks_pins.reaching.p90_ms"]["value"] > 0


def test_traced_counts_repeat_exactly():
    runs = [result("--workload", "all", "--trace", "1", "--tiny") for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["basis-scan.basis_search.candidates"] == 1 + 2 + 6 + 24 + 120
    assert counts[0]["basis-resume.basis_search.member_tests"] > 0
    assert counts[0]["pins.blocks_pins.pin_word_to_perm.calls"] > 0


def test_wrong_reference_counts_as_failed(tmp_path):
    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    refs["scan"]["5"].append([2, 1, 3, 4, 5])
    refs["probe"]["5"] = refs["probe"]["5"][1:]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(refs))
    for name in ("basis-scan", "pins"):
        out = result("--workload", name, "--trace", "0", "--tiny",
                     "--references", str(wrong))
        assert not out["correct"]
        assert out["failed"] > 0
        assert all(m["value"] is None for m in out["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "pins", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
