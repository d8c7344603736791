"""The permwreath benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload basis-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see BENCHMARK.json for why each was chosen):

* ``basis-scan``   the CLI basis scan of av(25134) wr av(321) to length 8
                   on an empty store (48 records);
* ``basis-resume`` the same command on a store already complete through
                   length 7, so only length 8 runs, without the verdict
                   chain (15 records);
* ``long-hosts``   180 ``verify_basis_element`` calls on the antichain
                   families for k = 1..12, the substitution decomposition
                   of each host, and ``wreath_member`` on 60 seeded
                   inflation-built members of length 30-60;
* ``pins``         ``pin_probe(av(321), 40)`` and a reaching call to each
                   side for 12 seeded position pairs per family host.

The basis workloads are exhaustive and ignore ``--seed``.  ``all`` runs
every workload, one repetition of each in turn, so that drift of the
host's speed reaches all of them alike.

Each repetition runs in a fresh interpreter (``workloads.py``), one at a
time, so every repetition starts with a cold membership memo and its own
peak RSS.  Repetitions run until the next one would pass ``--seconds``
(at least one).  A repetition whose checks fail counts in ``failed`` and
is never used as a timing.  End-to-end metrics are medians over the
repetitions:

* ``wall_s``       the timed phase;
* ``setup_s``      interpreter start to the start of the timed phase, over
                   at least MIN_SETUPS set-ups;
* ``peak_rss_mb``  the repetition's ``ru_maxrss``.

Times are in seconds of a nominal host: each repetition samples the
speed of its CPU while it runs and scales its times by it (see
``hostspeed.py``), because the hosts drift by up to 2x within a minute.
The raw times are kept in the record file.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics listed in ``tracer.PER_LAYER`` instead, together with
the tracing overhead (traced minus untraced ``wall_s``) and the time of
the timed phase that no traced call covers.  Spans and counts are written
to ``perfbench/out/`` when the run ends, together with the commit, the
Python version, ``nproc`` and the load average.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (correctness checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
RAW = ("raw_wall_s", "raw_setup_s", "speed_samples_s")
#: Fewest set-up times a run takes its setup_s median over; workloads
#: with few, long repetitions make up the rest with set-up-only runs.
MIN_SETUPS = 7
ORDER = list(WORKLOADS)

#: Per-call latency percentiles, reported by the workloads that make calls.
OP_LATENCY = {
    "long-hosts": "basis_search.verify",
    "pins": "blocks_pins.reaching",
}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload not in ("basis-scan", "basis-resume"),
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Workload:
    """Repetitions of one workload and what they measured."""

    def __init__(self, name: str, args, workdir: Path):
        self.name = name
        self.args = args
        self.workdir = workdir
        self.reps: dict[int, list[dict]] = {0: [], 1: []}  # by trace flag
        self.elapsed = 0.0
        self.runs = 0
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.prepared_store = None

    def prepare(self) -> None:
        if self.name != "basis-resume":
            return
        size = SIZES["tiny" if self.args.tiny else "full"]
        self.prepared_store = self.workdir / "prepared.jsonl"
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"),
             "--prepare-store", str(self.prepared_store),
             "--max-len", str(size["max_len"] - 1)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )

    def _child(self, *flags: str) -> dict:
        """Run workloads.py once in a fresh interpreter; return its result."""
        rep_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        cmd = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", self.name, "--seed", str(self.args.seed),
            "--workdir", str(rep_dir), "--references", str(self.args.references),
            *flags,
        ]
        if self.args.tiny:
            cmd.append("--tiny")
        if self.prepared_store:
            cmd += ["--prepared-store", str(self.prepared_store)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(start)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
            )
        finally:
            self.elapsed += time.monotonic() - start
            shutil.rmtree(rep_dir)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{self.name} repetition failed ({proc.returncode}):\n{proc.stderr}"
            )
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, trace: int) -> None:
        """One measured repetition."""
        rep = self._child("--trace", str(trace), "--run-id", str(self.runs))
        self.runs += 1
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.failures += rep["failures"]
        if rep["failed"] == 0:
            self.reps[trace].append(rep)
            if not trace:
                self.setups.append(rep["setup_s"])

    def fill_setups(self) -> None:
        """Set up alone until there are MIN_SETUPS set-up times."""
        while len(self.setups) < MIN_SETUPS:
            self.setups.append(self._child("--setup-only")["setup_s"])

    def next_fits(self, budget: float) -> bool:
        """Whether another repetition fits in ``budget`` seconds."""
        return self.elapsed + self.elapsed / self.runs <= budget

    def _median(self, trace: int, key: str):
        values = [r[key] for r in self.reps[trace]]
        return statistics.median(values) if values else None

    def end_to_end(self) -> dict[str, dict]:
        out = {
            name: {"value": self._median(0, name), "unit": unit}
            for name, unit in END_TO_END
        }
        if self.reps[0]:
            out["setup_s"]["value"] = statistics.median(self.setups)
        return out

    def op_latency(self) -> dict[str, float]:
        """Per-call latency percentiles over every untraced repetition."""
        prefix = OP_LATENCY.get(self.name)
        ops = [ms for r in self.reps[0] for ms in r["op_ms"]]
        if not (prefix and ops):
            return {}
        return {f"{prefix}.p{q}_ms": percentile(ops, q) for q in (50, 90)}

    def per_layer(self) -> dict[str, dict]:
        traced = self.reps[1]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in (traced[0]["layers"] if traced else ())
        }
        untraced, traced_wall = self._median(0, "wall_s"), self._median(1, "wall_s")
        if traced and untraced is not None:
            values["trace.overhead_s"] = traced_wall - untraced
            values["trace.uncovered_s"] = self._median(1, "uncovered_s")
        values.update(self.op_latency())
        # Latencies a workload does not measure read 0; a run without a
        # passing traced repetition reads null everywhere.
        return {
            name: {"value": values.get(name, 0.0 if traced else None), "unit": unit}
            for name, unit, _ in PER_LAYER
        }

    def spans(self) -> list[dict]:
        return [s for r in self.reps[1] for s in r["spans"]]


def run(args) -> dict:
    names = ORDER if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    env = environment(args)
    try:
        workloads = [Workload(name, args, workdir) for name in names]
        for wl in workloads:
            wl.prepare()
        # Interleave: one repetition of each workload in turn.  A traced
        # run alternates untraced and traced repetitions.
        flags = (0, 1) if args.trace else (0,)
        pending = list(workloads)
        while pending:
            for wl in list(pending):
                for flag in flags:
                    wl.repeat(flag)
                if not wl.next_fits(args.seconds):
                    pending.remove(wl)
        if not args.trace:
            for wl in workloads:
                wl.fill_setups()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict[str, dict] = {}
    record = {"env": env, "workloads": {}}
    for wl in workloads:
        mine = wl.per_layer() if args.trace else wl.end_to_end()
        if args.workload == "all" and not args.trace:
            mine.update(
                {name: {"value": value, "unit": "ms"}
                 for name, value in wl.op_latency().items()}
            )
            mine["failed_ops"] = {
                "value": wl.failed / wl.attempted if wl.attempted else None,
                "unit": "ratio",
            }
        prefix = f"{wl.name}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in mine.items()})
        record["workloads"][wl.name] = {
            "attempted": wl.attempted,
            "failed": wl.failed,
            "failures": wl.failures[:20],
            "metrics": mine,
            "repetitions_measured": [
                {"trace": flag, **{k: r[k] for k in (*dict(END_TO_END), *RAW)}}
                for flag, reps in wl.reps.items() for r in reps
            ],
            "spans": wl.spans(),
        }
        for failure in wl.failures[:20]:
            print(f"{wl.name}: check failed: {failure}", file=sys.stderr)
    attempted = sum(wl.attempted for wl in workloads)
    failed = sum(wl.failed for wl in workloads)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"env": env, "record": str((OUT / name).relative_to(ROOT))}))
    return {
        "correct": failed == 0 and all(wl.reps[f] for wl in workloads for f in flags),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*ORDER, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes (scan to 5, k <= 2, probe cap 5), for tests")
    ap.add_argument("--references", type=Path, default=HERE / "reference.json",
                    help="reference answers to check against")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "permwreath" / "__init__.py").is_file():
        print(f"no permwreath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
