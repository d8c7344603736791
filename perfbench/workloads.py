"""One repetition of one benchmark workload, in a fresh interpreter.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --spawned-at T [--tiny] [--references PATH] [--setup-only]
    python3 perfbench/workloads.py --prepare-store PATH --max-len N

A repetition imports permwreath from the checkout's ``src``, builds its
inputs (set-up), runs the timed phase, checks the outputs against
``reference.json`` and independent invariants outside the timed phase,
and prints one JSON object as its last stdout line.  ``--spawned-at``
is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from interpreter start to the start of the
timed phase.  With ``--setup-only`` it stops after set-up and reports
only ``setup_s``.  Times are scaled to a nominal host speed (see
``hostspeed.py``); the raw times are reported next to them.

The basis workloads are exhaustive scans and ignore the seed; the seed
picks the inflation-built hosts of ``long-hosts`` and the position pairs
of ``pins``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

from hostspeed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload sizes.  "full" is what the benchmark measures; "tiny" keeps
#: every code path but finishes in a moment, for the benchmark's tests.
SIZES = {
    "full": {
        "max_len": 8,
        "k_max": 12,
        "inflated": 60,
        "probe_cap": 40,
        "pairs_per_host": 12,
    },
    "tiny": {
        "max_len": 5,
        "k_max": 2,
        "inflated": 4,
        "probe_cap": 5,
        "pairs_per_host": 2,
    },
}

#: The wreath product both basis workloads scan.
BASIS_X = "av(25134)"
BASIS_Y = "av(321)"


def basis_argv(store: str, max_len: int) -> list[str]:
    return ["--store", store, "basis", "--x", BASIS_X, "--y", BASIS_Y,
            "--max-len", str(max_len)]


def load_permwreath():
    sys.path.insert(0, str(ROOT / "src"))
    import permwreath
    import permwreath.cli  # the one module the package does not import

    if Path(permwreath.__file__).resolve().parent != ROOT / "src" / "permwreath":
        raise SystemExit(f"imported permwreath from {permwreath.__file__}, not src/")
    return permwreath


class Checks:
    """Counts correctness checks and keeps a note of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --- independent helpers for inputs and checks ---------------------------

def grow_avoider(rng: random.Random, n: int, pattern, involves) -> tuple[int, ...]:
    """A random avoider of ``pattern`` of length n, grown by inserting maxima.

    Appending the new maximum never creates ``pattern`` when the
    pattern's maximum is not its last entry, so growth always succeeds
    for the patterns used here.
    """
    vals = [1]
    for m in range(2, n + 1):
        slots = list(range(m))
        rng.shuffle(slots)
        for p in slots:
            cand = vals[:p] + [m] + vals[p:]
            if not involves(pattern, cand):
                vals = cand
                break
        else:
            raise AssertionError("no insertion slot keeps the class")
    return tuple(vals)


def minimal_span(host, i: int, j: int) -> tuple[int, int]:
    """Shortest interval of ``host`` holding positions i and j (1-based)."""
    pos_of = {v: p for p, v in enumerate(host, start=1)}
    lo, hi = i, j
    while True:
        seg = host[lo - 1 : hi]
        vlo, vhi = min(seg), max(seg)
        ps = [pos_of[v] for v in range(vlo, vhi + 1)]
        nlo, nhi = min(ps + [lo]), max(ps + [hi])
        if (nlo, nhi) == (lo, hi):
            return lo, hi
        lo, hi = nlo, nhi


def read_store(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_store(checks: Checks, path: str, max_len: int, expected: set) -> None:
    lines = read_store(path)
    records = [tuple(o["payload"]["perm"]) for o in lines if o["kind"] == "basis_record"]
    last = lines[-1] if lines else {}
    checks.expect(
        last.get("kind") == "length_complete"
        and last.get("payload", {}).get("length") == max_len,
        f"store does not end at length_complete {max_len}",
    )
    checks.expect(len(records) == len(set(records)), "store holds duplicate records")
    checks.expect(set(records) == expected, "store records differ from the reference")


def parse_records(stdout: str) -> list[tuple[int, tuple[int, ...]]]:
    """(length, perm) pairs from ``basis`` text output, one per line."""
    out = []
    for line in stdout.splitlines():
        length, perm = line.split(maxsplit=1)
        vals = perm.split() if " " in perm else list(perm)
        out.append((int(length), tuple(int(v) for v in vals)))
    return out


# --- workloads --------------------------------------------------------------
#
# Each workload is a triple: setup(pw, args, size, refs) returns a state
# dict, run(pw, state, clock) does the timed phase and returns the
# outputs that check(pw, state, out, checks) inspects afterwards.  Per-call
# latencies are taken on ``clock``, which leaves out host-speed sampling.  Every
# call into permwreath in a timed phase goes through a module attribute,
# so the tracer's wrappers see it.


def _scan_reference(refs, size):
    return [(len(perm), tuple(perm)) for perm in refs["scan"][str(size["max_len"])]]


def setup_basis_scan(pw, args, size, refs):
    store = os.path.join(args.workdir, "store.jsonl")
    open(store, "w").close()
    return {"store": store, "argv": basis_argv(store, size["max_len"]),
            "max_len": size["max_len"], "expected": _scan_reference(refs, size)}


def setup_basis_resume(pw, args, size, refs):
    store = os.path.join(args.workdir, "store.jsonl")
    shutil.copyfile(args.prepared_store, store)
    return {"store": store, "argv": basis_argv(store, size["max_len"]),
            "max_len": size["max_len"], "expected": _scan_reference(refs, size)}


def run_basis(pw, state, clock):
    return pw.cli.execute(state["argv"])


def check_basis_scan(pw, state, result, checks):
    _check_basis(state, result, checks, state["expected"])


def check_basis_resume(pw, state, result, checks):
    top = [r for r in state["expected"] if r[0] == state["max_len"]]
    _check_basis(state, result, checks, top)


def _check_basis(state, result, checks, printed):
    checks.expect(result.exit_code == 0, f"basis exited {result.exit_code}")
    checks.expect(
        parse_records(result.stdout) == printed,
        "printed basis records differ from the reference",
    )
    all_perms = {perm for _, perm in state["expected"]}
    check_store(checks, state["store"], state["max_len"], all_perms)


def setup_long_hosts(pw, args, size, refs):
    bs = pw.basis_search
    verifications = []
    hosts = []
    for fam in bs.FAMILIES.values():
        for k in range(1, size["k_max"] + 1):
            host = pw.antichain_member(fam, k)
            hosts.append(host)
            for inner in fam.inners:
                verifications.append((host, fam.outer, inner))
    rng = random.Random(args.seed)
    involves = pw.perm_core.involves
    outer_pat = pw.Permutation((2, 5, 1, 3, 4))
    inner_pat = pw.Permutation((3, 2, 1))
    inflated = []
    for t in range(size["inflated"]):
        length = 30 + t % 31
        m = rng.randint(length // 6, length // 2)
        sizes = [1] * m
        for _ in range(length - m):
            sizes[rng.randrange(m)] += 1
        skel = grow_avoider(rng, m, outer_pat, involves)
        blocks = [grow_avoider(rng, s, inner_pat, involves) for s in sizes]
        inflated.append(pw.inflate(skel, blocks))
    return {
        "verifications": verifications,
        "hosts": hosts,
        "inflated": inflated,
        "x": pw.av(25134),
        "y": pw.av(321),
    }


def run_long_hosts(pw, state, clock):
    bs, dec, prof = pw.basis_search, pw.decomposition, pw.profile
    verdicts, op_ms = [], []
    for host, outer, inner in state["verifications"]:
        t = clock()
        verdicts.append(bs.verify_basis_element(host, outer, inner))
        op_ms.append((clock() - t) * 1e3)
    decomps = [dec.substitution_decomposition(h) for h in state["hosts"]]
    members = [prof.wreath_member(h, state["x"], state["y"]) for h in state["inflated"]]
    return {"verdicts": verdicts, "decomps": decomps, "members": members,
            "op_ms": op_ms}


def check_long_hosts(pw, state, out, checks):
    for (host, outer, inner), res in zip(state["verifications"], out["verdicts"]):
        checks.expect(res.ok, f"verify {host} in {outer} wr {inner}: {res.reason}")
    for host, ok in zip(state["inflated"], out["members"]):
        checks.expect(ok, f"inflation-built host {host} reported a non-member")
    for host, d in zip(state["hosts"], out["decomps"]):
        segs = d.block_segments
        tiles = [s for s, _ in segs] == [1] + [e + 1 for _, e in segs[:-1]]
        checks.expect(
            tiles and segs[-1][1] == len(host)
            and pw.inflate(d.skeleton, d.block_patterns) == host,
            f"decomposition of {host} does not re-inflate to it",
        )


def setup_pins(pw, args, size, refs):
    rng = random.Random(args.seed)
    pairs = []
    for fam in pw.basis_search.FAMILIES.values():
        for k in range(1, size["k_max"] + 1):
            host = pw.antichain_member(fam, k)
            n = len(host)
            for _ in range(size["pairs_per_host"]):
                i = rng.randint(1, n - 1)
                pairs.append((host, i, rng.randint(i + 1, n)))
    return {
        "y": pw.av(321),
        "cap": size["probe_cap"],
        "pairs": pairs,
        "witnesses": refs["probe"][str(size["probe_cap"])],
    }


def run_pins(pw, state, clock):
    bp = pw.blocks_pins
    probe = bp.pin_probe(state["y"], state["cap"])
    reaches, op_ms = [], []
    for host, i, j in state["pairs"]:
        for fn in (bp.right_reaching, bp.left_reaching):
            t = clock()
            reaches.append(fn(host, i, j))
            op_ms.append((clock() - t) * 1e3)
    return {"probe": probe, "reaches": reaches, "op_ms": op_ms}


def check_pins(pw, state, out, checks):
    probe = out["probe"]
    checks.expect(
        probe.exceeded and [str(w) for w in probe.witnesses] == state["witnesses"],
        "pin probe witnesses differ from the reference",
    )
    seqs = iter(out["reaches"])
    for host, i, j in state["pairs"]:
        s, e = minimal_span(host, i, j)
        start = ((i, host[i - 1]), (j, host[j - 1]))
        for end in (e, s):
            seq = next(seqs)
            target = (end, host[end - 1])
            # When the block's end is one of the two starting points, the
            # sequence is just those two points.
            checks.expect(
                seq.pins[:2] == start
                and all(seq.proper_flags[2:])
                and (seq.pins[-1] == target or seq.pins == start and target in start),
                f"reaching sequence from ({i}, {j}) in {host} is not proper "
                f"or does not end at position {end}",
            )


WORKLOADS = {
    "basis-scan": (setup_basis_scan, run_basis, check_basis_scan),
    "basis-resume": (setup_basis_resume, run_basis, check_basis_resume),
    "long-hosts": (setup_long_hosts, run_long_hosts, check_long_hosts),
    "pins": (setup_pins, run_pins, check_pins),
}


# --- entry points -----------------------------------------------------------

def prepare_store(path: str, max_len: int) -> None:
    """Write a store holding the basis scan through ``max_len``."""
    pw = load_permwreath()
    open(path, "w").close()
    result = pw.cli.execute(basis_argv(path, max_len))
    if result.exit_code != 0:
        raise SystemExit(f"store preparation failed: {result.stdout}")


def repetition(args) -> dict:
    size = SIZES["tiny" if args.tiny else "full"]
    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)
    pw = load_permwreath()

    setup, run, check = WORKLOADS[args.workload]
    state = setup(pw, args, size, refs)
    tracer = None
    if args.trace:
        from tracer import PER_LAYER, Tracer

        tracer = Tracer(run_id=args.run_id)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        with SpeedProbe() as probe:
            pass
        return {"setup_s": setup_s * probe.speed(), "raw_setup_s": setup_s,
                "speed_samples_s": probe.samples}
    memo_before = pw.avoidance._member.cache_info()
    with SpeedProbe() as probe:
        if tracer is not None:
            tracer.install()
        t0, raw_t0 = probe.clock(), perf_counter()
        out = run(pw, state, probe.clock)
        wall_s, raw_s = probe.clock() - t0, perf_counter() - raw_t0
        if tracer is not None:
            tracer.uninstall()
    memo_after = pw.avoidance._member.cache_info()
    checks = Checks()
    check(pw, state, out, checks)
    speed = probe.speed()
    result = {
        "wall_s": wall_s * speed,
        "setup_s": setup_s * speed,
        "raw_wall_s": wall_s,
        "raw_setup_s": setup_s,
        "speed_samples_s": probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failures": checks.failures[:20],
        "failed": len(checks.failures),
        "op_ms": [ms * speed for ms in out["op_ms"]] if isinstance(out, dict) else [],
    }
    if tracer is not None:
        # The tracer reads perf_counter, which is cheaper than the probe's
        # clock.  The probe's interrupts land in each traced call in
        # proportion to its time, so one factor takes them out of all.
        scale = speed * wall_s / raw_s
        layers = tracer.metrics(memo_before, memo_after)
        result["layers"] = {
            name: layers[name] * scale if unit == "s" else layers[name]
            for name, unit, _ in PER_LAYER
            if name in layers
        }
        result["uncovered_s"] = (raw_s - tracer.covered_s) * scale
        result["spans"] = tracer.span_records()
    return result


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--references", default=str(HERE / "reference.json"))
    ap.add_argument("--prepared-store")
    ap.add_argument("--prepare-store")
    ap.add_argument("--max-len", type=int)
    args = ap.parse_args(argv)
    if args.prepare_store:
        prepare_store(args.prepare_store, args.max_len)
        return
    print(json.dumps(repetition(args)))


if __name__ == "__main__":
    main()
