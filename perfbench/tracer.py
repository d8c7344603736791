"""Run-time tracing of permwreath from outside the package.

The tracer replaces selected public functions with timing wrappers in
every loaded ``permwreath`` module that holds them, so calls made
through a module's own global lookup (``profile`` calling ``reduce``,
``cli`` calling ``store_append``) are seen too.  Nothing under ``src/``
is edited; the originals are put back by :meth:`Tracer.uninstall`.

Two kinds of names are traced:

* *spans* (coarse boundaries: a CLI command, a basis length pass, a
  verification, a reaching call) keep a full record each: name, start,
  end, parent span and run id;
* *kernels* (hot functions called up to millions of times) keep only
  aggregated calls, inclusive time and self time, so memory stays flat.

Self time is a call's duration minus the time of traced calls beneath
it.  ``covered_s`` is the time spent inside top-level traced calls, so
the timed phase minus ``covered_s`` is the time no span covers.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

#: (defining module, function) -> metric prefix, for full spans.
SPANS = {
    ("cli", "execute"): "cli.execute",
    ("basis_search", "basis_elements_of_length"): "basis_search.length_pass",
    ("basis_search", "verify_basis_element"): "basis_search.verify",
    ("blocks_pins", "right_reaching"): "blocks_pins.reaching",
    ("blocks_pins", "left_reaching"): "blocks_pins.reaching",
}

#: (defining module, function) -> metric prefix, for aggregated kernels.
KERNELS = {
    ("perm_core", "involves"): "perm_core.involves",
    ("perm_core", "reduce"): "perm_core.reduce",
    ("perm_core", "interval_end_table"): "perm_core.interval_end_table",
    ("avoidance", "member"): "avoidance.member",
    ("profile", "left_greedy_profile"): "profile.left_greedy_profile",
    ("profile", "wreath_member"): "profile.wreath_member",
    ("decomposition", "substitution_decomposition"): (
        "decomposition.substitution_decomposition"
    ),
    ("blocks_pins", "pin_word_to_perm"): "blocks_pins.pin_word_to_perm",
    ("blocks_pins", "minimal_block"): "blocks_pins.minimal_block",
    ("blocks_pins", "classify_pins"): "blocks_pins.classify_pins",
    ("cli", "store_append"): "cli.store_append",
    ("cli", "store_resume"): "cli.store_resume",
}

#: Every per-layer metric a traced repetition reports, with its unit and
#: the direction that counts as better.  BENCHMARK.json lists the same.
PER_LAYER = [
    ("perm_core.involves.calls", "count", "lower"),
    ("perm_core.involves.s", "s", "lower"),
    ("perm_core.reduce.calls", "count", "lower"),
    ("perm_core.reduce.s", "s", "lower"),
    ("perm_core.interval_end_table.calls", "count", "lower"),
    ("perm_core.interval_end_table.s", "s", "lower"),
    ("avoidance.member.calls", "count", "lower"),
    ("avoidance.memo.hits", "count", "higher"),
    ("avoidance.memo.misses", "count", "lower"),
    ("avoidance.memo.hit_ratio", "ratio", "higher"),
    ("avoidance.memo.size", "count", "lower"),
    ("profile.wreath_member.calls", "count", "lower"),
    ("profile.wreath_member.s", "s", "lower"),
    ("profile.left_greedy_profile.calls", "count", "lower"),
    ("profile.left_greedy_profile.self_s", "s", "lower"),
    ("basis_search.length_pass.s", "s", "lower"),
    ("basis_search.length_pass.self_s", "s", "lower"),
    *((f"basis_search.length_pass.len{n}.s", "s", "lower") for n in range(1, 9)),
    ("basis_search.candidates", "count", "lower"),
    ("basis_search.member_tests", "count", "lower"),
    ("basis_search.member_tests_per_candidate", "ratio", "lower"),
    ("basis_search.verify.calls", "count", "lower"),
    ("basis_search.verify.s", "s", "lower"),
    ("basis_search.verify.p50_ms", "ms", "lower"),
    ("basis_search.verify.p90_ms", "ms", "lower"),
    ("decomposition.substitution_decomposition.calls", "count", "lower"),
    ("decomposition.substitution_decomposition.s", "s", "lower"),
    ("blocks_pins.pin_word_to_perm.calls", "count", "lower"),
    ("blocks_pins.pin_word_to_perm.s", "s", "lower"),
    ("blocks_pins.probe.alive_ratio", "ratio", "higher"),
    ("blocks_pins.reaching.calls", "count", "lower"),
    ("blocks_pins.reaching.s", "s", "lower"),
    ("blocks_pins.reaching.p50_ms", "ms", "lower"),
    ("blocks_pins.reaching.p90_ms", "ms", "lower"),
    ("blocks_pins.minimal_block.s", "s", "lower"),
    ("blocks_pins.classify_pins.s", "s", "lower"),
    ("cli.execute.s", "s", "lower"),
    ("cli.store_append.calls", "count", "lower"),
    ("cli.store_append.s", "s", "lower"),
    ("cli.store_resume.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
]


class Tracer:
    """Wraps permwreath functions and collects spans and counts in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        # stats[prefix] = [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self.candidates = 0
        self.member_tests = 0
        self.probe_alive = 0
        self.pass_s: dict[int, float] = {}
        # Child-time accumulators; the bottom entry collects the time of
        # top-level calls, i.e. the time some traced call covers.
        self._child = [0.0]
        self._open_spans: list[int] = []
        self._open_names: list[str] = []
        self._installed: list[tuple] = []

    @property
    def covered_s(self) -> float:
        return self._child[0]

    # --- wrappers -------------------------------------------------------

    def _kernel(self, fn, prefix, on_result=None):
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            t = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t
                inner = child.pop()
                child[-1] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += d - inner
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _span(self, fn, prefix, on_call=None):
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        child = self._child
        spans = self.spans
        open_spans = self._open_spans
        open_names = self._open_names

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            open_spans.append(len(spans))
            open_names.append(prefix)
            spans.append(None)  # reserve the slot so children point here
            child.append(0.0)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                d = end - t
                inner = child.pop()
                child[-1] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += d - inner
                spans[open_spans.pop()] = (prefix, t, end, parent, self.run_id)
                open_names.pop()
                if on_call is not None:
                    on_call(args, d)

        return traced

    def _on_length_pass(self, args, d):
        n = args[2]
        self.candidates += math.factorial(n)
        self.pass_s[n] = self.pass_s.get(n, 0.0) + d

    def _count_member_test(self, args, result):
        if self._open_names and self._open_names[-1] == "basis_search.length_pass":
            self.member_tests += 1

    def _count_alive(self, args, result):
        if result:
            self.probe_alive += 1

    def install(self) -> None:
        """Replace every traced name in every loaded permwreath module."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "permwreath" or name.startswith("permwreath.")
        }
        for (home, fname), prefix in {**SPANS, **KERNELS}.items():
            original = getattr(mods[f"permwreath.{home}"], fname)
            shared = (
                self._span(
                    original,
                    prefix,
                    self._on_length_pass if fname == "basis_elements_of_length" else None,
                )
                if (home, fname) in SPANS
                else self._kernel(original, prefix)
            )
            for modname, mod in mods.items():
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    wrapper = shared
                    # Membership calls basis_search makes inside a length
                    # pass are the scan's member tests, and member verdicts
                    # taken inside blocks_pins are the probe's.
                    if modname == "permwreath.basis_search" and fname == "wreath_member":
                        wrapper = self._kernel(original, prefix, self._count_member_test)
                    elif modname == "permwreath.blocks_pins" and fname == "member":
                        wrapper = self._kernel(original, prefix, self._count_alive)
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    # --- results --------------------------------------------------------

    def metrics(self, memo_before, memo_after) -> dict[str, float]:
        """Per-layer metrics of one traced repetition (timings in seconds)."""
        hits = memo_after.hits - memo_before.hits
        misses = memo_after.misses - memo_before.misses
        out = {}
        for prefix, (calls, total, self_s) in self.stats.items():
            out.update({f"{prefix}.calls": calls, f"{prefix}.s": total,
                        f"{prefix}.self_s": self_s})
        realised = out["blocks_pins.pin_word_to_perm.calls"]
        out.update(
            {
                "avoidance.memo.hits": hits,
                "avoidance.memo.misses": misses,
                "avoidance.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "avoidance.memo.size": memo_after.currsize,
                "basis_search.candidates": self.candidates,
                "basis_search.member_tests": self.member_tests,
                "basis_search.member_tests_per_candidate": (
                    self.member_tests / self.candidates if self.candidates else 0.0
                ),
                "blocks_pins.probe.alive_ratio": (
                    self.probe_alive / realised if realised else 0.0
                ),
            }
        )
        for n in range(1, 9):
            out[f"basis_search.length_pass.len{n}.s"] = self.pass_s.get(n, 0.0)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run": run}
            for name, start, end, parent, run in self.spans
        ]
