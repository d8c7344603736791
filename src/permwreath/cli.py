"""Command-line surface and the resumable JSON-lines result store.

Verdict-style commands speak through exit codes so shell pipelines can
branch: 0 for an affirmative outcome, 1 for a negative verdict, 2 for
usage errors, 3 when a cap or limit got in the way.  ``--json`` switches
every command to structured output.

Each subcommand's parser names its handler (``set_defaults(run=...)``).
A handler takes the parsed namespace and returns the triple
``(exit code, JSON objects, text lines)``; :func:`_run` prints the
objects one JSON line each under ``--json`` and the text lines
otherwise, so no handler looks at the output mode.

Store files hold one JSON object per line, schema
``{"kind", "schema_version", "payload"}``, append-only, and
:func:`store_append` is their one writer: one write and one fsync per
call.  A basis run passes it each finished length's records together
with its completion marker, so re-running a completed length is a no-op
and a crash never leaves records without their marker.  A final line
torn by a crash mid-write is cut off with a warning; any other corrupt
line is a hard error naming the line number.  That error, and a store
path that cannot be read or written, exit 2 with ``store error:``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterator

from .avoidance import (
    PermClass,
    class_literal,
    enumerate_members,
    member,
    parse_class,
)
from .basis_search import (
    BASIS_CAP,
    FAMILIES,
    antichain_member,
    basis_passes,
    check_antichain,
    verify_basis_element,
)
from .blocks_pins import (
    PinConditionError,
    classify_pins,
    left_reaching,
    minimal_block,
    parse_pin_word,
    pin_probe,
    pin_word_to_perm,
    right_reaching,
)
from .decomposition import is_simple, skeleton, substitution_decomposition
from .perm_core import (
    CapExceeded,
    Permutation,
    format_perm,
    inflate,
    intervals,
    involves,
    occurrences,
    parse_perm,
    reduce,
)
from .profile import all_deflations, left_greedy_profile, wreath_member

STORE_ENV = "PERMWREATH_STORE"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(Exception):
    pass


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str

    def __bool__(self) -> bool:
        return self.exit_code == EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep it catchable
        raise UsageError(f"{self.prog}: {message}")


# --- store --------------------------------------------------------------

def _store_line(kind: str, payload: dict) -> str:
    return json.dumps(
        {"kind": kind, "schema_version": SCHEMA_VERSION, "payload": payload},
        separators=(",", ":"),
        sort_keys=True,
    ) + "\n"


def store_append(path: str, records: list[tuple[str, dict]]) -> None:
    """Append ``(kind, payload)`` records to the store and flush them to disk."""
    # One write of the whole text, then one fsync: a crash leaves either
    # all of it or none of it in the common case.
    data = "".join(_store_line(kind, payload) for kind, payload in records)
    view = memoryview(data.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def store_lines(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) pairs; corrupt lines are fatal."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise StoreError(f"{path}: line {lineno}: {exc}") from None
            if not isinstance(obj, dict) or "kind" not in obj or "payload" not in obj:
                raise StoreError(
                    f"{path}: line {lineno}: record lacks kind/payload"
                )
            yield lineno, obj


def _trim_torn_tail(path: str) -> None:
    # A crash in the middle of a write can leave a final line without
    # its newline.  If it does not parse it is cut off; if it does, it
    # gets its newline, so the next append starts a line of its own.
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:
            fh.truncate(cut)
            print(f"warning: {path}: dropped a torn final line", file=sys.stderr)
        else:
            fh.write(b"\n")


def store_resume(path: str) -> dict[str, int]:
    """Max completed basis length per job key, from the marker lines."""
    done: dict[str, int] = {}
    if not os.path.exists(path):
        return done
    _trim_torn_tail(path)
    for _, obj in store_lines(path):
        if obj["kind"] == "length_complete":
            payload = obj["payload"]
            job = payload["job"]
            done[job] = max(done.get(job, 0), int(payload["length"]))
    return done


def _job_key(outer: PermClass, inner: PermClass) -> str:
    return f"{class_literal(outer)}|{class_literal(inner)}"


def _basis_payload(pi: Permutation, outer: PermClass, inner: PermClass) -> dict:
    return {
        "perm": list(pi),
        "x_basis": [list(b) for b in outer.basis],
        "y_basis": [list(b) for b in inner.basis],
        "length": len(pi),
    }


# --- output helpers -----------------------------------------------------

# What a command handler returns: (exit code, JSON objects, text lines).
Output = tuple[int, list, list[str]]


def ascii_plot(pi: Permutation) -> str:
    """An n-by-n dot grid of the plot, top value first.

    >>> print(ascii_plot(Permutation((2, 4, 1, 3))))
    .*..
    ...*
    *...
    ..*.
    """
    n = len(pi)
    rows = []
    for v in range(n, 0, -1):
        rows.append("".join("*" if pi[c] == v else "." for c in range(n)))
    return "\n".join(rows)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _verdict(flag: bool, key: str, yes: str, no: str) -> Output:
    return EXIT_OK if flag else EXIT_NEGATIVE, [{key: flag}], [yes if flag else no]


def _block_lines(segments, patterns) -> list[str]:
    return [
        f"block {s}..{e}: {format_perm(pat)}"
        for (s, e), pat in zip(segments, patterns)
    ]


def _pin_sequence(seq) -> Output:
    lines = []
    for idx, ((p, v), d, flag) in enumerate(
        zip(seq.pins, seq.directions, seq.proper_flags), start=1
    ):
        if d is None:
            lines.append(f"p{idx} ({p},{v})")
        else:
            lines.append(f"p{idx} ({p},{v}) {d} {'proper' if flag else 'not proper'}")
    obj = {
        "pins": [list(p) for p in seq.pins],
        "directions": list(seq.directions),
        "proper": list(seq.proper_flags),
    }
    return EXIT_OK, [obj], lines


# --- argument wiring ----------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="permwreath", description=__doc__.splitlines()[0])
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument(
        "--max-perm-len",
        type=int,
        default=64,
        help="hard cap on parsed permutation length (default 64)",
    )
    p.add_argument(
        "--store",
        default=os.environ.get(STORE_ENV),
        help=f"result store path (default ${STORE_ENV})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(group, name, run, summary):
        q = group.add_parser(name, help=summary)
        q.set_defaults(run=run)
        return q

    q = cmd(sub, "involve", _involve, "does the first permutation occur in the second?")
    q.add_argument("sigma")
    q.add_argument("pi")

    q = cmd(sub, "occurrences", _occurrences, "count occurrences of a pattern")
    q.add_argument("sigma")
    q.add_argument("pi")

    q = cmd(sub, "inflate", _inflate, "inflate a permutation by blocks")
    q.add_argument("skeleton")
    q.add_argument("blocks", nargs="+")

    q = cmd(sub, "reduce", _reduce, "the pattern of a sequence of distinct integers")
    q.add_argument("entries", nargs="+")
    q.add_argument("--ascii-plot", action="store_true")

    q = cmd(sub, "intervals", _intervals, "all contiguous-value segments")
    q.add_argument("pi")

    q = cmd(sub, "simple", _simple, "is the permutation simple?")
    q.add_argument("pi")

    q = cmd(sub, "skeleton", _skeleton, "the simple permutation underneath")
    q.add_argument("pi")

    q = cmd(sub, "decompose", _decompose, "substitution decomposition")
    q.add_argument("pi")

    q = cmd(sub, "member", _member, "class membership")
    q.add_argument("pi")
    q.add_argument("cls", metavar="class")

    q = cmd(sub, "enumerate", _enumerate, "members of a class by length")
    q.add_argument("cls", metavar="class")
    q.add_argument("n", type=int)

    q = cmd(sub, "profile", _profile, "shortest deflation with blocks in a class")
    q.add_argument("pi")
    q.add_argument("--y", required=True, help="block class")
    q.add_argument("--blocks", action="store_true", help="show the blocks")
    q.add_argument("--ascii-plot", action="store_true")

    q = cmd(sub, "deflations", _deflations, "every deflation with blocks in a class")
    q.add_argument("pi")
    q.add_argument("--y", required=True)

    q = cmd(sub, "wreath-member", _wreath_member, "membership in a wreath product")
    q.add_argument("pi")
    q.add_argument("--x", required=True, help="outer class")
    q.add_argument("--y", required=True, help="inner (block) class")

    q = cmd(sub, "minblock", _minblock, "minimal block on two positions")
    q.add_argument("pi")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--ascii-plot", action="store_true")

    pins = sub.add_parser("pins", help="pin-sequence tools").add_subparsers(
        dest="pins_command", required=True
    )
    q = cmd(pins, "classify", _pins_classify, "validate and classify pin points")
    q.add_argument("pi")
    q.add_argument("positions", nargs="+", type=int)
    q = cmd(pins, "word", _pins_word, "realise a pin word, e.g. 12:URUR")
    q.add_argument("word")
    q.add_argument("--ascii-plot", action="store_true")
    q = cmd(pins, "reach", _pins_reach, "proper reaching sequence in a minimal block")
    q.add_argument("pi")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--side", choices=("right", "left"), default="right")

    q = cmd(
        sub, "pin-probe", _pin_probe, "bounded search for the pin threshold of a class"
    )
    q.add_argument("--y", required=True)
    q.add_argument("--pin-cap", type=int, default=20)

    q = cmd(sub, "basis", _basis, "basis of a wreath product up to a length")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--max-len", type=int, required=True)

    q = cmd(
        sub, "verify-basis", _verify_basis, "is this permutation minimally outside?"
    )
    q.add_argument("pi")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)

    anti = sub.add_parser("antichain", help="antichain families").add_subparsers(
        dest="antichain_command", required=True
    )
    q = cmd(anti, "gen", _antichain_gen, "generate a family member")
    q.add_argument("family", choices=sorted(FAMILIES))
    q.add_argument("k", type=int)
    q.add_argument("--upto", action="store_true", help="members 1..k")
    q.add_argument("--ascii-plot", action="store_true")
    q = cmd(anti, "check", _antichain_check, "pairwise incomparability")
    q.add_argument("perms", nargs="+")

    return p


# --- command bodies -----------------------------------------------------

def _run(ns) -> CommandResult:
    code, objects, lines = ns.run(ns)
    if ns.json:
        lines = [_json_line(obj) for obj in objects]
    return CommandResult(code, "\n".join(lines))


def _involve(ns) -> Output:
    sigma = parse_perm(ns.sigma, max_len=ns.max_perm_len)
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    return _verdict(involves(sigma, pi), "involves", "yes", "no")


def _occurrences(ns) -> Output:
    sigma = parse_perm(ns.sigma, max_len=ns.max_perm_len)
    count = occurrences(sigma, parse_perm(ns.pi, max_len=ns.max_perm_len))
    return EXIT_OK, [{"occurrences": count}], [str(count)]


def _inflate(ns) -> Output:
    cap = ns.max_perm_len
    skel = parse_perm(ns.skeleton, max_len=cap)
    result = inflate(skel, [parse_perm(b, max_len=cap) for b in ns.blocks], max_len=cap)
    return EXIT_OK, [{"perm": list(result)}], [format_perm(result)]


def _reduce(ns) -> Output:
    entries = " ".join(ns.entries).replace(",", " ").split()
    result = reduce([int(e) for e in entries])
    lines = [format_perm(result)]
    if ns.ascii_plot:
        lines.append(ascii_plot(result))
    return EXIT_OK, [{"perm": list(result)}], lines


def _intervals(ns) -> Output:
    segs = intervals(parse_perm(ns.pi, max_len=ns.max_perm_len))
    return EXIT_OK, [{"intervals": segs}], [f"{s}..{e}" for s, e in segs]


def _simple(ns) -> Output:
    flag = is_simple(parse_perm(ns.pi, max_len=ns.max_perm_len))
    return _verdict(flag, "simple", "simple", "not simple")


def _skeleton(ns) -> Output:
    result = skeleton(parse_perm(ns.pi, max_len=ns.max_perm_len))
    return EXIT_OK, [{"perm": list(result)}], [format_perm(result)]


def _decompose(ns) -> Output:
    d = substitution_decomposition(parse_perm(ns.pi, max_len=ns.max_perm_len))
    obj = {
        "skeleton": list(d.skeleton),
        "segments": list(d.block_segments),
        "blocks": [list(b) for b in d.block_patterns],
    }
    lines = [f"skeleton: {format_perm(d.skeleton)}"]
    lines += _block_lines(d.block_segments, d.block_patterns)
    return EXIT_OK, [obj], lines


def _member(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    return _verdict(member(pi, parse_class(ns.cls)), "member", "member", "non-member")


def _enumerate(ns) -> Output:
    perms = enumerate_members(parse_class(ns.cls), ns.n)
    obj = {"count": len(perms), "perms": [list(p) for p in perms]}
    return EXIT_OK, [obj], [format_perm(p) for p in perms]


def _profile(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    dec = left_greedy_profile(pi, parse_class(ns.y))
    obj = {
        "profile": list(dec.profile),
        "segments": list(dec.segments),
        "blocks": [list(b) for b in dec.block_patterns],
    }
    lines = [format_perm(dec.profile)]
    if ns.blocks:
        lines += _block_lines(dec.segments, dec.block_patterns)
    if ns.ascii_plot:
        lines.append(ascii_plot(dec.profile))
    return EXIT_OK, [obj], lines


def _deflations(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    defs = sorted(all_deflations(pi, parse_class(ns.y)), key=lambda p: (len(p), p))
    return (
        EXIT_OK,
        [{"deflations": [list(p) for p in defs]}],
        [format_perm(p) for p in defs],
    )


def _wreath_member(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    flag = wreath_member(pi, parse_class(ns.x), parse_class(ns.y))
    return _verdict(flag, "member", "member", "non-member")


def _minblock(ns) -> Output:
    mb = minimal_block(parse_perm(ns.pi, max_len=ns.max_perm_len), ns.i, ns.j)
    obj = {
        "pos_range": mb.pos_range,
        "val_range": mb.val_range,
        "values": list(mb.values),
        "pattern": list(mb.pattern),
    }
    (s, e), (lo, hi) = mb.pos_range, mb.val_range
    lines = [
        f"positions {s}..{e}",
        f"values {lo}..{hi}",
        f"pattern {format_perm(mb.pattern)}",
    ]
    if ns.ascii_plot:
        lines.append(ascii_plot(mb.pattern))
    return EXIT_OK, [obj], lines


def _pins_classify(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    pts = [(p, pi[p - 1] if 1 <= p <= len(pi) else 0) for p in ns.positions]
    try:
        seq = classify_pins(pi, pts)
    except PinConditionError as exc:
        return EXIT_NEGATIVE, [{"valid": False, "error": str(exc)}], [f"invalid: {exc}"]
    return _pin_sequence(seq)


def _pins_word(ns) -> Output:
    word = parse_pin_word(ns.word)
    result = pin_word_to_perm(word)
    lines = [format_perm(result)]
    if ns.ascii_plot:
        lines.append(ascii_plot(result))
    return EXIT_OK, [{"word": str(word), "perm": list(result)}], lines


def _pins_reach(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    reach = right_reaching if ns.side == "right" else left_reaching
    return _pin_sequence(reach(pi, ns.i, ns.j))


def _pin_probe(ns) -> Output:
    result = pin_probe(parse_class(ns.y), ns.pin_cap)
    obj = {
        "threshold": result.threshold,
        "exceeded": result.exceeded,
        "witnesses": [str(w) for w in result.witnesses],
    }
    if not result.exceeded:
        return EXIT_OK, [obj], [f"threshold = {result.threshold}"]
    shown = ", ".join(str(w) for w in result.witnesses[:4])
    more = len(result.witnesses) - 4
    tail = f" (+{more} more)" if more > 0 else ""
    text = f"exceeded cap {ns.pin_cap}; surviving words: {shown}{tail}"
    return EXIT_LIMIT, [obj], [text]


def _basis(ns) -> Output:
    outer = parse_class(ns.x)
    inner = parse_class(ns.y)
    if ns.max_len > BASIS_CAP:
        raise CapExceeded(f"max_len {ns.max_len} exceeds the cap {BASIS_CAP}")
    key = _job_key(outer, inner)
    completed = store_resume(ns.store).get(key, 0) if ns.store else 0
    payloads, lines = [], []
    for n, found in basis_passes(outer, inner, ns.max_len, done=completed):
        batch = [_basis_payload(p, outer, inner) for p in found]
        if ns.store:
            # Records and marker go to disk in a single write, so a crash
            # cannot leave a length's records without its marker (which
            # would make a re-run append them again).
            marker = ("length_complete", {"job": key, "length": n})
            store_append(ns.store, [("basis_record", b) for b in batch] + [marker])
        payloads += batch
        lines += [f"{n} {format_perm(p)}" for p in found]
    return EXIT_OK, payloads, lines


def _verify_basis(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    res = verify_basis_element(pi, parse_class(ns.x), parse_class(ns.y))
    obj = {
        "ok": res.ok,
        "reason": res.reason,
        "deleted_position": res.deleted_position,
        "witness": list(res.witness) if res.witness else None,
    }
    if res.ok:
        return EXIT_OK, [obj], ["basis element"]
    text = f"not a basis element: {res.reason}"
    if res.witness is not None:
        text += f" ({format_perm(res.witness)})"
    return EXIT_NEGATIVE, [obj], [text]


def _antichain_gen(ns) -> Output:
    ks = range(1, ns.k + 1) if ns.upto else [ns.k]
    perms = [antichain_member(ns.family, k) for k in ks]
    lines = []
    for p in perms:
        lines.append(format_perm(p))
        if ns.ascii_plot:
            lines.append(ascii_plot(p))
    return EXIT_OK, [{"perms": [list(p) for p in perms]}], lines


def _antichain_check(ns) -> Output:
    perms = [parse_perm(t, max_len=ns.max_perm_len) for t in ns.perms]
    flag = check_antichain(perms)
    return _verdict(flag, "antichain", "antichain", "not an antichain")


def execute(argv: list[str]) -> CommandResult:
    """Run one command line and capture its outcome."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return _run(ns)
    except UsageError as exc:
        return CommandResult(EXIT_USAGE, str(exc))
    except CapExceeded as exc:
        return CommandResult(EXIT_LIMIT, f"limit: {exc}")
    except (StoreError, OSError) as exc:
        return CommandResult(EXIT_USAGE, f"store error: {exc}")
    except (ValueError, KeyError) as exc:
        return CommandResult(EXIT_USAGE, f"error: {exc}")


def main() -> None:
    result = execute(sys.argv[1:])
    if result.stdout:
        # Limit outcomes (exit 3) still carry payload, e.g. the probe's
        # surviving words; only usage errors belong on stderr.
        stream = sys.stderr if result.exit_code == EXIT_USAGE else sys.stdout
        print(result.stdout, file=stream)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
