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
import re
import sys
from dataclasses import asdict, dataclass
from functools import cache
from typing import Iterable, Iterator

from .avoidance import (
    PermClass,
    class_literal,
    enumerate_members,
    member,
    parse_class,
)
from .basis_search import (
    ANTICHAIN_POINTS_CAP,
    FAMILIES,
    BasisRecord,
    antichain_member,
    basis_passes,
    check_antichain,
    family_points,
    verify_basis_element,
)
from .blocks_pins import (
    PROBE_WITNESSES,
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
    LENGTH_CAP,
    CapExceeded,
    Permutation,
    _quote,
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

#: Bound on the cells (characters) of the plots one command draws.
PLOT_CELLS_CAP = 10**6


class UsageError(Exception):
    pass


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str


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
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # bad UTF-8 or bad JSON
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
    """Max completed basis length per job key, from the marker lines.

    A marker whose payload is not a string ``job`` and an integer
    ``length`` is corrupt, and fatal like any other corrupt line.
    """
    done: dict[str, int] = {}
    if not os.path.exists(path):
        return done
    _trim_torn_tail(path)
    for lineno, obj in store_lines(path):
        match obj:
            case {
                "kind": "length_complete",
                "payload": {"job": str(job), "length": int(length)},
            } if not isinstance(length, bool):
                done[job] = max(done.get(job, 0), length)
            case {"kind": "length_complete"}:
                raise StoreError(
                    f"{path}: line {lineno}: length_complete marker needs "
                    "a string job and an integer length"
                )
    return done


def _job_key(outer: PermClass, inner: PermClass) -> str:
    return f"{class_literal(outer)}|{class_literal(inner)}"


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


def _class(ns, text: str) -> PermClass:
    # A class literal is parsed text, so its patterns obey --max-perm-len.
    return parse_class(text, max_len=ns.max_perm_len)


def _plotting(ns, lengths: Iterable[int]) -> bool:
    # Plots only for --ascii-plot in text mode; a plot is n^2 characters,
    # and computed permutations have any length.
    if not ns.ascii_plot or ns.json:
        return False
    cells = sum(n * n for n in lengths)
    if cells > PLOT_CELLS_CAP:
        raise CapExceeded(f"{cells} plot cells exceed the cap {PLOT_CELLS_CAP}")
    return True


def _plots(ns, perms: list[Permutation]) -> list[str]:
    return [ascii_plot(p) for p in perms] if _plotting(ns, map(len, perms)) else []


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

# Text that ``int`` reads as a decimal; when it refuses such text, the
# text has more digits than ``int`` will read.
_DECIMAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _integer(text: str, refusal: str = "invalid int value: {}") -> int:
    """``int(text)``, for the integers typed on the command line.

    A decimal too long for ``int`` to read is named as such; other text
    is refused with ``refusal``, the text quoted in place of ``{}``.
    Either message quotes at most a bounded prefix of the text.
    """
    try:
        return int(text)
    except ValueError:
        if _DECIMAL.fullmatch(text):
            digits = sum(map(str.isdecimal, text))
            refusal = f"{{}} is a decimal of {digits} digits, too long to read"
        raise argparse.ArgumentTypeError(refusal.format(_quote(text))) from None


@cache  # built on the first execute, not at import; never changed after
def _build_parser() -> _Parser:
    p = _Parser(prog="permwreath", description=__doc__.splitlines()[0])
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument(
        "--max-perm-len",
        type=_integer,
        default=LENGTH_CAP,
        help=f"hard cap on parsed permutation length (default {LENGTH_CAP})",
    )
    p.add_argument("--store", help=f"result store path (default ${STORE_ENV})")
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
    q.add_argument("n", type=_integer)

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
    q.add_argument("i", type=_integer)
    q.add_argument("j", type=_integer)
    q.add_argument("--ascii-plot", action="store_true")

    pins = sub.add_parser("pins", help="pin-sequence tools").add_subparsers(
        dest="pins_command", required=True
    )
    q = cmd(pins, "classify", _pins_classify, "validate and classify pin points")
    q.add_argument("pi")
    q.add_argument("positions", nargs="+", type=_integer)
    q = cmd(pins, "word", _pins_word, "realise a pin word, e.g. 12:URUR")
    q.add_argument("word")
    q.add_argument("--ascii-plot", action="store_true")
    q = cmd(pins, "reach", _pins_reach, "proper reaching sequence in a minimal block")
    q.add_argument("pi")
    q.add_argument("i", type=_integer)
    q.add_argument("j", type=_integer)
    q.add_argument("--side", choices=("right", "left"), default="right")

    q = cmd(
        sub, "pin-probe", _pin_probe, "bounded search for the pin threshold of a class"
    )
    q.add_argument("--y", required=True)
    q.add_argument("--pin-cap", type=_integer, default=20)

    q = cmd(sub, "basis", _basis, "basis of a wreath product up to a length")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--max-len", type=_integer, required=True)

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
    q.add_argument("k", type=_integer)
    q.add_argument("--upto", action="store_true", help="members 1..k")
    q.add_argument("--ascii-plot", action="store_true")
    q = cmd(anti, "check", _antichain_check, "pairwise incomparability")
    q.add_argument("perms", nargs="+")

    return p


# --- command bodies -----------------------------------------------------

def _run(ns) -> CommandResult:
    code, objects, lines = ns.run(ns)
    if ns.json:
        lines = [json.dumps(obj, sort_keys=True) for obj in objects]
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
    skel = parse_perm(ns.skeleton, max_len=ns.max_perm_len)
    result = inflate(skel, [parse_perm(b, max_len=ns.max_perm_len) for b in ns.blocks])
    return EXIT_OK, [{"perm": list(result)}], [format_perm(result)]


def _reduce(ns) -> Output:
    entries = " ".join(ns.entries).replace(",", " ").split()
    refusal = "cannot parse entry {}: expected an integer"
    result = reduce([_integer(e, refusal) for e in entries])
    lines = [format_perm(result)]
    lines += _plots(ns, [result])
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
    return _verdict(member(pi, _class(ns, ns.cls)), "member", "member", "non-member")


def _enumerate(ns) -> Output:
    perms = enumerate_members(_class(ns, ns.cls), ns.n)
    obj = {"count": len(perms), "perms": [list(p) for p in perms]}
    return EXIT_OK, [obj], [format_perm(p) for p in perms]


def _profile(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    dec = left_greedy_profile(pi, _class(ns, ns.y))
    obj = {
        "profile": list(dec.profile),
        "segments": list(dec.segments),
        "blocks": [list(b) for b in dec.block_patterns],
    }
    lines = [format_perm(dec.profile)]
    if ns.blocks:
        lines += _block_lines(dec.segments, dec.block_patterns)
    lines += _plots(ns, [dec.profile])
    return EXIT_OK, [obj], lines


def _deflations(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    defs = sorted(all_deflations(pi, _class(ns, ns.y)), key=lambda p: (len(p), p))
    return (
        EXIT_OK,
        [{"deflations": [list(p) for p in defs]}],
        [format_perm(p) for p in defs],
    )


def _wreath_member(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    flag = wreath_member(pi, _class(ns, ns.x), _class(ns, ns.y))
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
    lines += _plots(ns, [mb.pattern])
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
    lines += _plots(ns, [result])
    return EXIT_OK, [{"word": str(word), "perm": list(result)}], lines


def _pins_reach(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    reach = right_reaching if ns.side == "right" else left_reaching
    return _pin_sequence(reach(pi, ns.i, ns.j))


def _pin_probe(ns) -> Output:
    result = pin_probe(_class(ns, ns.y), ns.pin_cap)
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
    if len(result.witnesses) == PROBE_WITNESSES:
        tail = f" (+{more} more; the listing stops at {PROBE_WITNESSES})"
    text = f"exceeded cap {ns.pin_cap}; surviving words: {shown}{tail}"
    return EXIT_LIMIT, [obj], [text]


def _basis(ns) -> Output:
    outer = _class(ns, ns.x)
    inner = _class(ns, ns.y)
    # Refuses a bad --max-len before the store is read, let alone repaired.
    passes = basis_passes(outer, inner, ns.max_len)
    key = _job_key(outer, inner)
    store = os.environ.get(STORE_ENV) if ns.store is None else ns.store
    completed = store_resume(store).get(key, 0) if store else 0
    if completed >= ns.max_len:
        return EXIT_OK, [], []
    payloads, lines = [], []
    for n, found in passes:
        if n <= completed:  # stored already; the pass only rebuilds its layer
            continue
        batch = [asdict(BasisRecord(p, outer.basis, inner.basis, n)) for p in found]
        if store:
            # Records and marker go to disk in a single write, so a crash
            # cannot leave a length's records without its marker (which
            # would make a re-run append them again).
            marker = ("length_complete", {"job": key, "length": n})
            store_append(store, [("basis_record", b) for b in batch] + [marker])
        payloads += batch
        lines += [f"{n} {format_perm(p)}" for p in found]
    return EXIT_OK, payloads, lines


def _verify_basis(ns) -> Output:
    pi = parse_perm(ns.pi, max_len=ns.max_perm_len)
    res = verify_basis_element(pi, _class(ns, ns.x), _class(ns, ns.y))
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
    family = FAMILIES[ns.family]
    points = family_points(family, ns.k, upto=ns.upto)
    if points > ANTICHAIN_POINTS_CAP:
        raise CapExceeded(f"{points} points exceed the cap {ANTICHAIN_POINTS_CAP}")
    # Member k alone when k < 1, even with --upto, so the build refuses it.
    ks = range(1, ns.k + 1) if ns.upto and ns.k >= 1 else [ns.k]
    # Member lengths are affine in k, so the plot cells are counted before
    # any member is built.
    _plotting(ns, (family_points(family, k) for k in ks if k >= 1))
    perms = [antichain_member(family, k) for k in ks]
    lines = [format_perm(p) for p in perms]
    if plots := _plots(ns, perms):
        lines = [line for pair in zip(lines, plots) for line in pair]
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
    except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
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
