"""Command-line surface and the resumable JSON-lines result store.

Verdict-style commands speak through exit codes so shell pipelines can
branch: 0 for an affirmative outcome, 1 for a negative verdict, 2 for
usage errors, 3 when a cap or limit got in the way.  ``--json`` switches
every command to structured output.

Store files hold one JSON object per line, schema
``{"kind", "schema_version", "payload"}``, append-only.  A basis run
writes each finished length's records together with its completion
marker in one write, so re-running a completed length is a no-op and a
crash never leaves records without their marker.  A final line torn by
a crash mid-write is cut off with a warning; any other corrupt line is
a hard error naming the line number.
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
    BasisRecord,
    antichain_member,
    basis_passes,
    check_antichain,
    verify_basis_element,
    _record,
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
from .profile import (
    DEFLATION_CAP,
    all_deflations,
    left_greedy_profile,
    wreath_member,
)

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


def _store_write(path: str, text: str) -> None:
    # One write of the whole text, then one fsync: a crash leaves either
    # all of it or none of it in the common case.
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def store_append(path: str, kind: str, payload: dict) -> None:
    """Append one record to the store and flush it to disk."""
    _store_write(path, _store_line(kind, payload))


def store_commit_length(
    path: str, job: str, length: int, payloads: list[dict]
) -> None:
    """Append one length's basis records and its completion marker.

    Records and marker go to disk in a single write, so a crash cannot
    leave the records of a length without its marker (which would make
    a re-run append them again).
    """
    _store_write(
        path,
        "".join(_store_line("basis_record", p) for p in payloads)
        + _store_line("length_complete", {"job": job, "length": length}),
    )


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


def _basis_payload(rec: BasisRecord) -> dict:
    return {
        "perm": list(rec.perm),
        "x_basis": [list(b) for b in rec.x_basis],
        "y_basis": [list(b) for b in rec.y_basis],
        "length": rec.length,
    }


# --- small helpers ------------------------------------------------------

def ascii_plot(pi: Permutation) -> str:
    """An n-by-n dot grid of the plot, top value first."""
    n = len(pi)
    rows = []
    for v in range(n, 0, -1):
        rows.append("".join("*" if pi[c] == v else "." for c in range(n)))
    return "\n".join(rows)


def _perm(text: str, max_len: int) -> Permutation:
    return parse_perm(text, max_len=max_len)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _verdict(flag: bool, yes: str, no: str, as_json: bool, key: str) -> CommandResult:
    if as_json:
        out = _json_line({key: flag})
    else:
        out = yes if flag else no
    return CommandResult(EXIT_OK if flag else EXIT_NEGATIVE, out)


def _maybe_plot(lines: list[str], pi: Permutation, want: bool) -> None:
    if want:
        lines.append(ascii_plot(pi))


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

    def cmd(name, **kw):
        return sub.add_parser(name, **kw)

    q = cmd("involve", help="does the first permutation occur in the second?")
    q.add_argument("sigma")
    q.add_argument("pi")

    q = cmd("occurrences", help="count occurrences of a pattern")
    q.add_argument("sigma")
    q.add_argument("pi")

    q = cmd("inflate", help="inflate a permutation by blocks")
    q.add_argument("skeleton")
    q.add_argument("blocks", nargs="+")

    q = cmd("reduce", help="the pattern of a sequence of distinct integers")
    q.add_argument("entries", nargs="+")
    q.add_argument("--ascii-plot", action="store_true")

    q = cmd("intervals", help="all contiguous-value segments")
    q.add_argument("pi")

    q = cmd("simple", help="is the permutation simple?")
    q.add_argument("pi")

    q = cmd("skeleton", help="the simple permutation underneath")
    q.add_argument("pi")

    q = cmd("decompose", help="substitution decomposition")
    q.add_argument("pi")

    q = cmd("member", help="class membership")
    q.add_argument("pi")
    q.add_argument("cls", metavar="class")

    q = cmd("enumerate", help="members of a class by length")
    q.add_argument("cls", metavar="class")
    q.add_argument("n", type=int)
    q.add_argument("--max-len", type=int, default=10, help="enumeration cap")

    q = cmd("profile", help="shortest deflation with blocks in a class")
    q.add_argument("pi")
    q.add_argument("--y", required=True, help="block class")
    q.add_argument("--blocks", action="store_true", help="show the blocks")
    q.add_argument("--ascii-plot", action="store_true")

    q = cmd("deflations", help="every deflation with blocks in a class")
    q.add_argument("pi")
    q.add_argument("--y", required=True)
    q.add_argument("--max-len", type=int, default=DEFLATION_CAP)

    q = cmd("wreath-member", help="membership in a wreath product")
    q.add_argument("pi")
    q.add_argument("--x", required=True, help="outer class")
    q.add_argument("--y", required=True, help="inner (block) class")

    q = cmd("minblock", help="minimal block on two positions")
    q.add_argument("pi")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--ascii-plot", action="store_true")

    pins = cmd("pins", help="pin-sequence tools").add_subparsers(
        dest="pins_command", required=True
    )
    q = pins.add_parser("classify", help="validate and classify pin points")
    q.add_argument("pi")
    q.add_argument("positions", nargs="+", type=int)
    q = pins.add_parser("word", help="realise a pin word, e.g. 12:URUR")
    q.add_argument("word")
    q.add_argument("--ascii-plot", action="store_true")
    q = pins.add_parser("reach", help="proper reaching sequence in a minimal block")
    q.add_argument("pi")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--side", choices=("right", "left"), default="right")

    q = cmd("pin-probe", help="bounded search for the pin threshold of a class")
    q.add_argument("--y", required=True)
    q.add_argument("--pin-cap", type=int, default=20)

    q = cmd("basis", help="basis of a wreath product up to a length")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--max-len", type=int, required=True)

    q = cmd("verify-basis", help="is this permutation minimally outside?")
    q.add_argument("pi")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)

    anti = cmd("antichain", help="antichain families").add_subparsers(
        dest="antichain_command", required=True
    )
    q = anti.add_parser("gen", help="generate a family member")
    q.add_argument("family", choices=sorted(FAMILIES))
    q.add_argument("k", type=int)
    q.add_argument("--upto", action="store_true", help="members 1..k")
    q.add_argument("--ascii-plot", action="store_true")
    q = anti.add_parser("check", help="pairwise incomparability")
    q.add_argument("perms", nargs="+")

    return p


# --- command bodies -----------------------------------------------------

def _run(ns) -> CommandResult:
    cap = ns.max_perm_len
    as_json = ns.json

    if ns.command == "involve":
        sigma, pi = _perm(ns.sigma, cap), _perm(ns.pi, cap)
        return _verdict(involves(sigma, pi), "yes", "no", as_json, "involves")

    if ns.command == "occurrences":
        count = occurrences(_perm(ns.sigma, cap), _perm(ns.pi, cap))
        out = _json_line({"occurrences": count}) if as_json else str(count)
        return CommandResult(EXIT_OK, out)

    if ns.command == "inflate":
        skel = _perm(ns.skeleton, cap)
        blocks = [_perm(b, cap) for b in ns.blocks]
        result = inflate(skel, blocks, max_len=cap)
        out = _json_line({"perm": list(result)}) if as_json else format_perm(result)
        return CommandResult(EXIT_OK, out)

    if ns.command == "reduce":
        entries = " ".join(ns.entries).replace(",", " ").split()
        result = reduce([int(e) for e in entries])
        if as_json:
            return CommandResult(EXIT_OK, _json_line({"perm": list(result)}))
        lines = [format_perm(result)]
        _maybe_plot(lines, result, ns.ascii_plot)
        return CommandResult(EXIT_OK, "\n".join(lines))

    if ns.command == "intervals":
        pi = _perm(ns.pi, cap)
        segs = intervals(pi)
        if as_json:
            return CommandResult(EXIT_OK, _json_line({"intervals": segs}))
        return CommandResult(EXIT_OK, "\n".join(f"{s}..{e}" for s, e in segs))

    if ns.command == "simple":
        return _verdict(
            is_simple(_perm(ns.pi, cap)), "simple", "not simple", as_json, "simple"
        )

    if ns.command == "skeleton":
        result = skeleton(_perm(ns.pi, cap))
        out = _json_line({"perm": list(result)}) if as_json else format_perm(result)
        return CommandResult(EXIT_OK, out)

    if ns.command == "decompose":
        pi = _perm(ns.pi, cap)
        d = substitution_decomposition(pi)
        if as_json:
            return CommandResult(
                EXIT_OK,
                _json_line(
                    {
                        "skeleton": list(d.skeleton),
                        "segments": list(d.block_segments),
                        "blocks": [list(b) for b in d.block_patterns],
                    }
                ),
            )
        lines = [f"skeleton: {format_perm(d.skeleton)}"]
        for (s, e), pat in zip(d.block_segments, d.block_patterns):
            lines.append(f"block {s}..{e}: {format_perm(pat)}")
        return CommandResult(EXIT_OK, "\n".join(lines))

    if ns.command == "member":
        ok = member(_perm(ns.pi, cap), parse_class(ns.cls))
        return _verdict(ok, "member", "non-member", as_json, "member")

    if ns.command == "enumerate":
        cls = parse_class(ns.cls)
        perms = enumerate_members(cls, ns.n, cap=ns.max_len)
        if as_json:
            return CommandResult(
                EXIT_OK,
                _json_line({"count": len(perms), "perms": [list(p) for p in perms]}),
            )
        return CommandResult(EXIT_OK, "\n".join(format_perm(p) for p in perms))

    if ns.command == "profile":
        pi = _perm(ns.pi, cap)
        dec = left_greedy_profile(pi, parse_class(ns.y))
        if as_json:
            return CommandResult(
                EXIT_OK,
                _json_line(
                    {
                        "profile": list(dec.profile),
                        "segments": list(dec.segments),
                        "blocks": [list(b) for b in dec.block_patterns],
                    }
                ),
            )
        lines = [format_perm(dec.profile)]
        if ns.blocks:
            for (s, e), pat in zip(dec.segments, dec.block_patterns):
                lines.append(f"block {s}..{e}: {format_perm(pat)}")
        _maybe_plot(lines, dec.profile, ns.ascii_plot)
        return CommandResult(EXIT_OK, "\n".join(lines))

    if ns.command == "deflations":
        pi = _perm(ns.pi, cap)
        defs = sorted(
            all_deflations(pi, parse_class(ns.y), cap=ns.max_len),
            key=lambda p: (len(p), p),
        )
        if as_json:
            return CommandResult(
                EXIT_OK, _json_line({"deflations": [list(p) for p in defs]})
            )
        return CommandResult(EXIT_OK, "\n".join(format_perm(p) for p in defs))

    if ns.command == "wreath-member":
        ok = wreath_member(_perm(ns.pi, cap), parse_class(ns.x), parse_class(ns.y))
        return _verdict(ok, "member", "non-member", as_json, "member")

    if ns.command == "minblock":
        pi = _perm(ns.pi, cap)
        mb = minimal_block(pi, ns.i, ns.j)
        if as_json:
            return CommandResult(
                EXIT_OK,
                _json_line(
                    {
                        "pos_range": mb.pos_range,
                        "val_range": mb.val_range,
                        "values": list(mb.values),
                        "pattern": list(mb.pattern),
                    }
                ),
            )
        s, e = mb.pos_range
        lo, hi = mb.val_range
        lines = [
            f"positions {s}..{e}",
            f"values {lo}..{hi}",
            f"pattern {format_perm(mb.pattern)}",
        ]
        _maybe_plot(lines, mb.pattern, ns.ascii_plot)
        return CommandResult(EXIT_OK, "\n".join(lines))

    if ns.command == "pins":
        return _run_pins(ns, cap, as_json)

    if ns.command == "pin-probe":
        inner = parse_class(ns.y)
        result = pin_probe(inner, ns.pin_cap)
        if as_json:
            out = _json_line(
                {
                    "threshold": result.threshold,
                    "exceeded": result.exceeded,
                    "witnesses": [str(w) for w in result.witnesses],
                }
            )
        elif result.exceeded:
            shown = ", ".join(str(w) for w in result.witnesses[:4])
            more = len(result.witnesses) - 4
            tail = f" (+{more} more)" if more > 0 else ""
            out = f"exceeded cap {ns.pin_cap}; surviving words: {shown}{tail}"
        else:
            out = f"threshold = {result.threshold}"
        return CommandResult(EXIT_LIMIT if result.exceeded else EXIT_OK, out)

    if ns.command == "basis":
        return _run_basis(ns, as_json)

    if ns.command == "verify-basis":
        res = verify_basis_element(
            _perm(ns.pi, cap), parse_class(ns.x), parse_class(ns.y)
        )
        if as_json:
            out = _json_line(
                {
                    "ok": res.ok,
                    "reason": res.reason,
                    "deleted_position": res.deleted_position,
                    "witness": list(res.witness) if res.witness else None,
                }
            )
        elif res.ok:
            out = "basis element"
        elif res.witness is not None:
            out = f"not a basis element: {res.reason} ({format_perm(res.witness)})"
        else:
            out = f"not a basis element: {res.reason}"
        return CommandResult(EXIT_OK if res.ok else EXIT_NEGATIVE, out)

    if ns.command == "antichain":
        if ns.antichain_command == "gen":
            ks = range(1, ns.k + 1) if ns.upto else [ns.k]
            perms = [antichain_member(ns.family, k) for k in ks]
            if as_json:
                return CommandResult(
                    EXIT_OK, _json_line({"perms": [list(p) for p in perms]})
                )
            lines = []
            for p in perms:
                lines.append(format_perm(p))
                _maybe_plot(lines, p, ns.ascii_plot)
            return CommandResult(EXIT_OK, "\n".join(lines))
        perms = [_perm(t, cap) for t in ns.perms]
        ok = check_antichain(perms)
        return _verdict(ok, "antichain", "not an antichain", as_json, "antichain")

    raise UsageError(f"unknown command {ns.command!r}")


def _run_pins(ns, cap, as_json) -> CommandResult:
    if ns.pins_command == "classify":
        pi = _perm(ns.pi, cap)
        pts = [(p, pi[p - 1] if 1 <= p <= len(pi) else 0) for p in ns.positions]
        try:
            seq = classify_pins(pi, pts)
        except PinConditionError as exc:
            out = (
                _json_line({"valid": False, "error": str(exc)})
                if as_json
                else f"invalid: {exc}"
            )
            return CommandResult(EXIT_NEGATIVE, out)
        return CommandResult(EXIT_OK, _format_pin_sequence(seq, as_json))

    if ns.pins_command == "word":
        word = parse_pin_word(ns.word)
        result = pin_word_to_perm(word)
        if as_json:
            return CommandResult(
                EXIT_OK, _json_line({"word": str(word), "perm": list(result)})
            )
        lines = [format_perm(result)]
        _maybe_plot(lines, result, ns.ascii_plot)
        return CommandResult(EXIT_OK, "\n".join(lines))

    pi = _perm(ns.pi, cap)
    seq = right_reaching(pi, ns.i, ns.j) if ns.side == "right" else left_reaching(
        pi, ns.i, ns.j
    )
    return CommandResult(EXIT_OK, _format_pin_sequence(seq, as_json))


def _format_pin_sequence(seq, as_json) -> str:
    if as_json:
        return _json_line(
            {
                "pins": [list(p) for p in seq.pins],
                "directions": list(seq.directions),
                "proper": list(seq.proper_flags),
            }
        )
    lines = []
    for idx, (p, v) in enumerate(seq.pins, start=1):
        d = seq.directions[idx - 1]
        flag = seq.proper_flags[idx - 1]
        if d is None:
            lines.append(f"p{idx} ({p},{v})")
        else:
            lines.append(f"p{idx} ({p},{v}) {d} {'proper' if flag else 'not proper'}")
    return "\n".join(lines)


def _run_basis(ns, as_json) -> CommandResult:
    outer = parse_class(ns.x)
    inner = parse_class(ns.y)
    if ns.max_len > BASIS_CAP:
        raise CapExceeded(f"max_len {ns.max_len} exceeds the cap {BASIS_CAP}")
    key = _job_key(outer, inner)
    completed = store_resume(ns.store).get(key, 0) if ns.store else 0
    lines = []
    for n, found in basis_passes(outer, inner, ns.max_len, done=completed):
        payloads = [_basis_payload(_record(p, outer, inner)) for p in found]
        if ns.store:
            store_commit_length(ns.store, key, n, payloads)
        for payload, p in zip(payloads, found):
            lines.append(
                _json_line(payload) if as_json else f"{n} {format_perm(p)}"
            )
    return CommandResult(EXIT_OK, "\n".join(lines))


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
    except StoreError as exc:
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
