"""Check that two source trees give the same command-line outputs, byte for byte.

    python tools/same_output.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  For each tree one
subprocess imports ``permwreath`` from ``<tree>/src``, and refuses to run
if the import finds any other copy.  It runs a fixed list of command
lines through ``cli.execute``:

* ``basis`` of ``av(25134) wr av(321)`` to length 8, and of the other
  pairs the basis scan's child-aware pass is tested on to length 7,
  each with a fresh temporary store;
* ``pin-probe`` of every registry class at caps 20 and ``PIN_CAP``,
  the deepest walk the probe accepts;
* ``verify-basis`` and ``wreath-member`` of each antichain family
  member with k <= 4, and of that member with one point inserted at its
  middle (not minimal, so the verdict names a deletion), against the
  family's outer class and each inner class the family defeats, and
  ``verify-basis`` of the member less its first point, a member of the
  product, against the family's first inner class;
* ``pins reach`` (both sides), ``minblock``, ``decompose``,
  ``profile --blocks``, ``simple`` and ``reduce`` (of every other entry)
  on those members;
* ``involve`` and ``occurrences`` of each pattern of length 3 in those
  members and in the hosts in ``DECOMPOSED``;
* ``antichain gen`` and ``antichain check`` of each family's first
  members, and ``check`` of them with ``1`` added, which is no antichain;
* ``decompose``, ``skeleton``, ``intervals`` and ``simple`` of every
  permutation of length <= 5 and of the sum-, skew- and
  simply-decomposable hosts in ``DECOMPOSED``, since every family member
  above is indecomposable both ways;
* ``deflations`` of every permutation of length <= 5, ``member`` of
  every permutation of length <= 4, and ``enumerate`` to length 5, for
  each class in ``DEFLATION_CLASSES``;
* ``pins classify`` of each permutation of length 4 at each order of its
  four positions, valid or not, and of ``CLASSIFY_HOSTS`` seeded hosts of
  length 7..14, each at ``CLASSIFY_RUNS`` seeded sequences of 3..6
  positions: half of them walks whose pins slice the rectangle before
  them where some point can, half any distinct positions, so that both
  refusals and all four directions come up on the longer hosts;
* ``pins word`` from both origins of every word of at most two letters,
  perpendicular or not, of every perpendicular word of at most
  ``WORD_LETTERS`` letters, and of seeded perpendicular words of the
  lengths in ``LONG_WORDS``;
* ``inflate`` of each skeleton of length <= 3 by hosts from
  ``DECOMPOSED``, and by too few blocks;
* a ``--json`` copy of some of the above.

The exit code, the stdout and the store's bytes of each invocation are
compared as SHA-256 digests.  It prints ``identical: N invocations`` and
exits 0, or prints the first command line whose outcome differs and
exits 1.  A tree that cannot run the list exits 2 with its error.  Only
the standard library is used.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The scanned pairs that are not antichain families, with their lengths.
BASIS_PAIRS = [
    ("av(25134)", "av(321)", 8),
    ("av(21)", "av(231)", 7),
    ("av(4321,3412)", "av(21)", 7),
    ("av(123)", "av(21)", 7),
    ("av(321)", "av(21)", 7),
    ("av(21)", "av(2413,3142)", 7),
    ("av(231)", "av(321)", 7),
    ("av(2413)", "av(12,21)", 7),
    ("av(12)", "av(12)", 7),
    ("av(1)", "av(321)", 7),
    ("av(321)", "av(1)", 7),
    ("av(321)", "av()", 7),
    ("av()", "av(21)", 7),
]

#: Family members 1..FAMILY_K are verified and taken apart.
FAMILY_K = 4

#: Permutations of length up to SHORT_N are decomposed, and so are these.
SHORT_N = 5
DECOMPOSED = ["217968543", "456123", "123456", "346215"]

#: The classes the short permutations are deflated by, tested in, and
#: enumerated to length SHORT_N.
DEFLATION_CLASSES = ["av(21)", "av(123)", "av(321)", "av(3412,2413)"]

#: ``pins word`` runs on every perpendicular word of up to WORD_LETTERS
#: letters, and on one word of each length in LONG_WORDS, drawn with a
#: fixed seed.
WORD_LETTERS = 6
LONG_WORDS = (100, 500, 2000)

#: ``pins classify`` runs on CLASSIFY_HOSTS seeded hosts of length 7..14,
#: at CLASSIFY_RUNS seeded sequences each.
CLASSIFY_HOSTS = 40
CLASSIFY_RUNS = 6

#: The letters that may follow each letter of a pin word.
TURNS = {"L": "UD", "R": "UD", "U": "LR", "D": "LR"}


def perpendicular_words() -> list[str]:
    """The letters of every perpendicular pin word of 3..WORD_LETTERS
    letters, then of one seeded word of each length in LONG_WORDS."""
    words, level = [], [a + b for a in "LRUD" for b in TURNS[a]]
    for _ in range(3, WORD_LETTERS + 1):
        level = [w + ch for w in level for ch in TURNS[w[-1]]]
        words += level
    rng = random.Random(2008)
    for n in LONG_WORDS:
        letters = [rng.choice("LRUD")]
        while len(letters) < n:
            letters.append(rng.choice(TURNS[letters[-1]]))
        words.append("".join(letters))
    return words


def classify_runs() -> list[list[str]]:
    """``pins classify`` of the seeded hosts at their seeded sequences.
    A walk takes, from its third pin on, a point that slices the
    rectangle of the pins before it when there is one, and any unused
    point when there is none.  A point off every earlier pin's position
    and value slices exactly when it lies strictly between the
    rectangle's edges on one axis and not on the other."""
    rng = random.Random(2007)
    runs = []
    for _ in range(CLASSIFY_HOSTS):
        n = rng.randint(7, 14)
        host = rng.sample(range(1, n + 1), n)
        for run in range(CLASSIFY_RUNS):
            m = rng.randint(3, 6)
            order = rng.sample(range(1, n + 1), 2 if run % 2 else m)
            while len(order) < m:
                vals = [host[q - 1] for q in order]
                lo, hi, vlo, vhi = min(order), max(order), min(vals), max(vals)
                free = [q for q in range(1, n + 1) if q not in order]
                slicing = [
                    q for q in free if (lo < q < hi) != (vlo < host[q - 1] < vhi)
                ]
                order.append(rng.choice(slicing or free))
            text = " ".join(map(str, host))
            runs.append(["pins", "classify", text, *map(str, order)])
    return runs


def invocations() -> list[list[str]]:
    """The command lines, built from the registry and families of the
    ``permwreath`` that is imported."""
    from permwreath.avoidance import REGISTRY, class_literal
    from permwreath.basis_search import FAMILIES, antichain_member
    from permwreath.blocks_pins import PIN_CAP
    from permwreath.perm_core import delete_point

    pairs = BASIS_PAIRS + [
        (class_literal(fam.outer), class_literal(fam.inner), 7)
        for name, fam in FAMILIES.items()
        if name != "thm6"
    ]
    runs = [["basis", "--x", x, "--y", y, "--max-len", str(n)] for x, y, n in pairs]
    runs += [
        ["pin-probe", "--y", name, "--pin-cap", str(cap)]
        for cap in (20, PIN_CAP)
        for name in sorted(REGISTRY)
    ]
    short = [
        "".join(map(str, pi))
        for n in range(1, SHORT_N + 1)
        for pi in itertools.permutations(range(1, n + 1))
    ]
    members = []
    for name, fam in FAMILIES.items():
        outer = class_literal(fam.outer)
        upto = []
        for k in range(1, FAMILY_K + 1):
            pi = antichain_member(fam, k)
            text, n = str(pi), len(pi)
            upto.append(text)
            m = n // 2
            vals = [v + 1 if v >= m else v for v in pi]
            longer = " ".join(map(str, vals[: m - 1] + [m] + vals[m - 1 :]))
            for inner in map(class_literal, fam.inners):
                for host in (text, longer):
                    runs.append(["verify-basis", host, "--x", outer, "--y", inner])
                    runs.append(["wreath-member", host, "--x", outer, "--y", inner])
            shorter = str(delete_point(pi, 1))
            inner = class_literal(fam.inner)
            runs.append(["verify-basis", shorter, "--x", outer, "--y", inner])
            for i, j in ((1, 2), (2, n), (1, n)):
                for side in ("right", "left"):
                    runs.append(["pins", "reach", text, str(i), str(j), "--side", side])
                runs.append(["minblock", text, str(i), str(j)])
            runs.append(["decompose", text])
            runs.append(["profile", text, "--y", class_literal(fam.inner), "--blocks"])
            runs.append(["simple", text])
            runs += [["reduce", ",".join(map(str, pi[s::2]))] for s in (0, 1)]
        runs.append(["antichain", "gen", name, str(FAMILY_K), "--upto"])
        runs.append(["antichain", "gen", name, "1", "--ascii-plot"])
        runs += [["antichain", "check", *upto], ["antichain", "check", *upto, "1"]]
        members += upto
    for sigma in (t for t in short if len(t) == 3):
        for host in DECOMPOSED + members:
            runs += [["involve", sigma, host], ["occurrences", sigma, host]]
    for text in short + DECOMPOSED:
        for cmd in ("decompose", "skeleton", "intervals", "simple"):
            runs.append([cmd, text])
    for y in DEFLATION_CLASSES:
        runs += [["deflations", text, "--y", y] for text in short]
        runs += [["member", text, y] for text in short if len(text) <= 4]
        runs += [["enumerate", y, str(n)] for n in range(1, SHORT_N + 1)]
    four = [text for text in short if len(text) == 4]
    runs += [["pins", "classify", host, *order] for host in four for order in four]
    runs += classify_runs()
    runs += [
        ["pins", "word", origin + ":" + "".join(letters)]
        for origin in ("12", "21")
        for m in range(3)
        for letters in itertools.product("LRUD", repeat=m)
    ]
    runs += [
        ["pins", "word", f"{origin}:{letters}"]
        for origin in ("12", "21")
        for letters in perpendicular_words()
    ]
    runs += [
        ["inflate", text, *DECOMPOSED[: len(text)]] for text in short if len(text) <= 3
    ]
    runs.append(["inflate", "21", "1"])
    return runs + [["--json", *argv] for argv in runs[::7]]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def worker(tree: str) -> None:
    """Run every invocation on ``<tree>/src`` and print their digests as JSON."""
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    os.environ.pop("PERMWREATH_STORE", None)
    import permwreath
    from permwreath import cli

    found = Path(permwreath.__file__).resolve().parent
    if found != src / "permwreath":
        sys.exit(f"imported permwreath from {found}, not from {src}")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, argv in enumerate(invocations()):
            store = None
            if "basis" in argv:
                store = Path(tmp) / f"store-{index}.jsonl"
                argv_run = ["--store", str(store), *argv]
            else:
                argv_run = argv
            result = cli.execute(argv_run)
            stored = store.read_bytes() if store and store.exists() else b""
            out = _digest(result.stdout.encode())
            records.append([argv, result.exit_code, out, _digest(stored)])
    json.dump(records, sys.stdout)


def digests(tree: str) -> list[list]:
    """The digest records of ``tree``, from one subprocess."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import same_output; "
    code += f"same_output.worker({str(tree)!r})"
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True
    )
    if run.returncode:
        raise RuntimeError(f"{tree}: {run.stderr.strip()}")
    return json.loads(run.stdout)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_output.py PARENT CHANGE", file=sys.stderr)
        return 2
    try:
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(digests, args)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    for before, after in zip(parent, change):
        if before != after:
            print("differs:", json.dumps(before[0]))
            return 1
    if len(parent) != len(change):
        print(f"differs: {len(parent)} invocations against {len(change)}")
        return 1
    print(f"identical: {len(parent)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
