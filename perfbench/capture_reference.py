"""Capture the reference answers the benchmark checks its outputs against.

Run from the repository root, on the commit whose answers are trusted::

    python3 perfbench/capture_reference.py

It rewrites ``perfbench/reference.json`` with, for each size in
``workloads.SIZES``, the basis of av(25134) wr av(321) up to the scan
length and the words that survive ``pin_probe(av(321), cap)``.
"""

import json

from workloads import BASIS_X, BASIS_Y, HERE, SIZES, load_permwreath


def main() -> None:
    pw = load_permwreath()
    x, y = pw.parse_class(BASIS_X), pw.parse_class(BASIS_Y)
    refs = {"scan": {}, "probe": {}}
    for size in SIZES.values():
        n, cap = size["max_len"], size["probe_cap"]
        refs["scan"][str(n)] = [list(r.perm) for r in pw.wreath_basis(x, y, n)]
        refs["probe"][str(cap)] = [str(w) for w in pw.pin_probe(y, cap).witnesses]
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
