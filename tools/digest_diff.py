#!/usr/bin/env python3
"""Diff two perfbench digests, cell by cell.

A perfbench run writes ``.bench_build/perfbench/out/<workload>-seed<N>-digest.json``:
one entry per benchmark cell with its exact counts and modeled times.  Two
checkouts run at the same seed should produce equal digests unless the
change under test moved a count, so this tool prints

* every per-cell field whose value differs (``cell: field old -> new``),
* every cell present in only one of the two digests, and
* any differing top-level field (workload, seed, ...),

and exits 1 when it printed any of those, 0 when the digests agree, 2 on a
usage or input error.  ``queries`` (the number of timed samples in the run's
window) follows host speed rather than the code, so it is ignored by
default; ``--strict`` compares every field, ``queries`` included.

    python3 tools/digest_diff.py old-digest.json new-digest.json
    python3 tools/digest_diff.py --self-test
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_IGNORED = ("queries",)


def keyed_cells(digest: dict) -> dict:
    """Cells by name; a name may appear only once."""
    out = {}
    for cell in digest.get("cells", []):
        name = str(cell.get("cell"))
        if name in out:
            raise ValueError(f"cell {name!r} appears twice")
        out[name] = cell
    return out


def fmt(value) -> str:
    return "(absent)" if value is None else json.dumps(value)


def diff_digests(old: dict, new: dict, ignored=DEFAULT_IGNORED) -> list:
    """Lines describing every difference between two digests."""
    lines = []
    for field in sorted((set(old) | set(new)) - {"cells"} - set(ignored)):
        if old.get(field) != new.get(field):
            lines.append(f"digest: {field} {fmt(old.get(field))} -> "
                         f"{fmt(new.get(field))}")
    a, b = keyed_cells(old), keyed_cells(new)
    for name in a:
        if name not in b:
            lines.append(f"only in old: {name}")
            continue
        fields = list(a[name]) + [f for f in b[name] if f not in a[name]]
        for field in fields:
            if field == "cell" or field in ignored:
                continue
            va, vb = a[name].get(field), b[name].get(field)
            if va != vb:
                lines.append(f"{name}: {field} {fmt(va)} -> {fmt(vb)}")
    for name in b:
        if name not in a:
            lines.append(f"only in new: {name}")
    return lines


def self_test() -> int:
    old = {"workload": "w", "seed": 1, "cells": [
        {"cell": "a", "algo": "air", "modeled_us": 10.5, "queries": 40},
        {"cell": "b", "algo": "grid", "modeled_us": 3.0, "queries": 41},
        {"cell": "gone", "modeled_us": 1.0, "queries": 1},
    ]}
    new = {"workload": "w", "seed": 1, "cells": [
        {"cell": "a", "algo": "air", "modeled_us": 10.5, "queries": 77},
        {"cell": "b", "algo": "grid", "modeled_us": 2.5, "queries": 41,
         "output_us": 0},
        {"cell": "added", "modeled_us": 1.0, "queries": 1},
    ]}
    checks = [
        (diff_digests(old, old), []),
        (diff_digests(old, new), [
            "b: modeled_us 3.0 -> 2.5",
            "b: output_us (absent) -> 0",
            "only in old: gone",
            "only in new: added",
        ]),
        (diff_digests(old, new, ignored=()), [
            "a: queries 40 -> 77",
            "b: modeled_us 3.0 -> 2.5",
            "b: output_us (absent) -> 0",
            "only in old: gone",
            "only in new: added",
        ]),
        (diff_digests(old, new, ignored=("queries", "modeled_us",
                                         "output_us")),
         ["only in old: gone", "only in new: added"]),
        (diff_digests(dict(old, seed=2), old), ["digest: seed 2 -> 1"]),
        # Integers and floats of equal value agree.
        (diff_digests({"cells": [{"cell": "x", "v": 8}]},
                      {"cells": [{"cell": "x", "v": 8.0}]}), []),
    ]
    for i, (got, want) in enumerate(checks):
        if got != want:
            print(f"digest_diff self-test {i} failed:\n  got  {got}\n"
                  f"  want {want}", file=sys.stderr)
            return 1
    try:
        keyed_cells({"cells": [{"cell": "x"}, {"cell": "x"}]})
        print("digest_diff self-test: a repeated cell name was accepted",
              file=sys.stderr)
        return 1
    except ValueError:
        pass
    print(f"digest_diff self-test: {len(checks) + 1} checks passed")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Diff two perfbench digests cell by cell.")
    ap.add_argument("old", nargs="?", help="digest of the baseline run")
    ap.add_argument("new", nargs="?", help="digest of the changed run")
    ap.add_argument("--strict", action="store_true",
                    help="compare every field, queries included")
    ap.add_argument("--self-test", action="store_true",
                    help="check the tool against embedded samples")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        ap.print_usage(sys.stderr)
        return 2
    ignored = () if args.strict else DEFAULT_IGNORED
    try:
        with open(args.old) as f:
            old = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
        lines = diff_digests(old, new, ignored)
    except (OSError, ValueError) as e:
        print(f"digest_diff: {e}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    compared = len(set(keyed_cells(old)) & set(keyed_cells(new)))
    print(f"{compared} cells compared, {len(lines)} differences"
          + (f" (ignoring {', '.join(ignored)})" if ignored else ""))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
