#!/usr/bin/env python3
"""Count the cells that differ between two curve CSV files.

    python scripts/compare_curves.py OLD NEW

OLD and NEW are two CSV files written by `transmission`, or two `sweep`
output directories, whose CSV files are then paired by name.  For each
column the script prints how many cells changed (as text) and the
largest |NEW - OLD| among them, then the changed rows and cells in
total.  Exits 0 when nothing changed, 1 when some cell did, and 2 when
the two sides do not have the same files, headers or row counts.
"""

import argparse
import csv
import sys
from pathlib import Path


def _read(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _pairs(old: Path, new: Path) -> list[tuple[Path, Path]]:
    if not old.is_dir():
        return [(old, new)]
    names = sorted(p.name for p in old.glob("*.csv"))
    other = sorted(p.name for p in new.glob("*.csv"))
    if names != other:
        raise ValueError(f"the directories hold different CSV files: {names} and {other}")
    return [(old / name, new / name) for name in names]


def compare(old: Path, new: Path) -> tuple[list[str], list[int], list[float], int, int]:
    """(header, changed cells per column, largest |delta| per column, changed rows, rows)."""
    header: list[str] = []
    changed: list[int] = []
    largest: list[float] = []
    rows_changed = rows = 0
    for a_path, b_path in _pairs(old, new):
        a, b = _read(a_path), _read(b_path)
        if not a or not b or a[0] != b[0] or len(a) != len(b):
            raise ValueError(f"{a_path} and {b_path} differ in header or row count")
        if not header:
            header = a[0]
            changed = [0] * len(header)
            largest = [0.0] * len(header)
        elif a[0] != header:
            raise ValueError(f"{a_path} has header {a[0]}, expected {header}")
        for row_a, row_b in zip(a[1:], b[1:]):
            rows += 1
            diff = [j for j, (x, y) in enumerate(zip(row_a, row_b)) if x != y]
            rows_changed += bool(diff)
            for j in diff:
                changed[j] += 1
                largest[j] = max(largest[j], abs(float(row_b[j]) - float(row_a[j])))
    return header, changed, largest, rows_changed, rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="CSV file or sweep directory")
    parser.add_argument("new", type=Path, help="CSV file or sweep directory")
    args = parser.parse_args(argv)
    if args.old.is_dir() != args.new.is_dir():
        print("error: compare two files or two directories", file=sys.stderr)
        return 2
    try:
        header, changed, largest, rows_changed, rows = compare(args.old, args.new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'column':<8} {'changed':>8} {'max |delta|':>12}")
    for name, count, delta in zip(header, changed, largest):
        print(f"{name:<8} {count:>8} {delta:>12.2e}")
    print(f"{sum(changed)} cells changed in {rows_changed} of {rows} rows")
    return 1 if rows_changed else 0


if __name__ == "__main__":
    sys.exit(main())
