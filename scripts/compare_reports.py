#!/usr/bin/env python3
"""Count the values that differ between two resonance reports.

    python scripts/compare_reports.py OLD NEW

OLD and NEW are two JSON files written by `resonances`, or two
directories whose JSON files are then paired by name (a file that holds
no report, such as a sweep's manifest.json, is skipped).  For each zone
and each field (energy, residual, fwhm, level) the script prints how
many values changed and the largest |NEW - OLD| among them, inf where a
fwhm appeared or went to null, then the changed values and resonances
in total.  Exits 0 when nothing changed, 1 when some value did, and 2
when the two sides do not have the same files, zones or resonance counts.
"""

import argparse
import json
import math
import sys
from pathlib import Path

FIELDS = ("energy", "residual", "fwhm", "level")


def _read(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


def _pairs(old: Path, new: Path) -> list[tuple[dict, dict, Path]]:
    if not old.is_dir():
        return [(_read(old), _read(new), new)]
    names = sorted(p.name for p in old.glob("*.json"))
    other = sorted(p.name for p in new.glob("*.json"))
    if names != other:
        raise ValueError(f"the directories hold different JSON files: {names} and {other}")
    docs = [(_read(old / name), _read(new / name), new / name) for name in names]
    return [(a, b, path) for a, b, path in docs if "zones" in a or "zones" in b]


def _delta(x, y) -> float:
    if x is None or y is None:
        return math.inf
    return abs(y - x)


def compare(old: Path, new: Path) -> tuple[dict, int, int]:
    """({(zone, field): [changed, largest |delta|]}, changed resonances, resonances)."""
    table: dict[tuple[str, str], list] = {}
    changed_resonances = resonances = 0
    for a, b, path in _pairs(old, new):
        zones_a, zones_b = a.get("zones"), b.get("zones")
        if not isinstance(zones_a, list) or not isinstance(zones_b, list):
            raise ValueError(f"{path}: one side holds no zone list")
        if [z["name"] for z in zones_a] != [z["name"] for z in zones_b]:
            raise ValueError(f"{path}: the two sides hold different zones")
        for za, zb in zip(zones_a, zones_b):
            if len(za["resonances"]) != len(zb["resonances"]):
                raise ValueError(
                    f"{path}: zone {za['name']} holds {len(za['resonances'])} "
                    f"resonances on one side and {len(zb['resonances'])} on the other"
                )
            for ra, rb in zip(za["resonances"], zb["resonances"]):
                resonances += 1
                diff = [f for f in FIELDS if ra[f] != rb[f]]
                changed_resonances += bool(diff)
                for f in FIELDS:
                    entry = table.setdefault((za["name"], f), [0, 0.0])
                    if f in diff:
                        entry[0] += 1
                        entry[1] = max(entry[1], _delta(ra[f], rb[f]))
    return table, changed_resonances, resonances


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="resonance JSON file or directory")
    parser.add_argument("new", type=Path, help="resonance JSON file or directory")
    args = parser.parse_args(argv)
    if args.old.is_dir() != args.new.is_dir():
        print("error: compare two files or two directories", file=sys.stderr)
        return 2
    try:
        table, changed_resonances, resonances = compare(args.old, args.new)
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'zone':<14} {'field':<9} {'changed':>8} {'max |delta|':>12}")
    for (zone, field), (count, delta) in table.items():
        print(f"{zone:<14} {field:<9} {count:>8} {delta:>12.2e}")
    total = sum(count for count, _ in table.values())
    print(f"{total} values changed in {changed_resonances} of {resonances} resonances")
    return 1 if changed_resonances else 0


if __name__ == "__main__":
    sys.exit(main())
