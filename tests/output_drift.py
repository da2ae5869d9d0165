"""Report how two CLI output trees differ, file by file.

For two directories, such as the ``--out`` trees of one run made at two
commits, it prints each file that only one tree has and each file whose
bytes differ.  Under a changed CSV or JSON file it prints, for each CSV
column and each JSON leaf that differs, how many of its values differ and
the largest absolute and relative difference of the numeric ones; a list
of scalars in JSON is one leaf.  Run it from the repository root with

    python tests/output_drift.py OLD_DIR NEW_DIR

Two byte-identical trees print nothing.  ``test_output_digests.py`` says
whether the recorded outputs changed; this says where and by how much.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _files(root: Path) -> dict[str, Path]:
    return {path.relative_to(root).as_posix(): path
            for path in sorted(root.rglob("*")) if path.is_file()}


def _fields(path: Path) -> dict[str, list]:
    """{CSV column or JSON leaf: its values} of a file; other files have none."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = [*csv.reader(fh)] or [[]]
        return {name: [row[j] if j < len(row) else None for row in rows]
                for j, name in enumerate(header)}
    if path.suffix != ".json":
        return {}
    leaves = {}

    def walk(node, key):
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, f"{key}.{name}" if key else name)
        elif isinstance(node, list) and any(isinstance(v, (dict, list)) for v in node):
            for j, child in enumerate(node):
                walk(child, f"{key}[{j}]")
        else:
            leaves[key] = node if isinstance(node, list) else [node]

    walk(json.loads(path.read_text()), "")
    return leaves


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def _field_drift(old: list, new: list) -> str | None:
    """One line on how the values of one field differ, None when they do not."""
    pairs = [(a, b) for a, b in zip(old, new) if a != b]
    if not pairs and len(old) == len(new):
        return None
    numeric = [(x, y) for x, y in ((_number(a), _number(b)) for a, b in pairs)
               if x is not None and y is not None]
    line = f"{len(pairs)} of {min(len(old), len(new))} values differ"
    if numeric:
        gaps = [abs(x - y) for x, y in numeric]
        rel = [gap / max(abs(x), abs(y)) if gap else 0.0 for gap, (x, y) in zip(gaps, numeric)]
        line += f", max abs {max(gaps):.3g}, max rel {max(rel):.3g}"
    if len(numeric) < len(pairs):
        line += f", {len(pairs) - len(numeric)} not numeric"
    if len(old) != len(new):
        line += f", {len(old)} -> {len(new)} values"
    return line


def report(old_root, new_root) -> list[str]:
    """The lines that describe how ``new_root`` differs from ``old_root``."""
    old, new = _files(Path(old_root)), _files(Path(new_root))
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"removed {name}")
        elif name not in old:
            lines.append(f"added {name}")
        elif old[name].read_bytes() != new[name].read_bytes():
            lines.append(f"changed {name}")
            before, after = _fields(old[name]), _fields(new[name])
            for key in [*before, *(k for k in after if k not in before)]:
                if key not in after or key not in before:
                    lines.append(f"  {key}: only in {'old' if key in before else 'new'}")
                elif (drift := _field_drift(before[key], after[key])) is not None:
                    lines.append(f"  {key}: {drift}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/output_drift.py OLD_DIR NEW_DIR")
    for line in report(*sys.argv[1:]):
        print(line)
