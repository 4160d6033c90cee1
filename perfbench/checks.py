"""Reference results of workload items, and the comparison against them.

A summary of one item holds what must match exactly -- the exit code, the
pass flag, integers, strings, booleans, and the set of exact CSV cells (for
``gap-search`` the violation ``(times, state)`` set) as a digest -- and the
floats, which must match within ``REL_TOL`` / ``ABS_TOL``.  Float CSV
columns longer than ``LIST_LIMIT`` rows are kept as a few order-free
statistics instead of every value, which keeps the stored references small.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

REL_TOL = 1e-9
ABS_TOL = 1e-12
LIST_LIMIT = 32

# CSV columns that hold computed floats; every other column is an exact
# label, index or time and goes into the digest
FLOAT_COLUMNS = frozenset(
    {
        "re", "im", "abs", "magnitude", "error", "defect", "mean_re", "mean_im",
        "value", "max_defect", "tolerance", "difference_re", "difference_im",
        "projected_abs",
    }
)


def _column_stats(values) -> Dict[str, float]:
    return {
        "n": len(values),
        "sum": sum(values),
        "sumabs": sum(abs(v) for v in values),
        "sumsq": sum(v * v for v in values),
        "min": min(values),
        "max": max(values),
    }


def summarize(out_dir: Path, kind: str, code: int) -> Dict[str, Any]:
    """The comparable summary of the artifacts one item wrote."""
    summary = json.loads((out_dir / f"{kind}.json").read_text())
    with open(out_dir / f"{kind}.csv", newline="") as handle:
        header, *body = list(csv.reader(handle))
    exact = [i for i, name in enumerate(header) if name not in FLOAT_COLUMNS]
    keys = sorted("\t".join(row[i] for i in exact) for row in body)
    floats = {}
    for i, name in enumerate(header):
        if name in FLOAT_COLUMNS:
            values = [float(row[i]) for row in body]
            floats[name] = values if len(values) <= LIST_LIMIT else _column_stats(values)
    return {
        "code": code,
        "pass": summary["pass"],
        "results": summary["results"],
        "csv": {
            "header": header,
            "rows": len(body),
            "keys": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            "floats": floats,
        },
    }


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * scale


def difference(ref: Any, got: Any, path: str = "") -> Optional[str]:
    """Where ``got`` departs from ``ref``, or None when it matches."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return f"{path}: keys {sorted(set(ref) ^ set(got))} differ"
        skip = ()
        if "sumabs" in ref:
            # a column sum may cancel to near zero, so judge it on the scale
            # of the absolute values it sums
            if not _close(ref["sum"], got["sum"], max(ref["sumabs"], got["sumabs"])):
                return f"{path}.sum: {got['sum']!r} != {ref['sum']!r}"
            skip = ("sum",)
        for key in ref:
            if key in skip:
                continue
            found = difference(ref[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            found = difference(r, g, f"{path}[{i}]")
            if found:
                return found
        return None
    numbers = (int, float)
    if (
        isinstance(ref, numbers) and isinstance(got, numbers)
        and not isinstance(ref, bool) and not isinstance(got, bool)
        and (isinstance(ref, float) or isinstance(got, float))
    ):
        if _close(ref, got, max(abs(ref), abs(got))):
            return None
        return f"{path}: {got!r} != {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != {ref!r}"
    return None


def load(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())["items"]


def dump(path: Path, items: Dict[str, Any]) -> None:
    """One item per line, so that a regenerated file diffs item by item."""
    lines = [
        f"  {json.dumps(item_id)}: {json.dumps(items[item_id], sort_keys=True)}"
        for item_id in sorted(items)
    ]
    tolerance = json.dumps({"relative": REL_TOL, "absolute": ABS_TOL})
    path.write_text(
        f'{{"tolerance": {tolerance},\n "items": {{\n' + ",\n".join(lines) + "\n}}\n"
    )
