"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_pairs.py <parent-root> <change-root> --workload W --pairs N

Each pair runs ``perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0``
once from each checkout, in that checkout's directory, one subprocess at a
time; the side that goes first alternates from pair to pair (the parent goes
first in the first pair), so that a drift of the host falls on both sides
alike.  N is at most 30.  For each end-to-end metric the script prints the
median [lower quartile, upper quartile] of the parent's runs, the same of the
change's, the relative change of the medians, and in how many of the N pairs
the change's run read lower than the parent's.  A run that exits nonzero or
is not ``correct: true`` with 0 failed stops the comparison with an error.
Nothing under ``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

FLAGS = ["--seed", "1", "--seconds", "30", "--trace", "0"]
MAX_PAIRS = 30
SIDES = ("parent", "change")


def run_once(root: Path, workload: str) -> Dict[str, float]:
    """The end-to-end metrics of one untraced perfbench run from ``root``."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, *FLAGS]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=root)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: {result['failed']} of {result['attempted']} failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: Sequence[float]) -> str:
    """``median [lower quartile, upper quartile]`` of the values."""
    low, mid, high = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return f"{mid:.6g} [{low:.6g}, {high:.6g}]"


def summary(runs: Dict[str, List[Dict[str, float]]]) -> List[str]:
    """One line per metric: parent → change, the relative change of the
    medians, and in how many pairs the change read lower."""
    lines = []
    pairs = len(runs["parent"])
    for name in runs["parent"][0]:
        before, after = ([run[name] for run in runs[side]] for side in SIDES)
        lower = sum(b < a for a, b in zip(before, after))
        old, new = statistics.median(before), statistics.median(after)
        change = f"{100 * (new - old) / old:+.1f} %" if old else "n/a"
        lines.append(
            f"{name:<12} {spread(before)} -> {spread(after)}  "
            f"({change}, lower in {lower} of {pairs})"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    args = parser.parse_args()
    if not 1 <= args.pairs <= MAX_PAIRS:
        parser.error(f"--pairs must be between 1 and {MAX_PAIRS}")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: no perfbench/run.py under {root}")
    runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            try:
                runs[side].append(run_once(roots[side], args.workload))
            except RuntimeError as exc:
                print(f"error: pair {pair + 1}, {side}: {exc}", file=sys.stderr)
                return 1
        walls = ", ".join(f"{side} {runs[side][-1]['wall_s']:.4f}" for side in order)
        print(f"# pair {pair + 1}: wall_s {walls}", flush=True)
    print(f"{args.workload}, {args.pairs} alternating pairs, median [quartiles] parent -> change:")
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
