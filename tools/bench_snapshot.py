"""Record one point of the performance trajectory as ``BENCH_<tag>.json``.

    python3 tools/bench_snapshot.py <tag>

For each workload declared in ``BENCHMARK.json``, runs
``perfbench/run.py --workload <name> --seed 1 --seconds 30 --trace 1``
three times from the checkout this script belongs to, and keeps the
environment line and one result line (correctness and the per-layer
metrics).  Counts (units ``count``, ``byte`` and ``flop-computed``) repeat
exactly for a seed, so the runs must agree on them, and on correctness and
the item tally; every other metric (seconds and the rates and ratios taken
from them) is the median of the three runs, which keeps single-run noise out
of per-layer deltas.  The command is fixed so that every snapshot compares
with every other.  The file is written at the repository root.  Nothing
under ``perfbench/`` changes; a run that fails, or runs that disagree on a
count, stop the snapshot with an error.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = "environment "
FLAGS = ["--seed", "1", "--seconds", "30", "--trace", "1"]
RUNS = 3
COUNT_UNITS = ("count", "byte", "flop-computed")


def traced_run(workload: str) -> dict:
    """The environment and result of one traced perfbench run."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, *FLAGS]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    header = next(line for line in lines if line.startswith("# workload "))
    return {
        "environment": json.loads(header[header.index(ENVIRONMENT) + len(ENVIRONMENT):]),
        "result": json.loads(lines[-1]),
    }


def combine(workload: str, runs: list) -> dict:
    """One record from repeated runs: counts checked equal, the rest medians."""
    first = runs[0]["result"]
    for run in runs[1:]:
        for key in ("correct", "attempted", "failed"):
            if run["result"][key] != first[key]:
                raise RuntimeError(f"{workload}: runs disagree on {key}")
    metrics = {}
    for name, metric in first["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        if metric["unit"] in COUNT_UNITS:
            if len(set(values)) != 1:
                raise RuntimeError(f"{workload}: runs disagree on {name}: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"environment": runs[0]["environment"], "result": {**first, "metrics": metrics}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.tag):
        parser.error(f"tag {args.tag!r} must be letters, digits, '_', '.' or '-'")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    snapshot = {
        "tag": args.tag,
        "command": " ".join(["perfbench/run.py", *FLAGS]),
        "runs": RUNS,
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        try:
            snapshot["workloads"][workload] = combine(
                workload, [traced_run(workload) for _ in range(RUNS)]
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{workload}: correct {snapshot['workloads'][workload]['result']['correct']}")
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
