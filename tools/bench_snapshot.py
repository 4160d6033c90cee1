"""Record one point of the performance trajectory as ``BENCH_<tag>.json``.

    python3 tools/bench_snapshot.py <tag>

For each workload declared in ``BENCHMARK.json``, runs
``perfbench/run.py --workload <name> --seed 1 --seconds 30 --trace 1``
from the checkout this script belongs to, and keeps the run's environment
line and its result line (correctness and the per-layer metrics).  The
command is fixed so that every snapshot compares with every other.  The
file is written at the repository root.  Nothing under ``perfbench/`` changes;
a run that fails stops the snapshot with its error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = "environment "
FLAGS = ["--seed", "1", "--seconds", "30", "--trace", "1"]


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
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        try:
            snapshot["workloads"][workload] = traced_run(workload)
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
