"""Regenerate the stored reference results from the package in this checkout.

    python3 perfbench/make_references.py [workload ...]

Runs every catalogue item of each named workload (default: all) once and
writes ``references/<workload>.json``.  Do this only in a change that
redefines the benchmark; a change that claims a gain runs against the
references as they stand.
"""

from __future__ import annotations

import os
import shutil
import sys

import checks
import run
import workloads


def main(names) -> int:
    cli = run.import_package()
    for workload in names or sorted(workloads.WORKLOADS):
        work = run.HERE / ".work" / f"references-{workload}-{os.getpid()}"
        try:
            items = {}
            for item_id, config in workloads.catalogue(workload):
                out = work / item_id
                # an item that raises has no reference: the catalogue is wrong
                code = cli.run_experiment(config, out, quiet=True)
                items[item_id] = checks.summarize(out, config["experiment"], code)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        checks.dump(run.REFERENCES / f"{workload}.json", items)
        print(f"{workload}: {len(items)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
