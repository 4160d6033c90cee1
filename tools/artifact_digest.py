"""Digest the outputs of every benchmark catalogue item, to compare two trees.

    python3 tools/artifact_digest.py <src> <out.json>

Imports ``ergolab`` from the ``<src>`` directory given (``src`` of this
checkout, or of another one), runs every pool item of the three catalogues
in ``perfbench/workloads.py`` through ``ergolab.cli.run_experiment`` and
writes, per item id, the sha256 of its exit code (1 and the message for a
refused config) and of each artifact's name and bytes.  Two trees give
identical outputs on the catalogues exactly when their files compare equal:

    python3 tools/artifact_digest.py ../parent/src /tmp/parent.json
    python3 tools/artifact_digest.py src /tmp/change.json
    python3 tools/artifact_digest.py diff /tmp/parent.json /tmp/change.json

The ``diff`` form prints, one a line, the item ids whose digests differ (an
id found in only one file counts as differing) and exits 1 if there is any.

BLAS is pinned to one thread, as in the benchmark, so that float results do
not depend on the thread count.
"""

from __future__ import annotations

import os

# numpy links a threaded BLAS; pin it before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def item_digest(cli, config, out_dir: Path) -> str:
    """sha256 of one item's exit code and artifacts."""
    digest = hashlib.sha256()
    try:
        code = cli.run_experiment(config, out_dir, quiet=True)
    except cli.ConfigError as exc:
        code = f"1 {exc}"
    digest.update(f"exit {code}\n".encode())
    for path in sorted(out_dir.iterdir()) if out_dir.exists() else ():
        digest.update(f"{path.name} {path.stat().st_size}\n".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def diff(before: Path, after: Path) -> int:
    """Print the item ids whose digests differ between two digest files."""
    a, b = (json.loads(path.read_text()) for path in (before, after))
    moved = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
    for key in moved:
        print(key)
    return 1 if moved else 0


def main() -> int:
    if sys.argv[1:2] == ["diff"]:
        parser = argparse.ArgumentParser(description="item ids whose digests differ")
        parser.add_argument("before", type=Path)
        parser.add_argument("after", type=Path)
        args = parser.parse_args(sys.argv[2:])
        return diff(args.before, args.after)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the ergolab package")
    parser.add_argument("out", type=Path, help="JSON file to write the digests to")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "ergolab" / "__init__.py").is_file():
        parser.error(f"no ergolab package under {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import ergolab.cli as cli
    import workloads

    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads.WORKLOADS:
            items = workloads.catalogue(workload)
            for item_id, config in items:
                key = f"{workload}/{item_id}"
                digests[key] = item_digest(cli, config, Path(scratch) / key)
            print(f"{workload}: {len(items)} items")
    args.out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
