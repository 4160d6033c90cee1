"""Smoke tests of the comparison tools under ``tools/``.

``tools/artifact_digest.py`` is what every byte-identity claim rests on: two
runs of one catalogue item must digest alike, and ``diff`` must name exactly
the ids that moved.  ``tools/bench_pairs.py`` is checked on its summary and its
cap on the pair count, without starting a benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from ergolab import cli

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the digest tool pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


artifact_digest = _load(TOOLS / "artifact_digest.py")
bench_pairs = _load(TOOLS / "bench_pairs.py")
workloads = _load(ROOT / "perfbench" / "workloads.py")


def _run_tool(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / name), *args], capture_output=True, text=True, cwd=ROOT
    )


class TestArtifactDigest:
    ITEMS = ("recurrence", "furstenberg-o1/0"), ("matrix", "section4/0")

    def test_item_digest_repeats(self, tmp_path):
        digests = []
        for workload, item_id in self.ITEMS:
            config = dict(workloads.catalogue(workload))[item_id]
            twice = {
                artifact_digest.item_digest(cli, config, tmp_path / run / workload)
                for run in ("a", "b")
            }
            assert len(twice) == 1, item_id
            digests.append(twice.pop())
        assert digests[0] != digests[1]

    def _write(self, tmp_path, name, digests):
        path = tmp_path / name
        path.write_text(json.dumps(digests))
        return str(path)

    def test_diff_of_equal_files_prints_nothing(self, tmp_path):
        digests = {"recurrence/a": "1", "matrix/b": "2"}
        before = self._write(tmp_path, "before.json", digests)
        after = self._write(tmp_path, "after.json", dict(digests))
        proc = _run_tool("artifact_digest.py", "diff", before, after)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    @pytest.mark.parametrize(
        "after, moved",
        [
            ({"x": "1", "y": "9", "z": "3"}, "y"),  # a digest changed
            ({"x": "1", "y": "2"}, "z"),  # an id only before
            ({"x": "1", "y": "2", "z": "3", "w": "4"}, "w"),  # an id only after
        ],
    )
    def test_diff_prints_exactly_the_moved_id(self, tmp_path, after, moved):
        before = self._write(tmp_path, "before.json", {"x": "1", "y": "2", "z": "3"})
        after = self._write(tmp_path, "after.json", after)
        proc = _run_tool("artifact_digest.py", "diff", before, after)
        assert (proc.returncode, proc.stdout) == (1, moved + "\n")


class TestBenchPairs:
    def test_summary_medians_quartiles_and_pairs_lower(self):
        runs = {
            "parent": [{"wall_s": v, "setup_s": 1.0} for v in (0.10, 0.12, 0.11, 0.13, 0.14)],
            "change": [{"wall_s": v, "setup_s": 1.0} for v in (0.09, 0.11, 0.12, 0.10, 0.11)],
        }
        wall, setup = bench_pairs.summary(runs)
        assert wall.split() == [
            "wall_s", "0.12", "[0.11,", "0.13]", "->", "0.11", "[0.1,", "0.11]",
            "(-8.3", "%,", "lower", "in", "4", "of", "5)",
        ]
        assert setup.endswith("(+0.0 %, lower in 0 of 5)")

    def test_one_pair_has_its_value_as_quartiles(self):
        assert bench_pairs.spread([0.5]) == "0.5 [0.5, 0.5]"

    @pytest.mark.parametrize("pairs", ["0", "31"])
    def test_pair_count_is_capped_before_any_run(self, tmp_path, pairs):
        proc = _run_tool(
            "bench_pairs.py", str(tmp_path), str(tmp_path), "--workload", "matrix",
            "--pairs", pairs,
        )
        assert proc.returncode == 2
        assert "--pairs must be between 1 and 30" in proc.stderr
