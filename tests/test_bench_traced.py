"""One traced benchmark pass per workload, checked in the test suite.

``perfbench/run.py`` is loaded by path, as ``test_catalogue_references.py``
loads ``workloads``, and ``run.traced_pass`` runs the seed-1 draw of each
workload under the per-layer tracer.  It raises ``BenchmarkError`` when a
``REQUIRED`` callable gets no call or a ``SEPARATION`` metric is not 0; a
hook that raises fails its item, and every item must also match its stored
reference.  The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from ergolab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIBLINGS = ("checks", "layers", "speed", "workloads")


@pytest.fixture(scope="module")
def run():
    """``perfbench/run.py`` as a module; it imports its siblings by plain name
    and pins the BLAS thread variables at import, so both are undone after."""
    environ = dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in SIBLINGS:
            sys.modules.pop(name, None)
        os.environ.clear()
        os.environ.update(environ)


@pytest.mark.parametrize("workload", ["gap-scan", "recurrence", "matrix"])
def test_traced_pass(run, tmp_path, workload):
    assert sorted(run.workloads.WORKLOADS) == ["gap-scan", "matrix", "recurrence"]
    items = run.workloads.draw(workload, 1)
    _, _, outcomes, metrics = run.traced_pass(cli, items, tmp_path, workload)
    raised = [(items[i][0], o) for i, o in enumerate(outcomes) if isinstance(o, str)]
    assert raised == []
    references = run.checks.load(run.REFERENCES / f"{workload}.json")
    assert run.check_pass(items, outcomes, references, tmp_path) == {}
    for name in run.SEPARATION[workload]:
        assert metrics[name] == 0
