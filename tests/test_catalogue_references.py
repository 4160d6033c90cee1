"""The benchmark's pinned joinings and section4 results, checked in the test suite.

Every ``joinings*`` and ``section4`` item of the ``matrix`` catalogue in
``perfbench/workloads.py`` runs through ``cli.run_experiment`` and is
compared with its stored reference in ``perfbench/references/matrix.json``
by ``perfbench/checks.py``: exact codes, verdicts and witness joinings, and
floats within the references' tolerance.  The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from ergolab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")

def _items(prefix: str):
    return [
        (item_id, config)
        for item_id, config in workloads.catalogue("matrix")
        if item_id.startswith(prefix)
    ]


JOININGS = _items("joinings")
# the plain check's closed form, and the loop inside its roundoff band
SECTION4 = _items("section4/")
REFERENCES = checks.load(PERFBENCH / "references" / "matrix.json")


def test_catalogue_has_joinings_items():
    assert len(JOININGS) == 22


def test_catalogue_has_section4_items():
    assert len(SECTION4) == 96


@pytest.mark.parametrize("item_id, config", JOININGS, ids=[item_id for item_id, _ in JOININGS])
def test_joinings_item_matches_reference(tmp_path, item_id, config):
    _check_item(tmp_path, item_id, config)


@pytest.mark.parametrize("item_id, config", SECTION4, ids=[item_id for item_id, _ in SECTION4])
def test_section4_item_matches_reference(tmp_path, item_id, config):
    _check_item(tmp_path, item_id, config)


def _check_item(tmp_path, item_id, config):
    code = cli.run_experiment(config, tmp_path, quiet=True)
    got = checks.summarize(tmp_path, config["experiment"], code)
    found = checks.difference(REFERENCES[item_id], got)
    assert found is None, found
