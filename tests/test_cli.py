import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab.cli import ConfigError, list_experiments, run_experiment

# The child runs in tmp_path, where a relative PYTHONPATH such as "src" points
# at nothing, so it is handed the directory that holds the package imported here.
PACKAGE_ROOT = str(Path(ergolab.__file__).resolve().parent.parent)

ALPHABET = {"families": [{"name": "s", "kind": "shift"}, {"name": "c", "kind": "cycle", "length": 3}]}
UNIT = [{"word": "", "re": 1.0}]
SHIFT_UNITARY = [{"word": "s[0]", "re": 1.0}]


def term(word, re=1.0, im=0.0):
    return {"word": word, "re": re, "im": im}


def base_configs():
    """One fast, passing config per experiment kind."""
    return {
        "mean-ergodic": {
            "experiment": "mean-ergodic",
            "flow": {"kind": "continuous", "generator": [[0.0, 0.0], [0.0, 1.0]]},
            "vector": [1.0, 1.0],
            "scheme": {"family": "uniform"},
            "indices": [50, 200],
            "tolerance": 0.05,
        },
        "folner-defect": {
            "experiment": "folner-defect",
            "scheme": {"family": "power", "exponent": 1.0, "domain": "continuous"},
            "shift": 1.0,
            "indices": [100, 400],
        },
        "mixing-decay": {
            "experiment": "mixing-decay",
            "alphabet": ALPHABET,
            "operator": SHIFT_UNITARY,
            "state": {
                "kind": "vector",
                "amplitudes": [term(""), term("s[5]")],
                "normalize": True,
            },
            "n_max": 40,
        },
        "multitime": {
            "experiment": "multitime",
            "alphabet": ALPHABET,
            "state": {"kind": "trace"},
            "operators": [SHIFT_UNITARY, [term("s[0]^-1")]],
            "times": [3, 3],
            "permutation": [1, 0],
        },
        "gap-search": {
            "experiment": "gap-search",
            "alphabet": ALPHABET,
            "operators": [SHIFT_UNITARY, [term("s[0]^-1")]],
            "states": [
                {"kind": "trace"},
                {"kind": "vector", "amplitudes": [term(""), term("s[3]")], "normalize": True},
            ],
            "scan_window": 10,
            "gap_max": 10,
        },
        "furstenberg": {
            "experiment": "furstenberg",
            "alphabet": ALPHABET,
            "factor": [term(""), term("s[0]")],
            "order": 2,
            "sweep": 60,
        },
        "bergelson": {
            "experiment": "bergelson",
            "alphabet": ALPHABET,
            "operators": [UNIT, SHIFT_UNITARY, UNIT, UNIT],
            "m_base": 0,
            "n_base": 0,
            "count": 6,
            "equality_tolerance": 1e-12,
        },
        "section4": {"experiment": "section4", "p": 0.5, "sweep": 2000},
        "tensor": {
            "experiment": "tensor",
            "left": {"type": "section4", "p": 0.5, "projection": "EL"},
            "right": {"type": "section4", "p": 0.5, "projection": "EL"},
            "check": "weak-mixing",
            "sweep": 200,
            "tolerance": 1e-10,
        },
        "thm215": {
            "experiment": "thm215",
            "transition": [
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
            "sweep": 2000,
        },
        "joinings": {
            "experiment": "joinings",
            "left": {"permutation": [1, 0], "measure": ["1/2", "1/2"]},
            "right": {"permutation": [1, 2, 0], "measure": ["1/3", "1/3", "1/3"]},
            "couplings": [[["1/3", "1/6", "0"], ["0", "1/6", "1/3"]]],
            "scheme": {"family": "uniform"},
            "sweep": 6,
            "expect": {"disjoint": True},
        },
    }


def run_cli(args, cwd):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "ergolab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def assert_cli_error(proc):
    """The CLI's contract for a bad config: exit 1, an ``error:`` line, no traceback."""
    assert proc.returncode == 1, proc.stderr + proc.stdout
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


class TestList:
    def test_lists_eleven_kinds(self, tmp_path):
        proc = run_cli(["list"], tmp_path)
        assert proc.returncode == 0
        kinds = [
            line.split()[0]
            for line in proc.stdout.splitlines()
            if line and not line.startswith(" ")
        ]
        assert len(kinds) == 11
        assert set(kinds) == set(base_configs())

    def test_json_schema(self, tmp_path):
        proc = run_cli(["list", "--json"], tmp_path)
        schema = json.loads(proc.stdout)
        assert set(schema) == set(base_configs())
        for entry in schema.values():
            assert "required" in entry and "optional" in entry


@pytest.mark.parametrize("kind", sorted(base_configs()))
class TestEveryKind:
    def test_runs_and_is_deterministic(self, kind, tmp_path):
        config = base_configs()[kind]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            csv_bytes = (out / f"{kind}.csv").read_bytes()
            json_bytes = (out / f"{kind}.json").read_bytes()
            outputs.append((csv_bytes, json_bytes))
            summary = json.loads(json_bytes)
            assert summary["experiment"] == kind
            assert summary["pass"] is True
        assert outputs[0] == outputs[1]

    def test_unknown_field_rejected(self, kind, tmp_path):
        config = dict(base_configs()[kind])
        config["bogus_field"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(["run", str(path)], tmp_path)
        assert proc.returncode == 1
        assert "bogus_field" in proc.stderr

    def test_expectation_failure_exits_two(self, kind, tmp_path):
        config = dict(base_configs()[kind])
        config["expect"] = {"no_such_result_key": 1.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
        assert proc.returncode == 2
        summary = json.loads((out / f"{kind}.json").read_text())
        assert summary["pass"] is False
        assert summary["results"]["expect_failures"]


class TestErrorPaths:
    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "nonsense"}))
        proc = run_cli(["run", str(path)], tmp_path)
        assert proc.returncode == 1
        for kind in base_configs():
            assert kind in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_cli(["run", str(tmp_path / "absent.json")], tmp_path)
        assert_cli_error(proc)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        proc = run_cli(["run", str(path)], tmp_path)
        assert_cli_error(proc)

    @pytest.mark.parametrize(
        "flow, vector",
        [
            ({"kind": "continuous", "generator": [[0.0, 1.0], [0.0, 0.0]]}, [1.0, 0.0]),
            ({"kind": "discrete", "matrix": [[2.0, 0.0], [0.0, 1.0]]}, [1.0, 0.0]),
            ({"kind": "continuous", "generator": [[0.0, 0.0], [0.0, 1.0]]}, [1.0, 0.0, 1.0]),
        ],
        ids=["non-hermitian-generator", "non-contraction", "vector-length"],
    )
    def test_mean_ergodic_domain_errors(self, tmp_path, flow, vector):
        config = dict(base_configs()["mean-ergodic"], flow=flow, vector=vector)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], tmp_path)
        assert_cli_error(proc)

    def test_config_error_in_process(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "mean-ergodic"}, Path("/tmp"))


class TestContracts:
    def test_section4_summary_keys(self, tmp_path):
        config = base_configs()["section4"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
        assert proc.returncode == 0
        results = json.loads((out / "section4.json").read_text())["results"]
        assert results["weak_mixing_EL"] is True
        assert results["weak_mixing_Efix"] is False

    def test_furstenberg_average_is_eight(self, tmp_path):
        config = base_configs()["furstenberg"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
        assert proc.returncode == 0
        results = json.loads((out / "furstenberg.json").read_text())["results"]
        assert results["average"] == 8.0
        assert results["comparison"] == 8.0

    def test_mean_ergodic_zero_generator_error_column(self, tmp_path):
        config = {
            "experiment": "mean-ergodic",
            "flow": {"kind": "continuous", "generator": [[0.0, 0.0], [0.0, 0.0]]},
            "vector": [1.0, -1.0],
            "scheme": {"family": "uniform"},
            "indices": [10, 20, 40],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
        assert proc.returncode == 0
        rows = (out / "mean-ergodic.csv").read_text().splitlines()
        assert rows[0] == "N,scheme,error"
        assert all(row.split(",")[2] == "0" for row in rows[1:])

    def test_csv_uses_crlf(self, tmp_path):
        config = base_configs()["folner-defect"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        raw = (out / "folner-defect.csv").read_bytes()
        assert b"\r\n" in raw

    def test_gap_search_threshold_reported(self, tmp_path):
        config = base_configs()["gap-search"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
        assert proc.returncode == 0
        results = json.loads((out / "gap-search.json").read_text())["results"]
        assert results["threshold"] is not None
