import builtins
import copy
import csv
import importlib.util
import io
import json
import math
import os
import stat
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergolab
from ergolab import cli
from ergolab.cli import ConfigError, _json_text, list_experiments, run_experiment
from ergolab.mixing import DoubleAverage, RecurrenceAverage

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


# joinings of two rotations, with no couplings
ROTATIONS = {
    "experiment": "joinings",
    "left": {"permutation": [1, 0], "measure": ["1/2", "1/2"]},
    "right": {"permutation": [1, 2, 0], "measure": ["1/3", "1/3", "1/3"]},
}
MIXTURE = {"kind": "mixture", "components": [{"weight": 1.0, "amplitudes": [term("")]}]}
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
ONE_STATE = {"type": "matrix", "transition": [[1.0]], "idempotent": [[1.0]], "functionals": [[1.0]]}

# values of the wrong type or range for almost any field
BAD_VALUES = ["x", "", None, True, 0, -1, 1.5, 5, [], [5], [["a", 1]], {}, {"a": 1}]
REMOVED = object()


def field_paths(obj, path=()):
    """The path of every dict key and list position inside a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def with_field(obj, path, value):
    """A copy of ``obj`` with the field at ``path`` set to ``value`` or removed."""
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def cli_env():
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return env


def run_cli(args, cwd, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ergolab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=timeout,
    )


# Runs a command under a time limit, then writes the command's peak RSS in KiB
# as the last line of stderr.  The command is started from this fresh
# interpreter because a child's ru_maxrss starts at the RSS of the process that
# spawned it, and the test process is large.
PEAK_PROBE = (
    "import resource, subprocess, sys; "
    "code = subprocess.call(sys.argv[2:], timeout=float(sys.argv[1])); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr); "
    "sys.exit(code)"
)


def run_cli_measured(args, cwd, timeout):
    """``run_cli``, with the wall time in s and the CLI's peak RSS in MiB."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, str(timeout), sys.executable, "-m", "ergolab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=2 * timeout,
    )
    elapsed = time.perf_counter() - start
    head, newline, peak_kib = proc.stderr[:-1].rpartition("\n")
    proc.stderr = head + newline
    return proc, elapsed, int(peak_kib) / 1024


def run_main(args, cwd):
    """``run_cli`` in this process: ``cli.main`` in the working directory ``cwd``,
    with stdout and stderr captured and each warning written to stderr as a
    child prints it.  argparse's ``SystemExit`` gives the exit code; any other
    exception escapes ``main`` and fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    home = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = show
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(["ergolab", *args], code, out.getvalue(), err.getvalue())


def run_config(config, cwd, *options, timeout=None):
    """Write ``config`` to ``cwd/config.json`` and run it with ``options``: in
    this process, or in a child killed after ``timeout`` s, so that a regressed
    work cap fails the test instead of hanging it or exhausting its memory."""
    path = cwd / "config.json"
    path.write_text(json.dumps(config))
    args = ["run", str(path), *options]
    return run_main(args, cwd) if timeout is None else run_cli(args, cwd, timeout)


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded from its file: the benchmark's catalogues."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def assert_cli_error(proc):
    """The CLI's contract for a bad config: exit 1, an ``error:`` line, no traceback."""
    assert proc.returncode == 1, proc.stderr + proc.stdout
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


class TestHarness:
    @pytest.mark.parametrize(
        "config, code",
        [
            (base_configs()["folner-defect"], 0),
            (dict(ROTATIONS, expect={"disjoint": False}), 2),
            (dict(ROTATIONS, sweep=5), 1),
            (None, 2),  # no config path: argparse exits
        ],
        ids=["pass", "expectation-fails", "config-error", "usage"],
    )
    def test_in_process_run_matches_a_child(self, tmp_path, config, code):
        # run_main stands in for a child wherever the process is not the subject
        runs = []
        for name, harness in (("child", run_cli), ("main", run_main)):
            cwd = tmp_path / name
            cwd.mkdir()
            args = ["run"]
            if config is not None:
                (cwd / "config.json").write_text(json.dumps(config))
                args += ["config.json", "--out", "out"]
            proc = harness(args, cwd)
            files = {p.relative_to(cwd): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
            runs.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == code, runs[0]

    def test_run_main_writes_warnings_and_restores_the_directory(self, tmp_path, monkeypatch):
        def noisy_main(argv):
            warnings.warn("loud", RuntimeWarning)
            print("error: after the warning", file=sys.stderr)
            return 1

        monkeypatch.setattr(cli, "main", noisy_main)
        home = os.getcwd()
        proc = run_main(["run"], tmp_path)
        assert os.getcwd() == home
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert "RuntimeWarning: loud" in lines[0] and lines[-1] == "error: after the warning", lines


class TestList:
    def test_lists_eleven_kinds(self, tmp_path):
        proc = run_main(["list"], tmp_path)
        assert proc.returncode == 0
        kinds = [
            line.split()[0]
            for line in proc.stdout.splitlines()
            if line and not line.startswith(" ")
        ]
        assert len(kinds) == 11
        assert set(kinds) == set(base_configs())

    def test_json_schema(self, tmp_path):
        proc = run_main(["list", "--json"], tmp_path)
        schema = json.loads(proc.stdout)
        assert set(schema) == set(base_configs())
        for entry in schema.values():
            assert "required" in entry and "optional" in entry


WORD_LAYER_KINDS = ("mixing-decay", "multitime", "gap-search", "furstenberg", "bergelson")

# Runs each config named on its command line through cli.main, then ergolab
# list and list --json, and prints the exit codes and whether numpy is loaded;
# then runs the one matrix config given first, and prints the same again.
NUMPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from ergolab import cli

def report(*commands):
    with redirect_stdout(io.StringIO()):
        codes = [cli.main(command) for command in commands]
    print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))

matrix, *words = sys.argv[1:]
report(*(["run", path, "--out", "out", "--quiet"] for path in words), ["list"], ["list", "--json"])
report(["run", matrix, "--out", "out", "--quiet"])
"""


class TestStartup:
    def test_word_layer_runs_load_no_numpy(self, tmp_path):
        # one child runs a catalogue config of each word-layer kind, and then
        # one matrix config, so that the probe is seen to detect numpy
        workloads = perfbench_workloads()
        first = {}
        for workload in ("gap-scan", "recurrence", "matrix"):
            for _, config in workloads.catalogue(workload):
                first.setdefault(config["experiment"], config)
        paths = []
        for kind in ("tensor", *WORD_LAYER_KINDS):
            path = tmp_path / f"{kind}.config.json"
            path.write_text(json.dumps(first[kind]))
            paths.append(str(path))
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, *paths],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        words, matrix = map(json.loads, proc.stdout.splitlines())
        assert all(code in (0, 2) for code in words["codes"] + matrix["codes"]), proc.stdout
        assert words["numpy"] is False
        assert matrix["numpy"] is True
        for kind in WORD_LAYER_KINDS:
            assert (tmp_path / "out" / f"{kind}.json").is_file()


@pytest.mark.parametrize("kind", sorted(base_configs()))
class TestEveryKind:
    def test_runs_and_is_deterministic(self, kind, tmp_path):
        # the child hashes str with a fresh seed, this process with its own,
        # so set order can differ between the two runs (c12 runs two children)
        config = base_configs()[kind]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        outputs = []
        for run, harness in (("a", run_cli), ("b", run_main)):
            out = tmp_path / run
            proc = harness(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            csv_bytes = (out / f"{kind}.csv").read_bytes()
            json_bytes = (out / f"{kind}.json").read_bytes()
            outputs.append((csv_bytes, json_bytes))
            summary = json.loads(json_bytes)
            assert summary["experiment"] == kind
            assert summary["pass"] is True
        assert outputs[0] == outputs[1]

    def test_rerun_over_longer_stale_artifacts(self, kind, tmp_path):
        # artifacts are overwritten in place: a longer old file must be cut off
        config = base_configs()[kind]
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        run_experiment(config, fresh, quiet=True)
        stale.mkdir()
        for name in (f"{kind}.csv", f"{kind}.json"):
            size = (fresh / name).stat().st_size
            (stale / name).write_bytes(b"junk\n" * (size // 5 + 20))
        run_experiment(config, stale, quiet=True)
        for name in (f"{kind}.csv", f"{kind}.json"):
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()

    def test_unknown_field_rejected(self, kind, tmp_path):
        config = dict(base_configs()[kind])
        config["bogus_field"] = 1
        proc = run_config(config, tmp_path)
        assert proc.returncode == 1
        assert "bogus_field" in proc.stderr

    def test_expectation_failure_exits_two(self, kind, tmp_path):
        config = dict(base_configs()[kind])
        config["expect"] = {"no_such_result_key": 1.0}
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
        assert proc.returncode == 2
        summary = json.loads((out / f"{kind}.json").read_text())
        assert summary["pass"] is False
        assert summary["results"]["expect_failures"]


SIXTH = [[1 / 6] * 3] * 2
# a multitime value of (0.3 + 0.7i)(0.1 + 0.2i), which the JSON holds as
# {"re": -0.10999999999999999, "im": 0.13}
COMPLEX_VALUE = dict(
    base_configs()["multitime"],
    operators=[[term("s[0]", 0.3, 0.7)], [term("s[0]^-1", 0.1, 0.2)]],
)
# what each config's results hold, whatever its expect block
COMPUTED = {
    "joinings": {"unique_joining": SIXTH, "disjoint": True},
    "multitime": {"value": {"re": -0.10999999999999999, "im": 0.13}},
}


@pytest.mark.parametrize(
    "config, key, wanted, code",
    [
        (ROTATIONS, "unique_joining", SIXTH, 0),
        (ROTATIONS, "unique_joining", [[1 / 6 + 3e-16] * 3] * 2, 0),
        (ROTATIONS, "unique_joining", [[0.1] * 3] * 2, 2),
        (ROTATIONS, "unique_joining", [[1 / 6 + 1e-9] * 3] * 2, 2),
        (ROTATIONS, "unique_joining", SIXTH[:1], 2),
        (ROTATIONS, "unique_joining", [1 / 6] * 6, 2),
        (ROTATIONS, "disjoint", 1, 2),
        (COMPLEX_VALUE, "value", {"re": -0.11 + 1e-15, "im": 0.13}, 0),
        (COMPLEX_VALUE, "value", {"re": -0.11, "im": 0.13 + 1e-9}, 2),
        (COMPLEX_VALUE, "value", {"re": -0.11}, 2),
        (COMPLEX_VALUE, "value", -0.11, 2),
    ],
    ids=[
        "matching", "within-tolerance", "wrong", "off-by-1e-9", "short", "flat", "bool-against-1",
        "complex-within-1e-15", "complex-off-by-1e-9", "complex-missing-im", "number-against-complex",
    ],
)
def test_expectation_on_an_array_result(tmp_path, config, key, wanted, code):
    # an array result is compared as the JSON holds it, a list of lists, entry
    # by entry within the scalar tolerance, and a complex result, the object
    # {"re", "im"}, key by key; a bool matches only a bool
    kind = config["experiment"]
    config = dict(config, expect={key: wanted})
    out = tmp_path / "out"
    proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
    assert proc.returncode == code, proc.stderr + proc.stdout
    results = json.loads((out / f"{kind}.json").read_text())["results"]
    # as JSON text, so that 1 does not pass for true nor 1.0 for 1
    computed = {k: results[k] for k in COMPUTED[kind]}
    assert json.dumps(computed, sort_keys=True) == json.dumps(COMPUTED[kind], sort_keys=True)
    failures = [{"key": key, "wanted": wanted, "got": results[key]}]
    assert results.get("expect_failures") == (failures if code else None)


class TestErrorPaths:
    def test_unknown_kind(self, tmp_path):
        proc = run_config({"experiment": "nonsense"}, tmp_path)
        assert proc.returncode == 1
        for kind in base_configs():
            assert kind in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_main(["run", str(tmp_path / "absent.json")], tmp_path)
        assert_cli_error(proc)

    def test_out_is_a_file(self, tmp_path):
        (tmp_path / "taken").write_text("")
        proc = run_config(base_configs()["folner-defect"], tmp_path, "--out", str(tmp_path / "taken"))
        assert_cli_error(proc)
        assert proc.stderr.startswith("error: cannot write output:"), proc.stderr

    def test_artifact_is_a_directory(self, tmp_path):
        (tmp_path / "out" / "folner-defect.csv").mkdir(parents=True)
        proc = run_config(base_configs()["folner-defect"], tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)
        assert proc.stderr.startswith("error: cannot write output:"), proc.stderr

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        proc = run_main(["run", str(path)], tmp_path)
        assert_cli_error(proc)

    @pytest.mark.parametrize(
        "text",
        [
            # not UTF-8: the config is read as bytes, so the locale does not matter
            b'{"experiment": "\xff"}',
            # json.load refuses this depth whatever the stack
            b'{"experiment": "multitime", "expect": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["undecodable-bytes", "nested-past-the-decoder"],
    )
    def test_unreadable_config_text(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        proc = run_main(["run", str(path), "--out", str(tmp_path / "out")], tmp_path)
        assert_cli_error(proc)
        assert proc.stderr.startswith("error: config is not valid JSON: "), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_config_is_decoded_by_its_own_encoding(self, tmp_path):
        # UTF-16 is detected from the bytes, as RFC 8259 allows, not taken from the locale
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_configs()["multitime"]), encoding="utf-16")
        proc = run_main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "multitime.json").exists()

    def test_expectation_nested_past_the_writer(self, tmp_path):
        # parsed, but too deep for the JSON writer: refused like any value
        # that JSON cannot encode, before anything is written
        deep = 1.0
        for _ in range(5000):
            deep = [deep]
        config = dict(base_configs()["folner-defect"], expect={"no_such_result_key": deep})
        with pytest.raises(ConfigError, match="config: cannot be written as JSON: "):
            run_experiment(config, tmp_path / "out", quiet=True)
        assert not (tmp_path / "out").exists()

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
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)

    @pytest.mark.parametrize(
        "first_row",
        [[5.0, 0.5, 0.0, 0.0], [-1.0, 0.5, 0.0, 0.0], [1.5, -0.5, 0.0, 0.0]],
        ids=["overflowing-row", "negative-row-sum", "unital-negative-entry"],
    )
    def test_thm215_refuses_non_markov_transition(self, tmp_path, first_row):
        config = base_configs()["thm215"]
        config["transition"] = [first_row] + config["transition"][1:]
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)

    def test_thm215_refuses_complex_transition(self, tmp_path):
        # unital, with nonnegative real parts, but (0.5 + 0.5i, 0.5 - 0.5i)
        # is no row of a Markov matrix
        config = {
            "experiment": "thm215",
            "transition": [[[0.5, 0.5], [0.5, -0.5]], [0.0, 1.0]],
            "sweep": 500,
        }
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)

    def test_discrete_mean_refuses_fractional_index(self, tmp_path):
        # averaged at int(2.5) = 2, the row would read "2.5,uniform,0"
        config = dict(
            base_configs()["mean-ergodic"],
            flow={"kind": "discrete", "matrix": [[1.0, 0.0], [0.0, -1.0]]},
            indices=[2.5, 3],
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)
        assert proc.stderr == "error: a discrete index must be an integer, got 2.5\n"

    @pytest.mark.parametrize("shift", [0.5, 1.5])
    def test_discrete_folner_refuses_fractional_shift(self, tmp_path, shift):
        config = dict(
            base_configs()["folner-defect"],
            scheme={"family": "uniform", "domain": "discrete"},
            shift=shift,
            indices=[10, 20],
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)
        assert proc.stderr == f"error: a discrete shift must be an integer, got {shift:g}\n"

    @pytest.mark.parametrize(
        "domain, shift", [("continuous", 0), ("continuous", -1), ("discrete", 0), ("discrete", -2)]
    )
    def test_folner_refuses_non_positive_shift(self, tmp_path, domain, shift):
        # the sign check is folner_defect's; it reaches the user as a config error
        config = dict(
            base_configs()["folner-defect"],
            scheme={"family": "uniform", "domain": domain},
            shift=shift,
            indices=[10, 20],
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)
        assert proc.stderr == "error: shift must be positive\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["section4", "thm215", "tensor", "joinings"])
    def test_sweep_over_weight_cap(self, tmp_path, kind):
        # 10**12 weights would be 8 TB; the count is refused before any allocation
        config = dict(base_configs()[kind], sweep=10**12)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert "discrete weights exceed the cap" in proc.stderr

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("furstenberg", "sweep"),
            ("mixing-decay", "n_max"),
            ("bergelson", "count"),
            ("furstenberg", "order"),
        ],
    )
    def test_sequence_over_length_cap(self, tmp_path, kind, field):
        # 10**12 values (10**24 Bergelson cells) would be 16 TB; the length is
        # refused before any value
        config = dict(base_configs()[kind], **{field: 10**12})
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == f"error: {field} 1000000000000 exceeds the cap 1000000\n"

    def test_one_term_furstenberg_order_over_length_cap(self, tmp_path):
        # a one-term factor gives a one-term a, whose half product never
        # reaches its cap: the order alone must stop 10**12 factors
        config = dict(base_configs()["furstenberg"], factor=[term("s[0]")], order=10**12, sweep=1)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: order 1000000000000 exceeds the cap 1000000\n"

    def test_section4_family_over_grid_cap(self, tmp_path):
        # 10**9 functionals would be 7.45 GiB of grid points alone; the family
        # is refused before any point is allocated
        config = dict(base_configs()["section4"], family_points=10**9)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: functional family 4000000000 exceeds the cap 4194304\n"

    def test_flow_mean_over_quadrature_node_cap(self, tmp_path):
        # 1e17 Simpson nodes would be 800 PB; the grid is refused before any
        # allocation (a non-integer exponent: integer ones have a closed form)
        config = dict(
            base_configs()["mean-ergodic"],
            scheme={"family": "power", "exponent": 0.5},
            indices=[1e15],
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert "Simpson quadrature on [0, 1e+15] needs more than 20000000 nodes" in proc.stderr

    def test_tensor_over_grid_cap(self, tmp_path):
        # 10**10 pairs of 4-state rows would be 2.6 TB of tensor functionals;
        # the grid is refused before any allocation
        side = {"type": "section4", "p": 0.5, "projection": "EL", "family_points": 10**5}
        config = dict(base_configs()["tensor"], left=side, right=side)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: tensor functional grid 160000000000 exceeds the cap 4194304\n"

    @pytest.mark.parametrize("check", ["weak-mixing", "ergodicity"])
    def test_tensor_at_the_dimension_cap(self, tmp_path, check):
        # two random 64-state factors make d = 4096, where one Kronecker matrix
        # is 256 MiB.  The weak-mixing sweep steps the factors and fails its
        # tolerance (exit 2); the ergodicity mean, 50·4096³ multiply-adds, is
        # refused before anything of size d² is built
        rng = np.random.default_rng(4096)

        def factor():
            t = rng.random((64, 64))
            pi = rng.random(64)
            return {
                "type": "matrix",
                "transition": (t / t.sum(axis=1, keepdims=True)).tolist(),
                "idempotent": np.outer(np.ones(64), pi / pi.sum()).tolist(),
                "functionals": [rng.random(64).tolist()],
            }

        config = dict(base_configs()["tensor"], left=factor(), right=factor(), check=check, sweep=50)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc, elapsed, peak_mib = run_cli_measured(
            ["run", str(path), "--out", str(tmp_path / "out")], tmp_path, timeout=60
        )
        if check == "weak-mixing":
            assert proc.returncode == 2, proc.stderr
            results = json.loads((tmp_path / "out" / "tensor.json").read_text())["results"]
            assert results["dimension"] == 4096
        else:
            assert_cli_error(proc)
            assert proc.stderr == "error: power-mean work 3435973836800 exceeds the cap 10000000000\n"
        assert elapsed < 5.0 and peak_mib < 100.0, (elapsed, peak_mib)

    def test_tensor_weak_mixing_over_work_cap(self, tmp_path):
        # two 512-row 4-state families fill TENSOR_GRID_CAP; each step takes
        # tens of ms, so 10**4 steps are refused before the first one
        side = {"type": "section4", "p": 0.5, "projection": "EL", "family_points": 512}
        config = dict(base_configs()["tensor"], left=side, right=side, sweep=10**4)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: power-mean work 84295680000 exceeds the cap 10000000000\n"

    def test_gap_search_over_lattice_cap(self, tmp_path):
        # 10 * 10**9 tuples with a live E-side (every operator keeps a
        # finite-orbit term); the lattice is refused before any shift is built
        config = dict(
            base_configs()["gap-search"],
            operators=[[term("c[0]"), term("s[0]")], [term("c[1]"), term("s[0]^-1")]],
            gap_max=10**9,
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: gap lattice 10000000000 exceeds the cap 100000000\n"

    def test_power_mean_over_work_cap(self, tmp_path):
        # log weights are stepped: 2 * 10**6 steps of a 100 x 100 transition
        # on 100 columns would run for many minutes; the sweep is refused
        # before its first step
        identity = [[float(i == j) for j in range(100)] for i in range(100)]
        config = dict(base_configs()["thm215"], transition=identity, sweep=10**6,
                      scheme={"family": "log"})
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: power-mean work 2000000000000 exceeds the cap 10000000000\n"

    def test_uniform_power_mean_of_the_same_sweep_is_doubled(self, tmp_path):
        # uniform weights double: about 100 products of 100 x 100 matrices in
        # place of the 2 * 10**6 steps that the log sweep above would take
        identity = [[float(i == j) for j in range(100)] for i in range(100)]
        config = dict(base_configs()["thm215"], transition=identity, sweep=10**6)
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), timeout=60)
        assert proc.returncode == 0, proc.stderr
        results = json.loads((out / "thm215.json").read_text())["results"]
        assert results["converged"] and results["lawful"] and results["cauchy_residual"] == 0.0

    def test_joinings_log_over_exact_cap(self, tmp_path):
        # exact harmonic sums take quadratic time: 10**6 log weights would run
        # for hours; the count is refused before any Fraction is built
        config = dict(base_configs()["joinings"], scheme={"family": "log"}, sweep=10**6)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert_cli_error(proc)
        assert proc.stderr == "error: 1000000 exact log weights exceed the cap 20000\n"

    def test_joinings_integer_power_weights_at_the_cap(self, tmp_path):
        # 10**7 exact power(4) weights, the most the cap allows: as Fractions
        # the run went past 40 s; as ints summed per residue class, with no
        # weight list, it takes seconds.  The average misses the polytope's
        # 1e-9 by about 8e-8, so it reports a failed check (exit 2)
        config = dict(
            base_configs()["joinings"],
            scheme={"family": "power", "exponent": 4},
            sweep=10**7,
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2, proc.stderr
        results = json.loads((tmp_path / "out" / "joinings.json").read_text())["results"]
        assert results["disjoint"] and not results["average_in_polytope"]
        assert 0 < results["average_distance_to_unique"] < 1e-7

    def test_joinings_tiny_custom_sample(self, tmp_path):
        # 1e-13 passes the float total check; read exactly, it weighs the one
        # step as 1.0 does, so both runs write the same average
        outputs = []
        for sample in (1e-13, 1.0):
            config = dict(
                base_configs()["joinings"],
                scheme={"family": "custom", "samples": [sample]},
                sweep=1,
            )
            out = tmp_path / f"out-{sample}"
            proc = run_config(config, tmp_path, "--out", str(out))
            # one step averages to the coupling itself, which is not invariant
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            outputs.append((out / "joinings.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_joinings_infeasible_factor(self, tmp_path):
        # every coupling gives the cell of row x the mass 1/2 of x, so the
        # masses 9/10 and 1/10 admit no joining
        factor = {"generators": [[[0, 0, 0], [1, 1, 1]]], "cell_masses": ["9/10", "1/10"]}
        config = dict(ROTATIONS, factor=factor)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        summary = json.loads((tmp_path / "out" / "joinings.json").read_text())
        assert summary["results"]["feasible"] is False
        assert summary["results"]["disjoint"] is None
        assert (tmp_path / "out" / "joinings.csv").read_bytes() == b"x,y,value\r\n"

    def test_joinings_refuses_short_custom_scheme(self, tmp_path):
        # two samples cannot weigh a sweep of five steps
        config = dict(
            base_configs()["joinings"], scheme={"family": "custom", "samples": [1, 1]}, sweep=5
        )
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)
        assert "custom scheme has 2 samples, needs 5" in proc.stderr

    @pytest.mark.parametrize(
        "kind, changes",
        [
            ("furstenberg", {"factor": [term("", re="x")]}),
            (
                "mixing-decay",
                {"state": {"kind": "vector", "amplitudes": [term("", im="x")]}},
            ),
            (
                "mixing-decay",
                {"state": {"kind": "vector", "amplitudes": [term("")], "normalize": "false"}},
            ),
            (
                "mixing-decay",
                {
                    "state": {
                        "kind": "mixture",
                        "components": [{"weight": "x", "amplitudes": [term("")]}],
                    }
                },
            ),
            ("bergelson", {"equality_tolerance": "x"}),
            ("multitime", {"times": ["a", 2]}),
            ("multitime", {"times": [1.5, 2]}),
            ("furstenberg", {"absolute": "false"}),
            ("bergelson", {"m_base": True}),
            (
                "furstenberg",
                # len(a) = 7 and h = 7: 7**7 terms are over the half-product cap
                {
                    "factor": [term("s[0]"), term("s[1]"), term("c[0]")],
                    "order": 12,
                    "sweep": 1,
                },
            ),
            ("section4", {"tolerances": {"weak_mixing": "x"}}),
            (
                "folner-defect",
                {"scheme": {"family": "power", "exponent": "x", "domain": "continuous"}},
            ),
            ("folner-defect", {"scheme": {"family": "custom", "samples": "ab"}}),
            ("tensor", {"tolerance": "x"}),
            ("thm215", {"law_tolerance": "x"}),
            ("mean-ergodic", {"tolerance": None}),
            ("mean-ergodic", {"vector": [["a", 1], 0]}),
            ("mean-ergodic", {"vector": 5}),
            ("gap-search", {"operators": 5}),
            (None, {"experiment": ["a"]}),
            ("thm215", {"transition": [[math.nan, 1.0], [0.0, 1.0]]}),
            (
                "thm215",
                {
                    "scheme": {"family": "custom", "samples": [1.0, math.inf] + [1.0] * 4},
                    "sweep": 3,
                },
            ),
            ("folner-defect", {"shift": math.inf}),
            ("mean-ergodic", {"tolerance": math.nan}),
            ("mean-ergodic", {"tolerance": True}),
            ("mean-ergodic", {"indices": [math.inf]}),
            ("mean-ergodic", {"scheme": {"family": "log"}, "indices": [1]}),
            ("joinings", {"scheme": {"family": "custom", "samples": [0, 0, 1]}, "sweep": 2}),
            ("section4", {"p": "0.5", "sweep": 10}),
            ("mean-ergodic", {"indices": ["50"]}),
            ("folner-defect", {"shift": "1.0"}),
            ("gap-search", {"zero_tol": -1}),
            (None, dict(ROTATIONS, scheme={"family": "nonsense"})),
            (None, dict(ROTATIONS, sweep=-5)),
            (None, dict(ROTATIONS, average_tolerance="abc")),
            ("multitime", {"state": {"kind": "trace", "amplitudes": "garbage", "normalize": 7}}),
            ("multitime", {"state": dict(MIXTURE, kind="vector", amplitudes=[term("")])}),
            ("multitime", {"state": dict(MIXTURE, amplitudes=[term("")])}),
            ("multitime", {"state": dict(MIXTURE, normalize=False)}),
            ("mean-ergodic", {"flow": dict(base_configs()["mean-ergodic"]["flow"], matrix=[[1.0]])}),
            ("mean-ergodic", {"flow": {"kind": "discrete", "matrix": IDENTITY, "generator": [[0.0]]}}),
            ("tensor", {"left": dict(base_configs()["tensor"]["left"], transition=[[1.0]])}),
            ("tensor", {"right": dict(ONE_STATE, p=0.5)}),
            ("tensor", {"right": dict(ONE_STATE, projection="EL")}),
            ("folner-defect", {"scheme": {"family": "uniform", "samples": [1.0]}}),
        ],
        ids=[
            "element-re-not-number",
            "amplitude-im-not-number",
            "normalize-not-boolean",
            "weight-not-number",
            "tolerance-not-number",
            "times-not-integers",
            "times-fractional",
            "absolute-not-boolean",
            "m-base-boolean",
            "furstenberg-over-budget",
            "tolerances-not-numbers",
            "exponent-not-number",
            "samples-not-list",
            "tensor-tolerance-not-number",
            "law-tolerance-not-number",
            "tolerance-null",
            "vector-cell-not-number",
            "vector-not-list",
            "operators-not-list",
            "experiment-not-string",
            "transition-nan",
            "samples-infinite",
            "shift-infinite",
            "tolerance-nan",
            "tolerance-boolean",
            "index-infinite",
            "log-index-one",
            "custom-zero-total",
            "number-as-string",
            "index-as-string",
            "shift-as-string",
            "zero-tol-negative",
            "scheme-without-couplings",
            "sweep-without-couplings",
            "average-tolerance-without-couplings",
            "trace-with-amplitudes",
            "vector-with-components",
            "mixture-with-amplitudes",
            "mixture-with-normalize",
            "continuous-flow-with-matrix",
            "discrete-flow-with-generator",
            "section4-system-with-transition",
            "matrix-system-with-p",
            "matrix-system-with-projection",
            "uniform-with-samples",
        ],
    )
    def test_malformed_fields(self, tmp_path, kind, changes):
        config = dict(base_configs()[kind] if kind else {}, **changes)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)

    @pytest.mark.parametrize("kind", sorted(base_configs()))
    def test_no_malformed_field_escapes(self, tmp_path, kind):
        """Any one field of a base config, at any depth, set to a bad value or
        removed: the run finishes or raises ConfigError, never anything else."""
        base = base_configs()[kind]
        for path in field_paths(base):
            for bad in BAD_VALUES + [REMOVED]:
                try:
                    run_experiment(with_field(base, path, bad), tmp_path, quiet=True)
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{path} = {bad!r}: {type(exc).__name__}: {exc}")

    @pytest.mark.parametrize(
        "left, message",
        [
            (
                {"type": "section4", "projection": "X"},
                "error: left: projection must be 'EL' or 'Efix'\n",
            ),
            (
                {"type": "matrix", "transition": [[1.0]], "functionals": [[1.0]]},
                "error: left: matrix system needs idempotent\n",
            ),
        ],
        ids=["projection", "no-idempotent"],
    )
    def test_system_error_names_its_side_once(self, tmp_path, left, message):
        config = dict(base_configs()["tensor"], left=left)
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_cli_error(proc)
        assert proc.stderr == message

    def test_config_error_in_process(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "mean-ergodic"}, Path("/tmp"))


class TestSchema:
    def test_list_json_is_the_schema_run_checks(self, tmp_path):
        text = list_experiments(as_json=True)
        schema = json.loads(text)
        assert text == json.dumps(schema, indent=2, sort_keys=True)
        configs = base_configs()
        assert set(schema) == set(configs)
        for kind, entry in schema.items():
            required, config = entry["required"], configs[kind]
            assert set(config) - {"experiment", "expect"} <= set(required) | set(entry["optional"])
            assert set(required) <= set(config)
            for field in required:
                broken = {k: v for k, v in config.items() if k != field}
                with pytest.raises(ConfigError) as raised:
                    run_experiment(broken, tmp_path / kind)
                assert str(raised.value) == f"config: missing fields {[field]}"


def json_oracle(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def catalogue_parameters():
    """The echoed ``parameters`` of every benchmark catalogue config; nothing is run."""
    workloads = perfbench_workloads()
    return [
        (item_id, {k: v for k, v in config.items() if k != "experiment"})
        for workload in ("gap-scan", "recurrence", "matrix")
        for item_id, config in workloads.catalogue(workload)
    ]


def circular(container):
    """``container``, holding a list that holds it."""
    loop = [container]
    if isinstance(container, dict):
        container["a"] = loop
    else:
        container.append(loop)
    return container


class Label(str):
    """A str subclass: json writes it as the str it is, as a key or a value."""


NAN, INF = float("nan"), float("inf")
JSON_EDGE_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": (), "d": {"e": [[], {}, ()]}},
    [[1, [2, [3, {"deep": [[], [()]]}]]], {"x": ({"y": (4,)},)}],
    (1, (2, 3), [4, (5,)]),
    'quote " backslash \\ slash /',
    "control \x00\x01\x1f\b\f\n\r\t\x7f",
    "non-ASCII \u00e9 \u00df \u4e2d \U0001f600 \u2028 \ufeff",
    {'k"ey\\': "v", "\u00e9": 1, "\n": 2},
    [-0.0, 0.0, 5e-324, 1e16, 1e22, 1.5, -2.5e-8, 0.1, 1 / 3, 1.7976931348623157e308],
    [NAN, INF, -INF, {"nan": NAN, "inf": INF, "-inf": -INF}],
    [2**64, -(2**100), 0, -1, True, 1, False, 0, None],
    {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
    np.float64(0.1),
    [np.float64(-1e300), np.float64("nan"), {"x": np.float64(2.5)}],
    {10: "a", 2: "b", -1: "c", 2**70: "d"},
    {0.5: "a", -0.0: "b", 1e16: "c", 1e22: "d", INF: "e", -INF: "f"},
    {NAN: "nan key"},
    {True: "t", False: "f"},
    {None: "n"},
    {True: "t", 0: "z", 2.5: "f", -3: "m"},
    {np.float64(0.25): "subclassed float key"},
    {Label("subclassed str key"): Label("and value")},
    # past the writer's 1,000-part chunks, at several depths
    [{"i": i, "v": [i / 7, {"w": -i}]} for i in range(1500)],
    "a plain string",
    42,
    -0.0,
    True,
    None,
]


class TestJsonWriter:
    """``_json_text`` is ``json.dumps(indent=2, sort_keys=True)`` plus a newline."""

    @pytest.mark.parametrize("value", JSON_EDGE_CASES, ids=lambda v: type(v).__name__)
    def test_edge_cases_match_json(self, value):
        assert _json_text(value) == json_oracle(value)

    def test_catalogue_parameters_match_json(self):
        items = catalogue_parameters()
        assert len(items) == 588
        for item_id, parameters in items:
            assert _json_text(parameters) == json_oracle(parameters), item_id

    @pytest.mark.parametrize(
        "make",
        [
            lambda: {1, 2},
            lambda: {"x": [Fraction(1, 3)]},
            lambda: [1 + 2j],
            lambda: {"n": np.int64(3)},
            lambda: {(1, 2): "tuple key"},
            lambda: {1: "int", "a": "str"},
            lambda: circular([1]),
            lambda: circular({"a": []}),
        ],
        ids=["set", "fraction", "complex", "int64", "tuple-key", "mixed-keys", "cycle-list", "cycle-dict"],
    )
    def test_refusals_match_json(self, make):
        with pytest.raises((TypeError, ValueError)) as expected:
            json_oracle(make())
        with pytest.raises(type(expected.value)) as raised:
            _json_text(make())
        assert str(raised.value) == str(expected.value)

    def test_numpy_values_become_json_native(self):
        # each as its tolist() gives it, a complex as {"re", "im"}; a 0-d
        # array is a scalar, not a sequence
        cases = [
            (np.float32(0.1), 0.10000000149011612),
            (np.int8(-7), -7),
            (np.bool_(True), True),
            (np.complex64(0.5 - 0.25j), {"re": 0.5, "im": -0.25}),
            (np.array(2.5), 2.5),
            (np.array([[1 + 2j], [3j]]), [[{"re": 1.0, "im": 2.0}], [{"re": 0.0, "im": 3.0}]]),
        ]
        for value, wanted in cases:
            plain = cli._plain(value)
            assert plain == wanted, (value, plain)
            assert _json_text(plain) == json_oracle(wanted), value

    def test_shared_values_are_not_cycles(self):
        shared = [1.5, {"a": None}]
        value = {"x": shared, "y": [shared, shared]}
        assert _json_text(value) == json_oracle(value)

    def test_unencodable_config_value_writes_nothing(self, tmp_path):
        config = {"experiment": "section4", "p": 0.5, "sweep": 100, "expect": {"pass": {1, 2}}}
        with pytest.raises(ConfigError, match="set"):
            run_experiment(config, tmp_path, quiet=True)
        assert not (tmp_path / "section4.csv").exists()
        assert not (tmp_path / "section4.json").exists()


class TestArtifactWriter:
    CONFIG = {"experiment": "section4", "p": 0.5, "sweep": 100}

    def test_artifacts_are_never_truncated_on_open(self, tmp_path, monkeypatch):
        # ext4 flushes a file truncated on open when it is closed; the writer
        # opens without O_TRUNC and cuts the file after writing instead
        opened = []
        real_os_open, real_open = os.open, builtins.open

        def spy_os_open(path, flags, *args, **kwargs):
            opened.append((path, "flags", flags))
            return real_os_open(path, flags, *args, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            opened.append((file, "mode", mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        for _ in range(2):  # create, then overwrite
            run_experiment(self.CONFIG, tmp_path, quiet=True)
        monkeypatch.undo()
        artifacts = {tmp_path / "section4.csv", tmp_path / "section4.json"}
        by_path = [
            (Path(file), how, value)
            for file, how, value in opened
            if isinstance(file, (str, os.PathLike)) and Path(file) in artifacts
        ]
        assert {path for path, _, _ in by_path} == artifacts
        for path, how, value in by_path:
            if how == "flags":
                assert not value & os.O_TRUNC, path
            else:
                assert "w" not in value, (path, value)
        umask = os.umask(0)
        os.umask(umask)
        for path in artifacts:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_links_are_written_through(self, tmp_path):
        fresh, out, elsewhere = tmp_path / "fresh", tmp_path / "out", tmp_path / "elsewhere"
        run_experiment(self.CONFIG, fresh, quiet=True)
        out.mkdir()
        elsewhere.mkdir()
        (elsewhere / "table").write_bytes(b"stale " * 4000)
        (elsewhere / "summary").write_bytes(b"stale " * 4000)
        (out / "section4.csv").symlink_to(elsewhere / "table")
        os.link(elsewhere / "summary", out / "section4.json")
        run_experiment(self.CONFIG, out, quiet=True)
        assert (out / "section4.csv").is_symlink()
        assert (elsewhere / "table").read_bytes() == (fresh / "section4.csv").read_bytes()
        assert (elsewhere / "summary").samefile(out / "section4.json")
        assert (elsewhere / "summary").read_bytes() == (fresh / "section4.json").read_bytes()


class TestValueRows:
    """The ``n, re, im, abs`` rows of furstenberg and mixing-decay format a
    recurring value object once; the bytes are those of formatting each row."""

    ZERO, NEGATIVE_ZERO, VALUE = 0j, complex(0.0, -0.0), complex(0.1, -2.5)
    # recurring objects, and zeros that are equal but print differently
    VALUES = (
        ZERO, NEGATIVE_ZERO, ZERO, NEGATIVE_ZERO, complex(-0.0, 0.0),
        VALUE, VALUE, complex(0.1, -2.5), ZERO, NEGATIVE_ZERO,
    )

    @pytest.mark.parametrize(
        "kind, kernel",
        [("furstenberg", "furstenberg_average"), ("mixing-decay", "decay_sequence")],
    )
    def test_csv_matches_row_by_row(self, tmp_path, monkeypatch, kind, kernel):
        values = list(self.VALUES)
        if kind == "furstenberg":
            values = RecurrenceAverage(1 + 0j, 0.5, self.VALUES)
        monkeypatch.setattr(cli.mixing, kernel, lambda *args, **kwargs: values)
        run_experiment(base_configs()[kind], tmp_path, quiet=True)
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\r\n")
        writer.writerow(["n", "re", "im", "abs"])
        for n, v in enumerate(self.VALUES, 1):
            writer.writerow([str(n), "%.17g" % v.real, "%.17g" % v.imag, "%.17g" % abs(v)])
        written = (tmp_path / f"{kind}.csv").read_bytes()
        assert written == table.getvalue().encode()
        assert b"\r\n2,0,-0,0\r\n" in written and b"\r\n3,0,0,0\r\n" in written

    def test_bergelson_csv_matches_row_by_row(self, tmp_path, monkeypatch):
        # projected values recur as one object per residue pair; the two
        # zeros are equal but print differently
        zero, negative_zero, value = 0.0, -0.0, 0.1
        values = tuple(
            (m, n, float(m - n), (zero, negative_zero, value, zero)[(m + n) % 4])
            for m in range(1, 4) for n in range(1, 4)
        ) + ((4, 4, -0.0, 0.1),)
        average = DoubleAverage(0.5, 0.25, values)
        monkeypatch.setattr(cli.mixing, "bergelson_average", lambda *args: average)
        run_experiment(base_configs()["bergelson"], tmp_path, quiet=True)
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\r\n")
        writer.writerow(["m", "n", "abs", "projected_abs"])
        for m, n, v, ev in values:
            writer.writerow([str(m), str(n), "%.17g" % v, "%.17g" % ev])
        written = (tmp_path / "bergelson.csv").read_bytes()
        assert written == table.getvalue().encode()
        assert b"\r\n2,2,0,0\r\n" in written and b"\r\n2,3,-1,-0\r\n" in written


class TestContracts:
    def test_section4_summary_keys(self, tmp_path):
        config = base_configs()["section4"]
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
        assert proc.returncode == 0
        results = json.loads((out / "section4.json").read_text())["results"]
        assert results["weak_mixing_EL"] is True
        assert results["weak_mixing_Efix"] is False

    def test_furstenberg_average_is_eight(self, tmp_path):
        config = base_configs()["furstenberg"]
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
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
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
        assert proc.returncode == 0
        rows = (out / "mean-ergodic.csv").read_text().splitlines()
        assert rows[0] == "N,scheme,error"
        assert all(row.split(",")[2] == "0" for row in rows[1:])

    def test_continuous_uniform_mean_at_ten_million(self, tmp_path):
        # exact per eigenvalue, so N = 1e7 costs what N = 10 does; the mean of
        # e^(i lambda t) over [0, N] has modulus |sin(lambda N / 2) / (lambda N / 2)|
        freqs = [0.0, 0.7, -1.9]
        vector = [1.0, 2.0, -0.5]
        n = 1e7
        config = {
            "experiment": "mean-ergodic",
            "flow": {
                "kind": "continuous",
                "generator": [[f if i == j else 0.0 for j in range(3)] for i, f in enumerate(freqs)],
            },
            "vector": vector,
            "scheme": {"family": "uniform"},
            "indices": [n],
        }
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet", timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        error = json.loads((out / "mean-ergodic.json").read_text())["results"]["final_error"]
        expected = math.sqrt(
            sum((x * math.sin(f * n / 2) / (f * n / 2)) ** 2 for f, x in zip(freqs[1:], vector[1:]))
        )
        assert error == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_continuous_folner_defect_at_a_trillion(self, tmp_path):
        # each continuous defect is a closed-form mass ratio, so N = 1e12 costs
        # what N = 10 does; a quadrature grid there would hold 1e14 nodes
        config = dict(base_configs()["folner-defect"], indices=[10, 1e12])
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet", timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        defects = json.loads((out / "folner-defect.json").read_text())["results"]["defects"]
        assert len(defects) == 2 and all(math.isfinite(d) and d > 0 for d in defects)
        start = time.perf_counter()
        assert run_experiment(config, tmp_path / "again", quiet=True) == 0
        assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize("family, exponent", [("power", 1.0), ("voronoi", 2.0)])
    def test_integer_exponent_flow_mean_at_a_quadrillion(self, tmp_path, family, exponent):
        # an integer-exponent flow mean is one closed form per eigenvalue, so
        # N = 1e15 costs what N = 10 does; a Simpson grid there would hold 1e17 nodes
        config = dict(
            base_configs()["mean-ergodic"],
            scheme={"family": family, "exponent": exponent},
            indices=[10, 1e15],
        )
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet", timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        errors = json.loads((out / "mean-ergodic.json").read_text())["results"]["errors"]
        assert len(errors) == 2 and all(math.isfinite(e) for e in errors)
        assert errors[1] < 1e-14
        start = time.perf_counter()
        assert run_experiment(config, tmp_path / "again", quiet=True) == 0
        assert time.perf_counter() - start < 0.25

    def test_csv_uses_crlf(self, tmp_path):
        config = base_configs()["folner-defect"]
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
        assert proc.returncode == 0, proc.stderr + proc.stdout
        raw = (out / "folner-defect.csv").read_bytes()
        assert b"\r\n" in raw

    def test_gap_search_threshold_reported(self, tmp_path):
        config = base_configs()["gap-search"]
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out), "--quiet")
        assert proc.returncode == 0
        results = json.loads((out / "gap-search.json").read_text())["results"]
        assert results["threshold"] is not None


def assert_one_error_line(proc):
    """A refused config: exit 1, one ``error:`` line and nothing else on stderr."""
    assert_cli_error(proc)
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr


SHIFT_ONLY = {"families": [{"name": "s", "kind": "shift"}]}


def big_vector_state(re, im=0.0):
    return {"kind": "vector", "amplitudes": [term("", re, im), term("s[0]", re, im)]}


def uniform_mean(flow, vector):
    return {
        "experiment": "mean-ergodic",
        "flow": flow,
        "vector": vector,
        "scheme": {"family": "uniform"},
        "indices": [10, 100],
    }


class TestNumericBreaches:
    """Inputs whose spectra or magnitudes the float range cannot carry end as
    config errors, and a state whose norm it can carry runs to a verdict."""

    @pytest.mark.parametrize(
        "config",
        [
            uniform_mean({"kind": "continuous", "generator": [[1e-9, 0], [0, 1]]}, [1, 1]),
            uniform_mean({"kind": "discrete", "matrix": [[0.999999999, 0], [0, 0.5]]}, [1, 1]),
        ],
        ids=["continuous", "discrete"],
    )
    def test_ill_conditioned_spectrum(self, tmp_path, config):
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_one_error_line(proc)
        assert "null threshold" in proc.stderr or "of zero" in proc.stderr

    def test_vector_state_of_huge_amplitudes_runs(self, tmp_path):
        config = dict(base_configs()["multitime"], alphabet=SHIFT_ONLY,
                      state=big_vector_state(1e308))
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        value = json.loads((out / "multitime.json").read_text())["results"]["value"]
        assert math.isfinite(value["re"]) and math.isfinite(value["im"])

    @pytest.mark.parametrize("im", [0.0, 1.5e308], ids=["real", "complex"])
    def test_vector_state_past_the_float_range(self, tmp_path, im):
        config = dict(base_configs()["multitime"], alphabet=SHIFT_ONLY,
                      state=big_vector_state(1.5e308, im))
        proc = run_config(config, tmp_path, "--out", str(tmp_path / "out"))
        assert_one_error_line(proc)
        assert "norm inf" in proc.stderr

    @pytest.mark.parametrize(
        "config, key",
        [
            (
                uniform_mean({"kind": "discrete", "matrix": [[1, 0], [0, -1]]}, [1e308, 1e308]),
                "results.errors",
            ),
            (
                dict(
                    base_configs()["tensor"],
                    left={
                        "type": "matrix",
                        "transition": [[1e300, -1e300, 1], [0, 1, 0], [0, 0, 1]],
                        "idempotent": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        "functionals": [[1, 0, 0]],
                    },
                ),
                "results.max_defect",
            ),
        ],
        ids=["mean-ergodic", "tensor"],
    )
    def test_non_finite_result(self, tmp_path, config, key):
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out))
        assert_one_error_line(proc)
        assert proc.stderr.startswith(f"error: {key}: nan is not finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                dict(base_configs()["furstenberg"], alphabet=SHIFT_ONLY,
                     factor=[term("", 1e308), term("s[0]", 1e308)], sweep=5),
                "error: results.average: nan is not finite",
            ),
            (
                dict(
                    base_configs()["gap-search"],
                    alphabet=SHIFT_ONLY,
                    operators=[[term("", 1e308), term("s[0]", 1e308)]] * 2,
                    states=[base_configs()["gap-search"]["states"][1]],
                ),
                "error: difference at times (1, 3) on state 0 is NaN",
            ),
        ],
        ids=["furstenberg", "gap-search"],
    )
    def test_nan_on_the_word_side(self, tmp_path, config, message):
        # 1e308 * 1e308 overflows and inf - inf is NaN: neither a product's
        # pruning nor the gap scan's zero test may read it as 0
        out = tmp_path / "out"
        proc = run_config(config, tmp_path, "--out", str(out))
        assert_one_error_line(proc)
        assert proc.stderr.startswith(message), proc.stderr
        assert not out.exists()
