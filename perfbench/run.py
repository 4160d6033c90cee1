"""The ergolab benchmark: seeded ``ergolab run`` configs, end to end and per layer.

    python3 perfbench/run.py --workload gap-scan --seed 1 --seconds 15 --trace 0

One process runs one workload, single-threaded and closed-loop: the items
(``workloads.py``) go one after another through
``ergolab.cli.run_experiment(config, out_dir, quiet=True)``, which parses,
computes and writes ``<kind>.csv`` / ``<kind>.json`` just as ``ergolab run``
does.  Passes over all items repeat for ``--seconds``; the first warms up
and is checked against the stored references (``references/``) and for
byte-identical artifacts on a repeated item.  Every time is scaled to a
reference host speed by a kernel timed before each item (``speed.py``).
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced passes (``layers.py``) alternate with untraced ones and the per-layer
metrics are reported, with the tracing overhead.  Human-readable ``#`` lines
come first; the last line is one JSON object.  See README.md for the metrics
and what each should move.
"""

from __future__ import annotations

import os

# numpy links a threaded BLAS; pin it before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import checks
import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references"
SETUP_REPEATS = 15

# (name, unit): reported with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit, repeats exactly for a seed): reported with --trace 1
PER_LAYER = (
    ("cli.self_s", "s", False),
    ("cli.artifact_bytes", "byte", True),
    ("words.merge_runs.calls", "count", True),
    ("words.merge_runs.s", "s", False),
    ("words.self_s", "s", False),
    ("dual.mul.calls", "count", True),
    ("dual.mul.term_pairs", "count", True),
    ("dual.state.calls", "count", True),
    ("dual.self_s", "s", False),
    ("mixing.gap_scan.calls", "count", True),
    ("mixing.gap_scan.s", "s", False),
    ("mixing.tuples_scanned", "count", True),
    ("mixing.tuples_per_s", "1/s", False),
    ("mixing.violations", "count", True),
    ("mixing.hit_ratio", "ratio", True),
    ("mixing.self_s", "s", False),
    ("averaging.quad_nodes", "count", True),
    ("averaging.power_steps", "count", True),
    ("averaging.self_s", "s", False),
    ("finite.power_steps", "count", True),
    ("finite.step_flops", "flop-computed", True),
    ("finite.self_s", "s", False),
    ("joinings.lp_vars", "count", True),
    ("joinings.lp_rows", "count", True),
    ("joinings.self_s", "s", False),
    ("lp.solves", "count", True),
    ("lp.solves_per_var", "ratio", True),
    ("lp.self_s", "s", False),
    ("trace.overhead_ratio", "ratio", False),
)

# callables each workload must reach; a traced pass that records no call to
# one of them stops the benchmark, so a refactor cannot silently drop a layer
REQUIRED = {
    "gap-scan": (
        "cli.run_experiment", "words.merge_runs", "words.Alphabet.word",
        "dual.AlgebraElement.shifted", "dual.AlgebraElement.finite_orbit_part",
        "dual.State.runs_profile", "mixing.gap_scan",
    ),
    "recurrence": (
        "cli.run_experiment", "words.merge_runs", "dual.AlgebraElement.__mul__",
        "dual.State.__call__", "dual.L2Vector.inner", "mixing.furstenberg_average",
        "mixing.bergelson_average", "mixing.decay_sequence", "mixing.correlation",
        "mixing.correlation_difference",
    ),
    "matrix": (
        "cli.run_experiment", "averaging.weighted_mean_flow",
        "averaging.UnitaryFlow.phase_sums", "averaging.fixed_space_projection",
        "averaging.folner_defect", "finite.four_state_system", "finite.tensor_product",
        "finite.weak_mixing_check", "finite.unique_ergodicity_check",
        "finite.invariant_mean_projection", "joinings.joining_polytope",
        "joinings.relative_disjointness", "joinings.weighted_coupling_average",
        "lp.simplex_minimize",
    ),
}

# per-layer metrics that must read 0: the layers a workload bypasses
SEPARATION = {
    "gap-scan": ("lp.solves", "averaging.quad_nodes"),
    "recurrence": ("lp.solves", "averaging.quad_nodes"),
    "matrix": ("words.merge_runs.calls", "dual.mul.calls"),
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ergolab; print(time.perf_counter() - t)"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_package():
    """Import ``ergolab`` from the ``src`` beside this directory, never from
    whatever a relative ``PYTHONPATH`` or an installed copy would give."""
    if not (SRC / "ergolab" / "__init__.py").is_file():
        raise BenchmarkError(f"no ergolab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ergolab.cli

    if Path(ergolab.__file__).resolve().parent != SRC / "ergolab":
        raise BenchmarkError(f"ergolab imported from {ergolab.__file__}, not {SRC}")
    return ergolab.cli


def environment(seed: int) -> Dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_sample(workload: str, seed: int) -> float:
    """Seconds to import ergolab in a fresh interpreter, plus to generate the
    workload's configs, scaled to the reference speed by samples of the
    interpreted kernel taken on both sides."""
    around = [speed.sample(speed.INTERPRETED) for _ in range(speed.WINDOW)]
    probe = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    start = perf_counter()
    workloads.draw(workload, seed)
    raw = float(probe.stdout) + perf_counter() - start
    around += [speed.sample(speed.INTERPRETED) for _ in range(speed.WINDOW)]
    return raw * speed.REFERENCE_S / statistics.median(around)


def run_pass(
    cli, items, work: Path, workload: str
) -> Tuple[List[float], List[float], List[object]]:
    """One closed-loop pass: per item, (raw seconds, seconds of the
    workload's speed kernel just before it, outcome)."""
    sizes = speed.SIZES[workload]
    times, kernel, outcomes = [], [], []
    for i, (_, config) in enumerate(items):
        kernel.append(speed.sample(sizes))
        t0 = perf_counter()
        try:
            outcome = cli.run_experiment(config, work / str(i), quiet=True)
        except Exception as exc:  # a raising item fails; the pass goes on
            outcome = f"raised {type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        outcomes.append(outcome)
    return times, kernel, outcomes


def check_pass(items, outcomes, references, work: Path) -> Dict[int, str]:
    """Failures of a pass against the stored references, by item position."""
    failures = {}
    for i, ((item_id, config), outcome) in enumerate(zip(items, outcomes)):
        if isinstance(outcome, str):
            failures[i] = outcome
            continue
        try:
            got = checks.summarize(work / str(i), config["experiment"], outcome)
        except (OSError, ValueError, KeyError) as exc:
            failures[i] = f"unreadable artifacts: {exc}"
            continue
        found = checks.difference(references[item_id], got)
        if found:
            failures[i] = f"differs from its reference at {found}"
    return failures


def artifacts_repeat(cli, items, work: Path) -> bool:
    """Run the first item again and compare its artifacts byte for byte."""
    _, config = items[0]
    again = work / "repeat"
    kind = config["experiment"]
    try:
        cli.run_experiment(config, again, quiet=True)
        return all(
            (work / "0" / name).read_bytes() == (again / name).read_bytes()
            for name in (f"{kind}.csv", f"{kind}.json")
        )
    except Exception:  # the item's own failure is reported by check_pass
        return False


def layer_metrics(tracer: layers.Tracer, scale: float) -> Dict[str, float]:
    """The pass's per-layer metrics, its seconds multiplied by ``scale``."""
    calls, counts = tracer.calls, tracer.counts
    seconds = {key: scale * s for key, s in tracer.seconds.items()}
    tuples = counts["mixing.tuples_scanned"]
    gap_s = seconds.get("mixing.gap_scan", 0.0)
    lp_vars = counts["joinings.lp_vars"]
    solves = calls["lp.simplex_minimize"]
    metrics = {
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
        "words.merge_runs.calls": calls["words.merge_runs"],
        "words.merge_runs.s": seconds.get("words.merge_runs", 0.0),
        "dual.mul.calls": calls["dual.AlgebraElement.__mul__"],
        "dual.mul.term_pairs": counts["dual.mul.term_pairs"],
        "dual.state.calls": calls["dual.State.__call__"],
        "mixing.gap_scan.calls": calls["mixing.gap_scan"],
        "mixing.gap_scan.s": gap_s,
        "mixing.tuples_scanned": tuples,
        "mixing.tuples_per_s": tuples / gap_s if gap_s else 0.0,
        "mixing.violations": counts["mixing.violations"],
        "mixing.hit_ratio": counts["mixing.violations"] / tuples if tuples else 0.0,
        "averaging.quad_nodes": counts["averaging.quad_nodes"],
        "averaging.power_steps": counts["averaging.power_steps"],
        "finite.power_steps": counts["finite.power_steps"],
        "finite.step_flops": counts["finite.step_flops"],
        "joinings.lp_vars": lp_vars,
        "joinings.lp_rows": counts["joinings.lp_rows"],
        "lp.solves": solves,
        "lp.solves_per_var": solves / lp_vars if lp_vars else 0.0,
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = scale * tracer.self_s[layer]
    return metrics


def traced_pass(cli, items, work: Path, workload: str):
    """run_pass under a fresh tracer, plus the pass's per-layer metrics."""
    tracer = layers.Tracer()
    tracer.install()
    try:
        times, kernel, outcomes = run_pass(cli, items, work, workload)
    finally:
        tracer.restore()
    tracer.snapshot()
    for key in REQUIRED[workload]:
        if tracer.calls[key] == 0:
            raise BenchmarkError(f"{workload}: traced pass made no call to {key}")
    metrics = layer_metrics(tracer, speed.REFERENCE_S / statistics.median(kernel))
    for name in SEPARATION[workload]:
        if metrics[name] != 0:
            raise BenchmarkError(f"{workload}: {name} = {metrics[name]}, predicted 0")
    return times, kernel, outcomes, metrics


def _seconds(values: List[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "] s"


def measure(args, cli, items, work: Path) -> Tuple[Dict[str, float], List[str], int, int]:
    """Run the passes; (metrics, notes, attempted, failed)."""
    references = checks.load(REFERENCES / f"{args.workload}.json")
    deadline = perf_counter() + args.seconds
    # the first pass warms up, and is checked; it is not timed
    warm_times, warm_kernel, expected = run_pass(cli, items, work, args.workload)
    failures = check_pass(items, expected, references, work)
    if not artifacts_repeat(cli, items, work):
        failures[-1] = f"artifacts of {items[0][0]} differ between two runs"

    # set-up samples go between passes, so that they meet the same host
    # conditions as the passes do rather than one moment of them
    setup: List[float] = []
    setup_per_gap = 0 if args.trace else math.ceil(SETUP_REPEATS * sum(warm_times) / args.seconds)
    # in run order: (traced, raw item seconds, kernel seconds) of each timed pass
    passes: List[Tuple[bool, List[float], List[float]]] = []
    layer_runs: List[Dict[str, float]] = []
    traced = bool(args.trace)
    min_passes = 2 if args.trace else 3
    while perf_counter() < deadline or len(passes) < min_passes:
        setup.extend(setup_sample(args.workload, args.seed) for _ in range(setup_per_gap))
        if traced:
            times, kernel, outcomes, metrics = traced_pass(cli, items, work, args.workload)
            layer_runs.append(metrics)
        else:
            times, kernel, outcomes = run_pass(cli, items, work, args.workload)
        for i, outcome in enumerate(outcomes):
            if outcome != expected[i]:
                failures.setdefault(i, f"outcome {outcome!r} after {expected[i]!r}")
        passes.append((traced, times, kernel))
        if args.trace:
            traced = not traced

    # each item time is scaled by the kernel samples around it, over the run
    kernel = warm_kernel + [k for _, _, samples in passes for k in samples]
    scales = iter(speed.local_scales(kernel)[len(warm_kernel):])
    item_times = {False: [[] for _ in items], True: [[] for _ in items]}
    for traced, times, _ in passes:
        for i, t in enumerate(times):
            item_times[traced][i].append(t * next(scales))
    walls = {
        side: _seconds([sum(times) for traced, times, _ in passes if traced == side])
        for side in (False, True)
    }

    notes = [f"FAILED {items[i][0] if i >= 0 else 'repeat'}: {why}" for i, why in failures.items()]
    notes.append(
        f"speed kernel: median {1e3 * statistics.median(kernel):.3f} ms over the run, "
        f"reference {1e3 * speed.REFERENCE_S:g} ms"
    )
    attempted = len(items) + 1  # every item, and the byte-identical repeat
    if not args.trace:
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_sample(args.workload, args.seed))
        per_item = [statistics.median(ts) for ts in item_times[False]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_item),
            "item_p50_ms": 1e3 * statistics.median(per_item),
            "item_p90_ms": 1e3 * statistics.quantiles(per_item, n=100)[89],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes.append(
            f"raw pass walls {walls[False]} over {len(items)} items; item times are "
            f"per-item medians of {len(passes)} passes at the reference speed, "
            f"{sum(t > metrics['item_p90_ms'] / 1e3 for t in per_item)} items lie beyond "
            f"item_p90_ms; setup_s is the median of {len(setup)} samples"
        )
        return metrics, notes, attempted, len(failures)

    for name, _, exact in PER_LAYER:
        if exact and any(run[name] != layer_runs[0][name] for run in layer_runs):
            raise BenchmarkError(f"{name} differs between traced passes of one seed")
    metrics = {
        name: layer_runs[0][name] if exact else statistics.median(run[name] for run in layer_runs)
        for name, _, exact in PER_LAYER if name != "trace.overhead_ratio"
    }
    # both sides timed as wall_s is: per item, the median of its passes
    metrics["trace.overhead_ratio"] = sum(
        statistics.median(ts) for ts in item_times[True]
    ) / sum(statistics.median(ts) for ts in item_times[False])
    notes.append(f"raw pass walls: traced {walls[True]}, untraced {walls[False]}")
    notes.append(
        "waiting time: none -- no layer queues work, every call runs to "
        "completion on the caller's thread"
    )
    return metrics, notes, attempted, len(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        cli = import_package()
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    env = environment(args.seed)
    items = workloads.draw(args.workload, args.seed)
    try:
        metrics, notes, attempted, failed = measure(args, cli, items, work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    print(f"# workload {args.workload}, trace {args.trace}, environment {json.dumps(env)}")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"# {name:<24} {value:>16.6g} {units[name]}")
    print(f"# fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
