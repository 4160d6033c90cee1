"""Per-layer tracing of the ``ergolab`` package, from outside the package.

A :class:`Tracer` wraps the public callables of every layer module (public
functions, public methods, the arithmetic and call operators, and the
constructors that validate) and rebinds each wrapper wherever the original is
bound in ``ergolab.*`` -- ``merge_runs``, for example, is bound in ``words``,
``dual`` and ``mixing``.  Each call is one span: its duration goes to the
callable, and its duration minus that of the traced calls made inside it goes
to its layer's self time.  Hooks read work counts from arguments and results;
their own cost is hidden from every span.  :meth:`Tracer.restore` puts the
originals back.

No layer queues or waits for work: every call runs to completion on the
caller's thread, so there is no waiting time to report.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

LAYERS = ("cli", "words", "dual", "mixing", "averaging", "finite", "joinings", "lp")

_OPERATORS = frozenset(
    {"__call__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__pow__"}
)

# real flops (4 multiplies, 4 adds) per complex multiply-add, for finite.step_flops
_FLOPS_PER_CMAC = 8


def _callables(module) -> Iterator[Tuple[str, object, str, object]]:
    """(name, owner, attribute, raw member) for each public callable of a module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            constructor = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
            for attr, member in vars(obj).items():
                public = not attr.startswith("_") or attr in _OPERATORS or attr == constructor
                if public and isinstance(member, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", obj, attr, member
                elif public and inspect.isfunction(member):
                    yield f"{name}.{attr}", obj, attr, member


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span and count recorder for one traced pass; see the module docstring."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self._cells: Dict[str, list] = {}
        self._layer_cells: Dict[str, list] = {layer: [0.0] for layer in LAYERS}
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every public callable of every layer and rebind the wrappers."""
        modules = {layer: importlib.import_module(f"ergolab.{layer}") for layer in LAYERS}
        wrappers: Dict[int, object] = {}
        for layer, module in modules.items():
            for name, owner, attr, member in list(_callables(module)):
                key = f"{layer}.{name}"
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(self._wrap(key, layer, member.__func__))
                else:
                    wrapped = self._wrap(key, layer, member)
                    wrappers[id(member)] = wrapped
                self._rebind(owner, attr, wrapped)
        # a function is also bound wherever another module imported it
        for modname, module in list(sys.modules.items()):
            if modname == "ergolab" or modname.startswith("ergolab."):
                for attr, value in list(vars(module).items()):
                    wrapped = wrappers.get(id(value))
                    if wrapped is not None and inspect.isfunction(value):
                        self._rebind(module, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, key: str, layer: str, fn):
        cell = self._cells.setdefault(key, [0, 0.0])
        layer_cell = self._layer_cells[layer]
        stack = self._stack
        hook = HOOKS.get(key)
        counts = self.counts
        clock = perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                cell[0] += 1
                cell[1] += elapsed
                layer_cell[0] += elapsed - stack.pop()
                if hook is None:
                    stack[-1] += elapsed
                else:
                    hook(counts, args, kwargs, result)
                    stack[-1] += clock() - t0

        return traced

    def snapshot(self) -> None:
        """Copy the accumulated cells into ``calls``, ``seconds`` and ``self_s``."""
        for key, (n, seconds) in self._cells.items():
            self.calls[key] = n
            self.seconds[key] = seconds
        for layer, (seconds,) in self._layer_cells.items():
            self.self_s[layer] = seconds


# -- work counters -------------------------------------------------------------------
#
# Each hook gets (counts, args, kwargs, result); result is None when the call
# raised.


def _artifact_bytes(counts, args, kwargs, result) -> None:
    config, out_dir = _arg(args, kwargs, 0, "config"), _arg(args, kwargs, 1, "out_dir")
    kind = config.get("experiment")
    for suffix in (".csv", ".json"):
        path = out_dir / f"{kind}{suffix}"
        if path.exists():
            counts["cli.artifact_bytes"] += path.stat().st_size


def _term_pairs(counts, args, kwargs, result) -> None:
    left, right = args[0], args[1]
    if type(right) is type(left):
        counts["dual.mul.term_pairs"] += len(left) * len(right)


def _gap_scan(counts, args, kwargs, result) -> None:
    if result is not None:
        counts["mixing.tuples_scanned"] += result.scanned
        counts["mixing.violations"] += len(result.violations)


def _phase_sums(counts, args, kwargs, result) -> None:
    counts["averaging.quad_nodes"] += len(_arg(args, kwargs, 1, "ts"))


def _flow_mean(counts, args, kwargs, result) -> None:
    flow = _arg(args, kwargs, 0, "flow")
    if type(flow).__name__ == "PowerContraction":
        counts["averaging.power_steps"] += int(_arg(args, kwargs, 3, "index"))


def _system_shape(args, kwargs) -> Tuple[int, int, int, int]:
    """(sweep, d, |F|, vector columns) of a finite mean check."""
    system = _arg(args, kwargs, 0, "system")
    sweep = int(_arg(args, kwargs, 2, "sweep"))
    vectors = args[4] if len(args) > 4 else kwargs.get("vectors")
    d = system.transition.shape[0]
    cols = d if vectors is None else len(vectors[0])
    return sweep, d, system.functionals.shape[0], cols


def _ergodicity_check(counts, args, kwargs, result) -> None:
    sweep, d, _, _ = _system_shape(args, kwargs)
    counts["finite.power_steps"] += sweep
    counts["finite.step_flops"] += _FLOPS_PER_CMAC * sweep * d**3


def _weak_mixing_check(counts, args, kwargs, result) -> None:
    sweep, d, functionals, cols = _system_shape(args, kwargs)
    counts["finite.power_steps"] += sweep
    counts["finite.step_flops"] += _FLOPS_PER_CMAC * sweep * functionals * d * (d + cols)
    if result is not None and not result.passed:
        # the witness's running mean replays the sweep on one row
        counts["finite.power_steps"] += sweep
        counts["finite.step_flops"] += _FLOPS_PER_CMAC * sweep * (d * d + d)


def _invariant_mean(counts, args, kwargs, result) -> None:
    transition = _arg(args, kwargs, 0, "transition")
    sweep = int(_arg(args, kwargs, 2, "sweep"))
    d = len(transition)
    # weighted power means at sweep and at 2 * sweep
    counts["finite.power_steps"] += 3 * sweep
    counts["finite.step_flops"] += _FLOPS_PER_CMAC * 3 * sweep * d**3


def _disjointness(counts, args, kwargs, result) -> None:
    polytope = _arg(args, kwargs, 0, "polytope")
    counts["joinings.lp_vars"] += polytope.a_eq.shape[1]
    counts["joinings.lp_rows"] += polytope.a_eq.shape[0]


HOOKS: Dict[str, Callable] = {
    "cli.run_experiment": _artifact_bytes,
    "dual.AlgebraElement.__mul__": _term_pairs,
    "mixing.gap_scan": _gap_scan,
    "averaging.UnitaryFlow.phase_sums": _phase_sums,
    "averaging.weighted_mean_flow": _flow_mean,
    "finite.unique_ergodicity_check": _ergodicity_check,
    "finite.weak_mixing_check": _weak_mixing_check,
    "finite.invariant_mean_projection": _invariant_mean,
    "joinings.relative_disjointness": _disjointness,
}
