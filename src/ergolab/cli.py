"""Config-driven experiment runner with deterministic CSV and JSON output.

One JSON config describes one experiment; the runner writes ``<kind>.csv``
with the swept quantity and ``<kind>.json`` with a summary, then exits 0 when
the experiment's pass condition holds, 2 when it fails, and 1 on any usage or
config error.  CSV floats are printed with 17 significant digits (``%.17g``)
and rows are emitted in a fixed order, as one join: commas within a row,
CRLF after each.  Cells are plain by construction (``%.17g`` numbers, decimal
integers, fixed identifiers, ``scheme.label``, space-separated times), so no
cell needs quoting and the text is RFC 4180.  The JSON summary is encoded in one
pass by ``_json_text``: two-space indent, sorted keys, ASCII-escaped strings,
floats in their shortest ``repr`` (``NaN``, ``Infinity``, ``-Infinity`` where
not finite) and a trailing newline, the stdlib ``json`` text with
``indent=2, sort_keys=True``.  Both artifacts are encoded in memory before
either file is opened, so a value JSON cannot encode is a ``ConfigError``
that writes nothing.  Each file is then overwritten in place and cut to
length by ``_overwrite``; neither write is atomic.  Identical configs produce
byte-identical artifacts.

Each kind is declared once, with its runner, by ``@_experiment``: the
top-level fields it requires and accepts, and its description.
``run_experiment`` checks a config against that declaration, which is also
what ``ergolab list --json`` prints, and turns a domain ``ValueError`` raised
by a runner into a :class:`ConfigError`; ``_at`` does so inside a block,
adding the location, and also for the ``ZeroDivisionError`` of a fraction
string such as ``"1/0"``.  ``main`` prints a ``ConfigError``, a config it
cannot read or decode, or an ``OSError`` from writing the artifacts, as a
single ``error:`` line.

Only the word layers (``words``, ``dual``, ``mixing``) are imported with this
module.  The six matrix kinds (``mean-ergodic``, ``folner-defect``,
``section4``, ``tensor``, ``thm215``, ``joinings``) import ``averaging``,
``finite``, ``joinings`` and numpy inside their runners and parsers, on every
call, so ``ergolab list`` and the five word-layer kinds run without numpy,
and a callable rebound in its module is the one called.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import mixing
from .dual import AlgebraElement, L2Vector, State
from .words import Alphabet, Word

if TYPE_CHECKING:  # the matrix layers load numpy: each runner imports them as it runs
    import numpy as np
    from .averaging import WeightScheme
    from .finite import FourStateSystem, MarkovSystem
    from .joinings import FactorSpec, PermutationSystem


class ConfigError(ValueError):
    """Unusable configuration: unknown fields, bad types, unresolved names."""


def _fmt(x: float) -> str:
    """Fixed float formatting: 17 significant digits."""
    return "%.17g" % float(x)


def _matrix_rows(matrix: Any, complex_cells: bool = False) -> List[List[str]]:
    """Row-major CSV rows ``i, j, cell`` of a 2-D array, a complex cell as ``re, im``."""
    return [
        [str(i), str(j), *map(_fmt, (cell.real, cell.imag) if complex_cells else (cell,))]
        for i, row in enumerate(matrix.tolist())
        for j, cell in enumerate(row)
    ]


def _once(fmt: Callable[[Any], Any], values: Iterable[Any]) -> list:
    """``fmt`` of each value, run once per value object (a copy past a horizon
    recurs).  The memo is keyed by ``id``, since ``-0.0 == 0.0`` prints
    differently, so the values must outlive the call; ``fmt``'s output is truthy."""
    memo: Dict[int, Any] = {}
    return [memo.get(id(v)) or memo.setdefault(id(v), fmt(v)) for v in values]


def _value_rows(values: Sequence[complex]) -> List[Tuple[str, str]]:
    """CSV rows ``n, re, im, abs`` of a sequence, n from 1.  Each value object
    is formatted ``_once``, as one pre-joined ``re,im,abs`` cell of plain
    ``%.17g`` numbers, so a row is ``(str(n), cell)`` and needs no quoting."""
    cells = _once(lambda v: "%.17g,%.17g,%.17g" % (v.real, v.imag, abs(v)), values)
    return [(str(n), cell) for n, cell in enumerate(cells, 1)]


def _plain(value: Any, where: str = "results") -> Any:
    """Results as JSON-native values: a numpy array or scalar through its own
    ``tolist()``, tuples as lists, keys as strings, a complex as ``{"re", "im"}``.
    A float or complex value that is NaN or infinite is a ``ConfigError`` at its
    key: the config's numbers overflowed, and no verdict is read off it."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v, f"{where}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, where) for v in value]
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"{where}: {value!r} is not finite; the input overflows floating point")
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the JSON text of each scalar type; bool and None have no subclasses
_JSON_SCALARS: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else _NONFINITE[float.__repr__(x)],
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_scalar(v: Any, refusal: str) -> Callable[[Any], str]:
    """The formatter of ``v``'s type or of the scalar type it subclasses (numpy.float64)."""
    f = _JSON_SCALARS.get(type(v))
    f = f or next((f for t, f in _JSON_SCALARS.items() if isinstance(v, t)), None)
    if f is None:
        raise TypeError(refusal.format(type(v).__name__))
    return f


def _json_text(value: Any) -> str:
    """The stdlib ``json`` text of ``value`` with ``indent=2, sort_keys=True``, and a
    newline, in one pass; key conversion and order and the ``TypeError`` and
    ``ValueError`` raised are ``json``'s.  Parts are joined into a chunk whenever a
    container closes past 1,000 of them, so that few small strings are held."""
    chunks: List[str] = []
    parts: List[str] = []
    put, scalar = parts.append, _JSON_SCALARS.get
    open_ids = set()  # the containers being written: meeting one again is a cycle

    def emit(v: Any, pad: str) -> None:
        is_dict = isinstance(v, dict)
        if not is_dict and not isinstance(v, (list, tuple)):
            return put(_json_scalar(v, "Object of type {} is not JSON serializable")(v))
        if not v:
            return put("{}" if is_dict else "[]")
        if id(v) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(v))
        inner = pad + "  "
        sep, later = ("{\n" if is_dict else "[\n") + inner, ",\n" + inner
        for x in sorted(v.items()) if is_dict else v:
            if is_dict:
                k, x = x
                if not isinstance(k, str):
                    k = _json_scalar(k, "keys must be str, int, float, bool or None, not {}")(k)
                sep += encode_basestring_ascii(k) + ": "
            f = scalar(type(x))
            if f is None:
                put(sep)
                emit(x, inner)
            else:
                put(sep + f(x))
            sep = later
        put(f"\n{pad}{'}' if is_dict else ']'}")
        open_ids.discard(id(v))
        if len(parts) > 1000:
            chunks.append("".join(parts))
            parts.clear()

    emit(value, "")
    put("\n")
    return "".join(chunks) + "".join(parts)


class _at:
    """``with _at(where):`` reports a domain error raised inside as a config
    error at ``where``; a ``ConfigError`` passes through unchanged.  A class,
    not a ``contextlib`` generator: the parsers enter a block per state and
    operator, and a generator block costs twice as much."""

    __slots__ = ("where",)

    def __init__(self, where: str):
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, (ValueError, ZeroDivisionError)) and not isinstance(exc, ConfigError):
            raise ConfigError(f"{self.where}: {exc}") from exc


# -- field readers ---------------------------------------------------------------


def _take(block: Any, where: str, required: Sequence[str], optional: Sequence[str] = ()) -> Dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"{where}: missing fields {missing}")
    return block


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _each(read: Callable[[Any, str], Any], value: Any, where: str) -> tuple:
    """``read(entry, where[])`` of each entry of the list ``value``."""
    return tuple(read(entry, f"{where}[]") for entry in _list(value, where))


def _positive_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer")
    return value


def _integer(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer")
    return value


def _number(value: Any, where: str) -> float:
    """A finite float; booleans, strings, NaN and the infinities are refused."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, (bool, str)) or not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _rational(value: Any, where: str) -> Any:
    """A string such as ``"1/3"`` or a finite number, for the exact layers."""
    if isinstance(value, str) or (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    ):
        return value
    raise ConfigError(f"{where}: expected a number or a fraction string, got {value!r}")


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_indices(value: Any) -> List[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError("indices: expected a nonempty list")
    out = []
    for entry in value:
        if _number(entry, "indices[]") <= 0:
            raise ConfigError("indices: entries must be positive numbers")
        out.append(entry)
    return out


def _parse_permutation(config: Dict) -> Optional[Tuple[int, ...]]:
    perm = config.get("permutation")
    if perm is None:
        return None
    return _each(_integer, perm, "permutation")


# -- block parsers ---------------------------------------------------------------


def _parse_alphabet(obj: Any) -> Alphabet:
    block = _take(obj, "alphabet", ["families"])
    fams = []
    for entry in _list(block["families"], "alphabet.families"):
        e = _take(entry, "alphabet.families[]", ["name", "kind"], ["length"])
        if e["kind"] == "shift":
            if "length" in e:
                raise ConfigError("shift families take no length")
            fams.append((e["name"], None))
        elif e["kind"] == "cycle":
            fams.append((e["name"], _positive_int(e.get("length"), "cycle length")))
        else:
            raise ConfigError(f"family kind must be 'shift' or 'cycle', got {e['kind']!r}")
    return Alphabet(fams)


def _parse_terms(
    alphabet: Alphabet, obj: Any, where: str, what: str
) -> List[Tuple[Word, complex]]:
    """A list of ``{"word", "re", "im"}`` terms as (word, coefficient) pairs."""
    if not isinstance(obj, list):
        raise ConfigError(f"{where}: expected a list of {what}")
    pairs = []
    for entry in obj:
        term = _take(entry, f"{where}[]", ["word"], ["re", "im"])
        if not isinstance(term["word"], str):
            raise ConfigError(f"{where}[].word: expected a string, got {term['word']!r}")
        re = _number(term.get("re", 0.0), f"{where}[].re")
        im = _number(term.get("im", 0.0), f"{where}[].im")
        pairs.append((alphabet.word(term["word"]), complex(re, im)))
    return pairs


def _parse_element(alphabet: Alphabet, obj: Any, where: str) -> AlgebraElement:
    with _at(where):
        return AlgebraElement.from_terms(alphabet, _parse_terms(alphabet, obj, where, "terms"))


def _parse_elements(alphabet: Alphabet, obj: Any, where: str) -> List[AlgebraElement]:
    return [
        _parse_element(alphabet, e, f"{where}[{i}]") for i, e in enumerate(_list(obj, where))
    ]


def _parse_vector(alphabet: Alphabet, block: Dict, where: str) -> L2Vector:
    """A vector state's or a mixture component's ``amplitudes``, normalized
    unless its ``normalize`` is false."""
    normalize = _flag(block.get("normalize", True), f"{where}.normalize")
    terms = _parse_terms(alphabet, block["amplitudes"], where, "amplitudes")
    vec = L2Vector.from_terms(alphabet, terms)
    return vec.normalized() if normalize else vec


def _parse_state(alphabet: Alphabet, obj: Any, where: str = "state") -> State:
    block = _take(obj, where, ["kind"], ["amplitudes", "components", "normalize"])
    kind = block["kind"]
    with _at(where):
        if kind == "trace":
            _take(block, f"{where}: trace state", ["kind"])
            return State.trace()
        if kind == "vector":
            _take(block, f"{where}: vector state", ["kind", "amplitudes"], ["normalize"])
            return State.vector_state(_parse_vector(alphabet, block, where))
        if kind == "mixture":
            _take(block, f"{where}: mixture", ["kind", "components"])
            pairs = []
            for comp in _list(block["components"], f"{where}.components"):
                e = _take(comp, f"{where}.components[]", ["weight", "amplitudes"], ["normalize"])
                vec = _parse_vector(alphabet, e, where)
                pairs.append((_number(e["weight"], f"{where}.weight"), vec))
            return State.mixture(pairs)
    raise ConfigError(f"{where}: unknown state kind {kind!r}")


def _parse_scheme(config: Dict, default_domain: str) -> WeightScheme:
    """The config's ``scheme`` block; uniform weights when it has none."""
    from .averaging import WeightScheme

    block = _take(
        config.get("scheme", {"family": "uniform"}), "scheme", ["family"],
        ["domain", "exponent", "samples"],
    )
    kwargs: Dict[str, Any] = {}
    if "exponent" in block:
        kwargs["exponent"] = _number(block["exponent"], "scheme.exponent")
    if "samples" in block:
        kwargs["samples"] = _each(_number, block["samples"], "scheme.samples")
    return WeightScheme(block.get("domain", default_domain), block["family"], **kwargs)


def _parse_complex_cell(value: Any, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_number(value, where))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], where), _number(value[1], where))
    raise ConfigError(f"{where}: matrix entries are numbers or [re, im] pairs")


def _parse_matrix(obj: Any, where: str) -> np.ndarray:
    import numpy as np

    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ConfigError(f"{where}: expected a dense row-major matrix")
    rows = [[_parse_complex_cell(v, where) for v in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{where}: ragged matrix")
    return np.array(rows, dtype=complex)


def _parse_rationals(obj: Any, where: str) -> Tuple:
    return _each(_rational, obj, where)


def _parse_rational_matrix(obj: Any, where: str) -> Tuple:
    return _each(_parse_rationals, obj, where)


def _parse_classical(obj: Any, where: str) -> PermutationSystem:
    from .joinings import PermutationSystem

    block = _take(obj, where, ["permutation", "measure"])
    permutation = _each(_integer, block["permutation"], f"{where}.permutation")
    measure = _parse_rationals(block["measure"], f"{where}.measure")
    with _at(where):
        return PermutationSystem(permutation=permutation, measure=measure)


def _four_state(block: Dict, where: str) -> FourStateSystem:
    from .finite import four_state_system

    return four_state_system(
        _number(block.get("p", 0.5), f"{where}p"),
        family_points=_integer(block.get("family_points", 20), f"{where}family_points"),
        normalization=block.get("normalization", "as-written"),
    )


def _parse_markov(obj: Any, where: str) -> MarkovSystem:
    import numpy as np
    from .finite import MarkovSystem

    four_state = ["p", "projection", "family_points", "normalization"]
    matrix = ["transition", "idempotent", "functionals"]
    block = _take(obj, where, ["type"], four_state + matrix)
    kind = block["type"]
    with _at(where):
        if kind == "section4":
            _take(block, f"{where}: section4 system", ["type"], four_state)
            sys4 = _four_state(block, f"{where}.")
            which = block.get("projection", "EL")
            if which == "EL":
                return sys4.as_markov(sys4.proj_peripheral, sys4.family)
            if which == "Efix":
                return sys4.as_markov(sys4.proj_fixed, np.eye(4))
            raise ConfigError(f"{where}: projection must be 'EL' or 'Efix'")
        if kind == "matrix":
            _take(block, f"{where}: matrix system", ["type"], matrix)
            for key in matrix:
                if key not in block:
                    raise ConfigError(f"{where}: matrix system needs {key}")
            return MarkovSystem(
                transition=_parse_matrix(block["transition"], f"{where}.transition"),
                idempotent=_parse_matrix(block["idempotent"], f"{where}.idempotent"),
                functionals=_parse_matrix(block["functionals"], f"{where}.functionals"),
            )
    raise ConfigError(f"{where}: system type must be 'section4' or 'matrix'")


def _parse_factor(obj: Any) -> FactorSpec:
    from .joinings import FactorSpec

    block = _take(obj, "factor", ["generators", "cell_masses"])
    generators = _each(_parse_rational_matrix, block["generators"], "factor.generators")
    masses = _parse_rationals(block["cell_masses"], "factor.cell_masses")
    with _at("factor"):
        return FactorSpec(generators=generators, cell_masses=masses)


def _matches(got: Any, wanted: Any) -> bool:
    """Numbers within 1e-12, lists entry by entry, objects (a complex result's
    ``{"re", "im"}``) key by key over the same keys, all else (bools too) exactly."""
    if isinstance(wanted, list):
        same_length = isinstance(got, list) and len(got) == len(wanted)
        return same_length and all(map(_matches, got, wanted))
    if isinstance(wanted, dict):
        same_keys = isinstance(got, dict) and got.keys() == wanted.keys()
        return same_keys and all(_matches(got[key], wanted[key]) for key in wanted)
    if isinstance(got, bool) or isinstance(wanted, bool):
        return got is wanted
    if isinstance(got, (int, float)) and isinstance(wanted, (int, float)):
        return abs(float(got) - float(wanted)) <= 1e-12
    return got == wanted


def _apply_expectations(config: Dict, results: Dict, passed: bool) -> Tuple[bool, Dict]:
    expect = config.get("expect")
    if expect is None:
        return passed, results
    if not isinstance(expect, dict):
        raise ConfigError("expect: expected an object of result-key assertions")
    failures = []
    for key, wanted in expect.items():
        if key not in results:
            failures.append({"key": key, "reason": "absent"})
            continue
        if not _matches(results[key], wanted):
            failures.append({"key": key, "wanted": wanted, "got": results[key]})
    if failures:
        results = dict(results)
        results["expect_failures"] = failures
        return False, results
    return passed, results


# -- experiments -----------------------------------------------------------------

# the CSV header of an invariant mean's cells
_MEAN_HEADER = ["row", "col", "mean_re", "mean_im"]

_Outcome = Tuple[Dict[str, Any], List[str], List[Sequence[str]], bool]


class _Experiment(NamedTuple):
    run: Callable[[Dict], _Outcome]
    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    description: str


_EXPERIMENTS: Dict[str, _Experiment] = {}


def _experiment(kind: str, required: Sequence[str], optional: Sequence[str], description: str):
    """Register a runner under ``kind`` with the top-level fields its config takes.

    Every kind also requires ``experiment`` and accepts ``expect``.  The runner
    gets a config that has passed this check and returns (results, CSV
    header, CSV rows, passed); the rows hold plain ``str`` cells only, which
    ``run_experiment`` joins without quoting.
    """

    def register(run: Callable[[Dict], _Outcome]) -> Callable[[Dict], _Outcome]:
        _EXPERIMENTS[kind] = _Experiment(run, tuple(required), (*optional, "expect"), description)
        return run

    return register


@_experiment("mean-ergodic", ["flow", "vector", "scheme", "indices"], ["tolerance"],
             "weighted flow averages against the fixed-space projection")
def _run_mean_ergodic(config: Dict) -> _Outcome:
    import numpy as np
    from .averaging import (CONTINUOUS, DISCRETE, PowerContraction, UnitaryFlow,
                            fixed_space_projection, weighted_mean_flow)

    flow_block = _take(config["flow"], "flow", ["kind"], ["generator", "matrix"])
    domain = flow_block["kind"]
    if domain == CONTINUOUS:
        key, flow_class = "generator", UnitaryFlow
    elif domain == DISCRETE:
        key, flow_class = "matrix", PowerContraction
    else:
        raise ConfigError("flow kind must be 'continuous' or 'discrete'")
    _take(flow_block, f"flow: {domain} flow", ["kind", key])
    matrix = _parse_matrix(flow_block[key], f"flow.{key}")
    with _at("flow"):
        flow = flow_class(matrix)
    vector = np.array(_each(_parse_complex_cell, config["vector"], "vector"), dtype=complex)
    if len(vector) != flow.dimension:
        raise ConfigError(
            f"vector: expected {flow.dimension} entries for the flow, got {len(vector)}"
        )
    scheme = _parse_scheme(config, domain)
    indices = _parse_indices(config["indices"])
    tolerance = _number(config.get("tolerance", 0.05), "tolerance")
    target = fixed_space_projection(flow) @ vector
    errors = []
    rows = []
    for index in indices:
        mean = weighted_mean_flow(flow, vector, scheme, index)
        err = float(np.linalg.norm(mean - target))
        errors.append(err)
        rows.append([_fmt(index), scheme.label, _fmt(err)])
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    passed = nonincreasing and errors[-1] <= tolerance
    results = {
        "errors": errors,
        "final_error": errors[-1],
        "nonincreasing": nonincreasing,
        "tolerance": tolerance,
    }
    return results, ["N", "scheme", "error"], rows, passed


@_experiment("folner-defect", ["scheme", "shift", "indices"], [],
             "normalized shift defects of a weight family")
def _run_folner_defect(config: Dict) -> _Outcome:
    from .averaging import CONTINUOUS, folner_defect

    scheme = _parse_scheme(config, CONTINUOUS)
    shift = config["shift"]
    _number(shift, "shift")  # folner_defect refuses a shift that is not positive
    indices = _parse_indices(config["indices"])
    defects = [folner_defect(scheme, shift, index) for index in indices]
    rows = [[_fmt(i), scheme.label, _fmt(d)] for i, d in zip(indices, defects)]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    results = {"defects": defects, "strictly_decreasing": decreasing}
    return results, ["N", "scheme", "defect"], rows, decreasing


@_experiment("mixing-decay", ["alphabet", "operator", "state", "n_max"], [],
             "state decay of a shifted element toward its finite-orbit part")
def _run_mixing_decay(config: Dict) -> _Outcome:
    alphabet = _parse_alphabet(config["alphabet"])
    operator = _parse_element(alphabet, config["operator"], "operator")
    state = _parse_state(alphabet, config["state"])
    n_max = _positive_int(config["n_max"], "n_max")
    seq = mixing.decay_sequence(state, operator, n_max)
    rows = _value_rows(seq)
    nonzero = [n + 1 for n, v in enumerate(seq) if abs(v) > 1e-12]
    last = nonzero[-1] if nonzero else None
    results = {
        "nonzero_count": len(nonzero),
        "last_nonzero": last,
        "vanishes_in_window": last is None or last < n_max,
    }
    return results, ["n", "re", "im", "abs"], rows, bool(results["vanishes_in_window"])


@_experiment("multitime", ["alphabet", "state", "operators", "times"], ["permutation"],
             "one multitime correlation and its finite-orbit difference")
def _run_multitime(config: Dict) -> _Outcome:
    alphabet = _parse_alphabet(config["alphabet"])
    state = _parse_state(alphabet, config["state"])
    operators = _parse_elements(alphabet, config["operators"], "operators")
    times = config["times"]
    if not isinstance(times, list) or len(times) != len(operators):
        raise ConfigError("times must list one integer per operator")
    for t in times:
        _integer(t, "times[]")
    permutation = _parse_permutation(config)
    value = mixing.correlation(state, operators, times, permutation)
    difference = mixing.correlation_difference(state, operators, times, permutation)
    cells = (value.real, value.imag, difference.real, difference.imag)
    rows = [(" ".join(map(str, times)), *map(_fmt, cells))]
    results = {"value": value, "difference": difference}
    return results, ["times", "re", "im", "difference_re", "difference_im"], rows, True


@_experiment("gap-search", ["alphabet", "operators", "states", "scan_window", "gap_max"],
             ["permutation", "zero_tol"],
             "exhaustive gap threshold scan for a correlation difference")
def _run_gap_search(config: Dict) -> _Outcome:
    alphabet = _parse_alphabet(config["alphabet"])
    operators = _parse_elements(alphabet, config["operators"], "operators")
    states = [
        _parse_state(alphabet, obj, f"states[{i}]")
        for i, obj in enumerate(_list(config["states"], "states"))
    ]
    if not states:
        raise ConfigError("states: need at least one state")
    result = mixing.gap_scan(
        states,
        operators,
        _parse_permutation(config),
        scan_window=_positive_int(config["scan_window"], "scan_window"),
        gap_max=_positive_int(config["gap_max"], "gap_max"),
        zero_tol=_number(config.get("zero_tol", 1e-12), "zero_tol"),
    )
    k = len(operators)
    header = [f"n{j + 1}" for j in range(k)] + ["state", "magnitude"]
    # one pre-joined cell per violation: the times, the state and the magnitude
    cells = ",".join(["%d"] * (k + 1) + ["%.17g"])
    rows = [(cells % (*v.times, v.state_index, v.magnitude),) for v in result.violations]
    results = {
        "threshold": result.threshold,
        "violation_count": len(result.violations),
        "scanned": result.scanned,
        "counterexample": result.counterexample or None,
    }
    return results, header, rows, result.threshold is not None


@_experiment("furstenberg", ["alphabet", "factor", "order", "sweep"], ["absolute"],
             "diagonal recurrence average of factor * factor-adjoint")
def _run_furstenberg(config: Dict) -> _Outcome:
    alphabet = _parse_alphabet(config["alphabet"])
    factor = _parse_element(alphabet, config["factor"], "factor")
    order = _positive_int(config["order"], "order")
    sweep = _positive_int(config["sweep"], "sweep")
    absolute = _flag(config.get("absolute", True), "absolute")
    result = mixing.furstenberg_average(factor, order, sweep, absolute=absolute)
    rows = _value_rows(result.values)
    results = {
        "average": result.average,
        "comparison": result.comparison,
        "positive": result.positive,
    }
    return results, ["n", "re", "im", "abs"], rows, result.positive


@_experiment("bergelson", ["alphabet", "operators", "m_base", "n_base", "count"],
             ["equality_tolerance"], "double recurrence average over a square of shift pairs")
def _run_bergelson(config: Dict) -> _Outcome:
    alphabet = _parse_alphabet(config["alphabet"])
    ops = config["operators"]
    if not isinstance(ops, list) or len(ops) != 4:
        raise ConfigError("operators: the double average takes exactly 4 elements")
    a0, a1, a2, a3 = _parse_elements(alphabet, ops, "operators")
    m_base = _integer(config["m_base"], "m_base")
    n_base = _integer(config["n_base"], "n_base")
    tol = config.get("equality_tolerance")
    if tol is not None:
        tol = _number(tol, "equality_tolerance")
    result = mixing.bergelson_average(
        a0, a1, a2, a3, m_base, n_base, _positive_int(config["count"], "count")
    )
    # the projected value of a residue pair is one object
    projected = _once(_fmt, (ev for *_, ev in result.values))
    rows = [("%d,%d,%.17g" % (m, n, v), p) for (m, n, v, _), p in zip(result.values, projected)]
    results = {
        "average": result.average,
        "projected_average": result.projected_average,
        "difference": result.difference,
    }
    passed = True if tol is None else result.difference <= tol
    return results, ["m", "n", "abs", "projected_abs"], rows, passed


@_experiment("section4", ["p", "sweep"], ["family_points", "normalization", "tolerances"],
             "the 4-state example: spectrum, both mean checks, invariant mean")
def _run_section4(config: Dict) -> _Outcome:
    import numpy as np
    from .finite import (FIXED, PERIPHERAL, NonConvergenceError, four_state_invariant_mean,
                         four_state_unique_ergodicity, four_state_weak_mixing)

    tols = _take(
        config.get("tolerances", {}), "tolerances", [],
        ["weak_mixing", "ergodic", "limit"],
    )
    tol_weak = _number(tols.get("weak_mixing", 1e-12), "tolerances.weak_mixing")
    tol_erg = _number(tols.get("ergodic", 1e-3), "tolerances.ergodic")
    tol_limit = _number(tols.get("limit", 1e-3), "tolerances.limit")
    sweep = _positive_int(config["sweep"], "sweep")
    sys4 = _four_state(config, "")
    eig = np.sort_complex(np.linalg.eigvals(sys4.transition))
    expected = np.sort_complex(np.array([sys4.p, 1.0, -1.0, 1.0], dtype=complex))
    eigen_ok = bool(np.max(np.abs(eig - expected)) <= 1e-10)
    identity = np.eye(4)
    wm_el = four_state_weak_mixing(sys4, PERIPHERAL, sys4.family, sweep, tol_weak)
    wm_fix = four_state_weak_mixing(sys4, FIXED, identity, sweep, tol_weak)
    erg_fix = four_state_unique_ergodicity(sys4, FIXED, identity, sweep, tol_erg)
    try:
        report = four_state_invariant_mean(sys4, sweep)
    except NonConvergenceError as exc:
        return {"converged": False, "error": str(exc)}, _MEAN_HEADER, [], False
    limit_error = float(np.max(np.abs(report.mean - sys4.proj_fixed)))
    results = {
        "eigenvalues_ok": eigen_ok,
        "weak_mixing_EL": wm_el.passed,
        "weak_mixing_EL_defect": wm_el.max_defect,
        "weak_mixing_Efix": wm_fix.passed,
        "weak_mixing_Efix_defect": wm_fix.max_defect,
        "weak_mixing_Efix_witness": wm_fix.witness,
        "weak_mixing_Efix_tail_min": wm_fix.witness_tail_min,
        "ergodic_Efix": erg_fix.passed,
        "ergodic_Efix_defect": erg_fix.max_defect,
        "limit_projection_error": limit_error,
        "limit_lawful": report.lawful,
        "family_unital": sys4.family_unital,
    }
    passed = (
        eigen_ok
        and wm_el.passed
        and not wm_fix.passed
        and erg_fix.passed
        and limit_error <= tol_limit
        and report.lawful
    )
    rows = _matrix_rows(report.mean, complex_cells=True)
    return results, _MEAN_HEADER, rows, passed


@_experiment("tensor", ["left", "right", "check", "sweep", "tolerance"], ["scheme"],
             "mean checks on a Kronecker product system")
def _run_tensor(config: Dict) -> _Outcome:
    from .averaging import DISCRETE
    from .finite import tensor_product, unique_ergodicity_check, weak_mixing_check

    left = _parse_markov(config["left"], "left")
    right = _parse_markov(config["right"], "right")
    system = tensor_product(left, right)
    scheme = _parse_scheme(config, DISCRETE)
    sweep = _positive_int(config["sweep"], "sweep")
    tolerance = _number(config["tolerance"], "tolerance")
    check = config["check"]
    if check == "weak-mixing":
        report = weak_mixing_check(system, scheme, sweep, tolerance)
    elif check == "ergodicity":
        report = unique_ergodicity_check(system, scheme, sweep, tolerance)
    else:
        raise ConfigError("check must be 'weak-mixing' or 'ergodicity'")
    results = {
        "check": check,
        "passed_check": report.passed,
        "max_defect": report.max_defect,
        "witness_functional": report.witness_functional,
        "witness_vector": report.witness_vector,
        "dimension": system.dimension,
    }
    rows = [[check, _fmt(report.max_defect), _fmt(tolerance)]]
    return results, ["check", "max_defect", "tolerance"], rows, report.passed


@_experiment("thm215", ["transition", "sweep"], ["scheme", "law_tolerance", "cauchy_tolerance"],
             "weighted power mean certified as the invariant projection")
def _run_thm215(config: Dict) -> _Outcome:
    from .averaging import DISCRETE
    from .finite import NonConvergenceError, invariant_mean_projection

    transition = _parse_matrix(config["transition"], "transition")
    scheme = _parse_scheme(config, DISCRETE)
    sweep = _positive_int(config["sweep"], "sweep")
    law_tol = _number(config.get("law_tolerance", 1e-6), "law_tolerance")
    cauchy_tol = _number(config.get("cauchy_tolerance", 5e-2), "cauchy_tolerance")
    try:
        report = invariant_mean_projection(
            transition, scheme, sweep, law_tolerance=law_tol, cauchy_tolerance=cauchy_tol
        )
    except NonConvergenceError as exc:
        return {"converged": False, "error": str(exc)}, _MEAN_HEADER, [], False
    results = {
        "converged": True,
        "idempotency_residual": report.idempotency_residual,
        "commutation_residual": report.commutation_residual,
        "cauchy_residual": report.cauchy_residual,
        "refinement_distance": report.refinement_distance,
        "lawful": report.lawful,
    }
    rows = _matrix_rows(report.mean, complex_cells=True)
    return results, _MEAN_HEADER, rows, report.lawful


@_experiment("joinings", ["left", "right"],
             ["factor", "couplings", "scheme", "sweep", "average_tolerance"],
             "relative disjointness certificate and coupling orbit averages")
def _run_joinings(config: Dict) -> _Outcome:
    from .averaging import DISCRETE
    from .joinings import (JoiningInfeasibleError, coupling_of, joining_polytope,
                           relative_disjointness, weighted_coupling_average)

    if "couplings" not in config:  # scheme, sweep and average_tolerance weigh couplings
        _take(config, "config without couplings", ["experiment", "left", "right"],
              ["factor", "expect"])
    left = _parse_classical(config["left"], "left")
    right = _parse_classical(config["right"], "right")
    factor = _parse_factor(config["factor"]) if "factor" in config else None
    with _at("factor"):
        polytope = joining_polytope(left, right, factor)
    try:
        report = relative_disjointness(polytope)
    except JoiningInfeasibleError as exc:
        return (
            {"disjoint": None, "feasible": False, "error": str(exc)},
            ["x", "y", "value"],
            [],
            False,
        )
    results: Dict[str, Any] = {
        "disjoint": report.disjoint,
        "feasible": True,
        "spread": report.spread,
    }
    rows: List[List[str]] = []
    if report.disjoint:
        rows = _matrix_rows(report.unique_joining)
        results["unique_joining"] = report.unique_joining
    else:
        results["witnesses"] = report.witnesses
    passed = True
    if "couplings" in config:
        family = []
        for i, mat in enumerate(_list(config["couplings"], "couplings")):
            where = f"couplings[{i}]"
            matrix = _parse_rational_matrix(mat, where)
            with _at(where):
                family.append(coupling_of(left, right, matrix))
        scheme = _parse_scheme(config, DISCRETE)
        sweep = _positive_int(config.get("sweep", 1), "sweep")
        average = weighted_coupling_average(left, right, family, scheme, sweep)
        avg = average.as_array()
        rows = _matrix_rows(avg)
        # a finite average reaches the joining polytope only in the limit;
        # the membership tolerance is therefore configurable
        avg_tol = _number(config.get("average_tolerance", 1e-9), "average_tolerance")
        results["average_in_polytope"] = polytope.contains(avg, tol=avg_tol)
        results["average_residual"] = polytope.residual(avg)
        if report.disjoint:
            dist = float(abs(avg - report.unique_joining).max())
            results["average_distance_to_unique"] = dist
        passed = bool(results["average_in_polytope"])
    return results, ["x", "y", "value"], rows, passed


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        schema = {
            kind: {"required": e.required, "optional": e.optional, "description": e.description}
            for kind, e in _EXPERIMENTS.items()
        }
        return _json_text(schema)[:-1]
    width = max(len(k) for k in _EXPERIMENTS)
    lines = []
    for kind, e in _EXPERIMENTS.items():
        lines.append(f"{kind.ljust(width)}  {e.description}")
        lines.append(f"{' ' * width}  required: {', '.join(e.required)}")
        lines.append(f"{' ' * width}  optional: {', '.join(e.optional)}")
    return "\n".join(lines)


def _overwrite(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` over the old bytes and then cut to length:
    without ``O_TRUNC``, ext4 does not start writeback of a truncated file on
    close.  The text is encoded as UTF-8 and goes to the descriptor by
    ``os.write``, with no buffered text layer or newline translation.  The
    artifacts are ASCII (the JSON escapes every other character, the tables
    hold numbers and ASCII names), so these are the bytes that
    ``open(path, "w", newline="")`` writes in any locale.  Not atomic."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, written)
    finally:
        os.close(fd)


def run_experiment(config: Dict, out_dir: Path, quiet: bool = False) -> int:
    """Run one config and write ``<kind>.csv`` and ``<kind>.json`` to ``out_dir``;
    0 on pass, 2 on a failed check.  The table is one join of the runner's
    plain cells, which need no quoting; its bytes are ``csv.writer``'s."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("experiment")
    experiment = _EXPERIMENTS.get(kind) if isinstance(kind, str) else None
    if experiment is None:
        raise ConfigError(
            f"unknown experiment {kind!r}; valid kinds: {', '.join(_EXPERIMENTS)}"
        )
    _take(config, "config", ("experiment", *experiment.required), experiment.optional)
    try:
        results, header, rows, passed = experiment.run(config)
    except ConfigError:
        raise
    except ValueError as exc:
        # the one boundary for domain errors: scheme, alphabet and word
        # errors, invalid systems, refused work budgets
        raise ConfigError(str(exc)) from exc
    # expectations compare the values that the JSON holds
    passed, results = _apply_expectations(config, _plain(results), passed)

    summary = {
        "experiment": kind,
        "parameters": {k: v for k, v in config.items() if k != "experiment"},
        "pass": bool(passed),
        "results": results,
    }
    try:
        # encoded before either file is opened: a refused value writes nothing
        text = _json_text(summary)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config: cannot be written as JSON: {exc}") from exc

    table = "\r\n".join(map(",".join, [header, *rows])) + "\r\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{kind}.csv"
    _overwrite(csv_path, table)
    json_path = out_dir / f"{kind}.json"
    _overwrite(json_path, text)
    if not quiet:
        print(f"{kind}: {'pass' if passed else 'FAIL'} -> {csv_path}, {json_path}")
    return 0 if passed else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergolab", description="run one configured experiment"
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a config file")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--out", type=Path, default=Path("."))
    run_p.add_argument("--quiet", action="store_true")
    list_p = sub.add_parser("list", help="list experiment kinds")
    list_p.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments(as_json=args.json))
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 1
    try:
        with open(args.config, "rb") as handle:  # UTF-8, -16 or -32, whatever the locale
            config = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:  # undecodable bytes and deep nesting too
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            # numpy's floating-point reports: ``_plain`` refuses a result left
            # NaN or infinite, so they would only repeat that on stderr
            warnings.filterwarnings("ignore", ".* encountered in ", RuntimeWarning)
            return run_experiment(config, args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the runners do no I/O: this is the output's
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
