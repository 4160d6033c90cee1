"""Config-driven experiment runner with deterministic CSV and JSON output.

One JSON config describes one experiment; the runner writes ``<kind>.csv``
with the swept quantity and ``<kind>.json`` with a summary, then exits 0 when
the experiment's pass condition holds, 2 when it fails, and 1 on any usage or
config error.  Floats are printed with 17 significant digits and rows are
emitted in a fixed order, so identical configs produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import averaging, mixing
from .averaging import (
    CONTINUOUS,
    DISCRETE,
    PowerContraction,
    SchemeError,
    UnitaryFlow,
    WeightScheme,
    fixed_space_projection,
    folner_defect,
    weighted_mean_flow,
)
from .dual import AlgebraElement, L2Vector, State
from .finite import (
    MarkovSystem,
    NonConvergenceError,
    four_state_system,
    invariant_mean_projection,
    tensor_product,
    unique_ergodicity_check,
    weak_mixing_check,
)
from .joinings import (
    FactorSpec,
    JoiningInfeasibleError,
    PermutationSystem,
    coupling_of,
    joining_polytope,
    relative_disjointness,
    weighted_coupling_average,
)
from .words import Alphabet, AlphabetError, WordParseError


class ConfigError(ValueError):
    """Unusable configuration: unknown fields, bad types, unresolved names."""


def _fmt(x: float) -> str:
    """Fixed float formatting: 17 significant digits."""
    return "%.17g" % float(x)


def _plain(value: Any) -> Any:
    """Recursively convert results to JSON-native, deterministic values."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    return value


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


def _positive_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer")
    return value


def _integer(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer")
    return value


def _number(value: Any, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_indices(value: Any) -> List[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError("indices: expected a nonempty list")
    out = []
    for entry in value:
        if not isinstance(entry, (int, float)) or isinstance(entry, bool) or entry <= 0:
            raise ConfigError("indices: entries must be positive numbers")
        out.append(entry)
    return out


# -- block parsers ---------------------------------------------------------------


def _parse_alphabet(obj: Any) -> Alphabet:
    block = _take(obj, "alphabet", ["families"])
    fams = []
    for entry in block["families"]:
        e = _take(entry, "alphabet.families[]", ["name", "kind"], ["length"])
        if e["kind"] == "shift":
            if "length" in e:
                raise ConfigError("shift families take no length")
            fams.append((e["name"], None))
        elif e["kind"] == "cycle":
            fams.append((e["name"], _positive_int(e.get("length"), "cycle length")))
        else:
            raise ConfigError(f"family kind must be 'shift' or 'cycle', got {e['kind']!r}")
    try:
        return Alphabet(fams)
    except AlphabetError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_element(alphabet: Alphabet, obj: Any, where: str) -> AlgebraElement:
    if not isinstance(obj, list):
        raise ConfigError(f"{where}: expected a list of terms")
    for term in obj:
        _take(term, f"{where}[]", ["word"], ["re", "im"])
        _number(term.get("re", 0.0), f"{where}[].re")
        _number(term.get("im", 0.0), f"{where}[].im")
    try:
        return AlgebraElement.from_json(alphabet, obj)
    except (WordParseError, AlphabetError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_vector(alphabet: Alphabet, obj: Any, where: str, normalize: bool) -> L2Vector:
    if not isinstance(obj, list):
        raise ConfigError(f"{where}: expected a list of amplitudes")
    pairs = []
    for term in obj:
        e = _take(term, f"{where}[]", ["word"], ["re", "im"])
        try:
            word = alphabet.word(e["word"])
        except (WordParseError, AlphabetError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        re = _number(e.get("re", 0.0), f"{where}[].re")
        im = _number(e.get("im", 0.0), f"{where}[].im")
        pairs.append((word, complex(re, im)))
    vec = L2Vector.from_terms(alphabet, pairs)
    return vec.normalized() if normalize else vec


def _parse_state(alphabet: Alphabet, obj: Any, where: str = "state") -> State:
    block = _take(obj, where, ["kind"], ["amplitudes", "components", "normalize"])
    kind = block["kind"]
    if kind == "trace":
        return State.trace()
    if kind == "vector":
        if "amplitudes" not in block:
            raise ConfigError(f"{where}: vector state needs amplitudes")
        normalize = _flag(block.get("normalize", True), f"{where}.normalize")
        vec = _parse_vector(alphabet, block["amplitudes"], where, normalize)
        try:
            return State.vector_state(vec)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "mixture":
        if "components" not in block:
            raise ConfigError(f"{where}: mixture needs components")
        pairs = []
        for comp in block["components"]:
            e = _take(comp, f"{where}.components[]", ["weight", "amplitudes"], ["normalize"])
            normalize = _flag(e.get("normalize", True), f"{where}.normalize")
            vec = _parse_vector(alphabet, e["amplitudes"], where, normalize)
            pairs.append((_number(e["weight"], f"{where}.weight"), vec))
        try:
            return State.mixture(pairs)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown state kind {kind!r}")


def _parse_scheme(obj: Any, default_domain: str) -> WeightScheme:
    block = _take(obj, "scheme", ["family"], ["domain", "exponent", "samples"])
    domain = block.get("domain", default_domain)
    kwargs: Dict[str, Any] = {}
    if "exponent" in block:
        kwargs["exponent"] = float(block["exponent"])
    if "samples" in block:
        kwargs["samples"] = tuple(float(w) for w in block["samples"])
    try:
        return WeightScheme(domain, block["family"], **kwargs)
    except SchemeError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_complex_cell(value: Any, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}: matrix entries are numbers or [re, im] pairs")


def _parse_matrix(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ConfigError(f"{where}: expected a dense row-major matrix")
    rows = [[_parse_complex_cell(v, where) for v in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{where}: ragged matrix")
    return np.array(rows, dtype=complex)


def _parse_classical(obj: Any, where: str) -> PermutationSystem:
    block = _take(obj, where, ["permutation", "measure"])
    try:
        return PermutationSystem(
            permutation=tuple(block["permutation"]),
            measure=tuple(block["measure"]),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_markov(obj: Any, where: str) -> MarkovSystem:
    block = _take(
        obj, where, ["type"],
        ["transition", "idempotent", "functionals", "p", "projection", "family_points",
         "normalization"],
    )
    kind = block["type"]
    try:
        if kind == "section4":
            sys4 = four_state_system(
                float(block.get("p", 0.5)),
                family_points=int(block.get("family_points", 20)),
                normalization=block.get("normalization", "as-written"),
            )
            which = block.get("projection", "EL")
            if which == "EL":
                return sys4.as_markov(sys4.proj_peripheral, sys4.family)
            if which == "Efix":
                return sys4.as_markov(sys4.proj_fixed, np.eye(4))
            raise ConfigError(f"{where}: projection must be 'EL' or 'Efix'")
        if kind == "matrix":
            for key in ("transition", "idempotent", "functionals"):
                if key not in block:
                    raise ConfigError(f"{where}: matrix system needs {key}")
            return MarkovSystem(
                transition=_parse_matrix(block["transition"], f"{where}.transition"),
                idempotent=_parse_matrix(block["idempotent"], f"{where}.idempotent"),
                functionals=_parse_matrix(block["functionals"], f"{where}.functionals"),
            )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: system type must be 'section4' or 'matrix'")


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
        got = results[key]
        if isinstance(wanted, (int, float)) and not isinstance(wanted, bool) and isinstance(
            got, (int, float)
        ):
            if abs(float(got) - float(wanted)) > 1e-12:
                failures.append({"key": key, "wanted": wanted, "got": got})
        elif got != wanted:
            failures.append({"key": key, "wanted": wanted, "got": got})
    if failures:
        results = dict(results)
        results["expect_failures"] = failures
        return False, results
    return passed, results


# -- experiments -----------------------------------------------------------------


def _build_flow(flow_class, matrix: np.ndarray):
    try:
        return flow_class(matrix)
    except ValueError as exc:
        raise ConfigError(f"flow: {exc}") from exc


def _run_mean_ergodic(config: Dict):
    _take(
        config, "config", ["experiment", "flow", "vector", "scheme", "indices"],
        ["tolerance", "expect"],
    )
    flow_block = _take(config["flow"], "flow", ["kind"], ["generator", "matrix"])
    if flow_block["kind"] == "continuous":
        if "generator" not in flow_block:
            raise ConfigError("flow: continuous flow needs a generator")
        flow = _build_flow(
            UnitaryFlow, _parse_matrix(flow_block["generator"], "flow.generator")
        )
        default_domain = CONTINUOUS
    elif flow_block["kind"] == "discrete":
        if "matrix" not in flow_block:
            raise ConfigError("flow: discrete flow needs a matrix")
        flow = _build_flow(
            PowerContraction, _parse_matrix(flow_block["matrix"], "flow.matrix")
        )
        default_domain = DISCRETE
    else:
        raise ConfigError("flow kind must be 'continuous' or 'discrete'")
    vector = np.array(
        [_parse_complex_cell(v, "vector") for v in config["vector"]], dtype=complex
    )
    if len(vector) != flow.dimension:
        raise ConfigError(
            f"vector: expected {flow.dimension} entries for the flow, got {len(vector)}"
        )
    scheme = _parse_scheme(config["scheme"], default_domain)
    indices = _parse_indices(config["indices"])
    tolerance = float(config.get("tolerance", 0.05))
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


def _run_folner_defect(config: Dict):
    _take(config, "config", ["experiment", "scheme", "shift", "indices"], ["expect"])
    scheme = _parse_scheme(config["scheme"], CONTINUOUS)
    shift = config["shift"]
    if not isinstance(shift, (int, float)) or isinstance(shift, bool) or shift <= 0:
        raise ConfigError("shift must be positive")
    indices = _parse_indices(config["indices"])
    defects = [folner_defect(scheme, shift, index) for index in indices]
    rows = [[_fmt(i), scheme.label, _fmt(d)] for i, d in zip(indices, defects)]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    results = {"defects": defects, "strictly_decreasing": decreasing}
    return results, ["N", "scheme", "defect"], rows, decreasing


def _run_mixing_decay(config: Dict):
    _take(
        config, "config", ["experiment", "alphabet", "operator", "state", "n_max"],
        ["expect"],
    )
    alphabet = _parse_alphabet(config["alphabet"])
    operator = _parse_element(alphabet, config["operator"], "operator")
    state = _parse_state(alphabet, config["state"])
    n_max = _positive_int(config["n_max"], "n_max")
    seq = mixing.decay_sequence(state, operator, n_max)
    rows = [
        [str(n + 1), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))] for n, v in enumerate(seq)
    ]
    nonzero = [n + 1 for n, v in enumerate(seq) if abs(v) > 1e-12]
    last = nonzero[-1] if nonzero else None
    results = {
        "nonzero_count": len(nonzero),
        "last_nonzero": last,
        "vanishes_in_window": last is None or last < n_max,
    }
    return results, ["n", "re", "im", "abs"], rows, bool(results["vanishes_in_window"])


def _run_multitime(config: Dict):
    _take(
        config, "config", ["experiment", "alphabet", "state", "operators", "times"],
        ["permutation", "expect"],
    )
    alphabet = _parse_alphabet(config["alphabet"])
    state = _parse_state(alphabet, config["state"])
    operators = [
        _parse_element(alphabet, obj, f"operators[{i}]")
        for i, obj in enumerate(config["operators"])
    ]
    times = config["times"]
    if not isinstance(times, list) or len(times) != len(operators):
        raise ConfigError("times must list one integer per operator")
    for t in times:
        _integer(t, "times[]")
    try:
        value = mixing.correlation(state, operators, times, config.get("permutation"))
        difference = mixing.correlation_difference(
            state, operators, times, config.get("permutation")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        [
            " ".join(str(t) for t in times),
            _fmt(value.real),
            _fmt(value.imag),
            _fmt(difference.real),
            _fmt(difference.imag),
        ]
    ]
    results = {"value": value, "difference": difference}
    return results, ["times", "re", "im", "difference_re", "difference_im"], rows, True


def _run_gap_search(config: Dict):
    _take(
        config, "config",
        ["experiment", "alphabet", "operators", "states", "scan_window", "gap_max"],
        ["permutation", "zero_tol", "expect"],
    )
    alphabet = _parse_alphabet(config["alphabet"])
    operators = [
        _parse_element(alphabet, obj, f"operators[{i}]")
        for i, obj in enumerate(config["operators"])
    ]
    states = [
        _parse_state(alphabet, obj, f"states[{i}]")
        for i, obj in enumerate(config["states"])
    ]
    if not states:
        raise ConfigError("states: need at least one state")
    try:
        result = mixing.gap_scan(
            states,
            operators,
            config.get("permutation"),
            scan_window=_positive_int(config["scan_window"], "scan_window"),
            gap_max=_positive_int(config["gap_max"], "gap_max"),
            zero_tol=float(config.get("zero_tol", 1e-12)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    k = len(operators)
    header = [f"n{j + 1}" for j in range(k)] + ["state", "magnitude"]
    rows = [
        [str(t) for t in v.times] + [str(v.state_index), _fmt(v.magnitude)]
        for v in result.violations
    ]
    results = {
        "threshold": result.threshold,
        "violation_count": len(result.violations),
        "scanned": result.scanned,
        "counterexample": list(result.counterexample) if result.counterexample else None,
    }
    return results, header, rows, result.threshold is not None


def _run_furstenberg(config: Dict):
    _take(
        config, "config", ["experiment", "alphabet", "factor", "order", "sweep"],
        ["absolute", "expect"],
    )
    alphabet = _parse_alphabet(config["alphabet"])
    factor = _parse_element(alphabet, config["factor"], "factor")
    order = _positive_int(config["order"], "order")
    sweep = _positive_int(config["sweep"], "sweep")
    absolute = _flag(config.get("absolute", True), "absolute")
    try:
        result = mixing.furstenberg_average(factor, order, sweep, absolute=absolute)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        [str(n + 1), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
        for n, v in enumerate(result.values)
    ]
    results = {
        "average": result.average,
        "comparison": result.comparison,
        "positive": result.positive,
    }
    return results, ["n", "re", "im", "abs"], rows, result.positive


def _run_bergelson(config: Dict):
    _take(
        config, "config",
        ["experiment", "alphabet", "operators", "m_base", "n_base", "count"],
        ["equality_tolerance", "expect"],
    )
    alphabet = _parse_alphabet(config["alphabet"])
    ops = config["operators"]
    if not isinstance(ops, list) or len(ops) != 4:
        raise ConfigError("operators: the double average takes exactly 4 elements")
    a0, a1, a2, a3 = (
        _parse_element(alphabet, obj, f"operators[{i}]") for i, obj in enumerate(ops)
    )
    m_base = _integer(config["m_base"], "m_base")
    n_base = _integer(config["n_base"], "n_base")
    tol = config.get("equality_tolerance")
    if tol is not None:
        tol = _number(tol, "equality_tolerance")
    result = mixing.bergelson_average(
        a0, a1, a2, a3, m_base, n_base, _positive_int(config["count"], "count")
    )
    rows = [
        [str(m), str(n), _fmt(v), _fmt(ev)] for m, n, v, ev in result.values
    ]
    results = {
        "average": result.average,
        "projected_average": result.projected_average,
        "difference": result.difference,
    }
    passed = True if tol is None else result.difference <= tol
    return results, ["m", "n", "abs", "projected_abs"], rows, passed


def _run_section4(config: Dict):
    _take(
        config, "config", ["experiment", "p", "sweep"],
        ["family_points", "normalization", "tolerances", "expect"],
    )
    tols = _take(
        config.get("tolerances", {}), "tolerances", [],
        ["weak_mixing", "ergodic", "limit"],
    )
    tol_weak = float(tols.get("weak_mixing", 1e-12))
    tol_erg = float(tols.get("ergodic", 1e-3))
    tol_limit = float(tols.get("limit", 1e-3))
    sweep = _positive_int(config["sweep"], "sweep")
    try:
        sys4 = four_state_system(
            float(config["p"]),
            family_points=int(config.get("family_points", 20)),
            normalization=config.get("normalization", "as-written"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scheme = averaging.uniform(DISCRETE)
    eig = np.sort_complex(np.linalg.eigvals(sys4.transition))
    expected = np.sort_complex(np.array([sys4.p, 1.0, -1.0, 1.0], dtype=complex))
    eigen_ok = bool(np.max(np.abs(eig - expected)) <= 1e-10)
    basis = sys4.eigenbasis

    wm_el = weak_mixing_check(
        sys4.as_markov(sys4.proj_peripheral, sys4.family),
        scheme, sweep, tol_weak, vectors=basis,
    )
    wm_fix = weak_mixing_check(
        sys4.as_markov(sys4.proj_fixed, np.eye(4)),
        scheme, sweep, tol_weak, vectors=basis,
    )
    erg_fix = unique_ergodicity_check(
        sys4.as_markov(sys4.proj_fixed, np.eye(4)),
        scheme, sweep, tol_erg, vectors=basis,
    )
    report = invariant_mean_projection(sys4.transition, scheme, sweep)
    limit_error = float(np.max(np.abs(report.mean - sys4.proj_fixed)))
    results = {
        "eigenvalues_ok": eigen_ok,
        "weak_mixing_EL": wm_el.passed,
        "weak_mixing_EL_defect": wm_el.max_defect,
        "weak_mixing_Efix": wm_fix.passed,
        "weak_mixing_Efix_defect": wm_fix.max_defect,
        "weak_mixing_Efix_witness": list(wm_fix.witness),
        "weak_mixing_Efix_tail_min": wm_fix.witness_tail_min,
        "ergodic_Efix": erg_fix.passed,
        "ergodic_Efix_defect": erg_fix.max_defect,
        "limit_projection_error": limit_error,
        "limit_lawful": report.lawful,
        "family_unital": list(sys4.family_unital),
    }
    passed = (
        eigen_ok
        and wm_el.passed
        and not wm_fix.passed
        and erg_fix.passed
        and limit_error <= tol_limit
        and report.lawful
    )
    rows = [
        [str(i), str(j), _fmt(report.mean[i, j].real), _fmt(report.mean[i, j].imag)]
        for i in range(4)
        for j in range(4)
    ]
    return results, ["row", "col", "mean_re", "mean_im"], rows, passed


def _run_tensor(config: Dict):
    _take(
        config, "config",
        ["experiment", "left", "right", "check", "sweep", "tolerance"],
        ["scheme", "expect"],
    )
    left = _parse_markov(config["left"], "left")
    right = _parse_markov(config["right"], "right")
    try:
        system = tensor_product(left, right)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scheme = (
        _parse_scheme(config["scheme"], DISCRETE)
        if "scheme" in config
        else averaging.uniform(DISCRETE)
    )
    sweep = _positive_int(config["sweep"], "sweep")
    tolerance = float(config["tolerance"])
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


def _run_thm215(config: Dict):
    _take(
        config, "config", ["experiment", "transition", "sweep"],
        ["scheme", "law_tolerance", "cauchy_tolerance", "expect"],
    )
    transition = _parse_matrix(config["transition"], "transition")
    scheme = (
        _parse_scheme(config["scheme"], DISCRETE)
        if "scheme" in config
        else averaging.uniform(DISCRETE)
    )
    sweep = _positive_int(config["sweep"], "sweep")
    law_tol = float(config.get("law_tolerance", 1e-6))
    cauchy_tol = float(config.get("cauchy_tolerance", 5e-2))
    try:
        report = invariant_mean_projection(
            transition, scheme, sweep, law_tolerance=law_tol, cauchy_tolerance=cauchy_tol
        )
    except NonConvergenceError as exc:
        return {"converged": False, "error": str(exc)}, ["row", "col", "mean_re", "mean_im"], [], False
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d = transition.shape[0]
    rows = [
        [str(i), str(j), _fmt(report.mean[i, j].real), _fmt(report.mean[i, j].imag)]
        for i in range(d)
        for j in range(d)
    ]
    results = {
        "converged": True,
        "idempotency_residual": report.idempotency_residual,
        "commutation_residual": report.commutation_residual,
        "cauchy_residual": report.cauchy_residual,
        "refinement_distance": report.refinement_distance,
        "lawful": report.lawful,
    }
    return results, ["row", "col", "mean_re", "mean_im"], rows, report.lawful


def _parse_factor(obj: Any) -> FactorSpec:
    block = _take(obj, "factor", ["generators", "cell_masses"])
    try:
        return FactorSpec(
            generators=tuple(
                tuple(tuple(v for v in row) for row in g) for g in block["generators"]
            ),
            cell_masses=tuple(block["cell_masses"]),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"factor: {exc}") from exc


def _run_joinings(config: Dict):
    _take(
        config, "config", ["experiment", "left", "right"],
        ["factor", "couplings", "scheme", "sweep", "average_tolerance", "expect"],
    )
    left = _parse_classical(config["left"], "left")
    right = _parse_classical(config["right"], "right")
    factor = _parse_factor(config["factor"]) if "factor" in config else None
    try:
        polytope = joining_polytope(left, right, factor)
    except ValueError as exc:
        raise ConfigError(f"factor: {exc}") from exc
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
        for x in range(left.size):
            for y in range(right.size):
                rows.append([str(x), str(y), _fmt(report.unique_joining[x, y])])
        results["unique_joining"] = report.unique_joining
    else:
        results["witnesses"] = [w.tolist() for w in report.witnesses]
    passed = True
    if "couplings" in config:
        family = []
        for i, mat in enumerate(config["couplings"]):
            try:
                family.append(coupling_of(left, right, mat))
            except ValueError as exc:
                raise ConfigError(f"couplings[{i}]: {exc}") from exc
        scheme = (
            _parse_scheme(config["scheme"], DISCRETE)
            if "scheme" in config
            else averaging.uniform(DISCRETE)
        )
        sweep = _positive_int(config.get("sweep", 1), "sweep")
        try:
            average = weighted_coupling_average(left, right, family, scheme, sweep)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        avg = average.as_array()
        rows = [
            [str(x), str(y), _fmt(avg[x, y])]
            for x in range(left.size)
            for y in range(right.size)
        ]
        # a finite average reaches the joining polytope only in the limit;
        # the membership tolerance is therefore configurable
        avg_tol = float(config.get("average_tolerance", 1e-9))
        results["average_in_polytope"] = polytope.contains(avg, tol=avg_tol)
        results["average_residual"] = polytope.residual(avg)
        if report.disjoint:
            dist = float(np.max(np.abs(avg - report.unique_joining)))
            results["average_distance_to_unique"] = dist
        passed = bool(results["average_in_polytope"])
    return results, ["x", "y", "value"], rows, passed


_EXPERIMENTS = {
    "mean-ergodic": (
        _run_mean_ergodic,
        ["flow", "vector", "scheme", "indices"],
        ["tolerance", "expect"],
        "weighted flow averages against the fixed-space projection",
    ),
    "folner-defect": (
        _run_folner_defect,
        ["scheme", "shift", "indices"],
        ["expect"],
        "normalized shift defects of a weight family",
    ),
    "mixing-decay": (
        _run_mixing_decay,
        ["alphabet", "operator", "state", "n_max"],
        ["expect"],
        "state decay of a shifted element toward its finite-orbit part",
    ),
    "multitime": (
        _run_multitime,
        ["alphabet", "state", "operators", "times"],
        ["permutation", "expect"],
        "one multitime correlation and its finite-orbit difference",
    ),
    "gap-search": (
        _run_gap_search,
        ["alphabet", "operators", "states", "scan_window", "gap_max"],
        ["permutation", "zero_tol", "expect"],
        "exhaustive gap threshold scan for a correlation difference",
    ),
    "furstenberg": (
        _run_furstenberg,
        ["alphabet", "factor", "order", "sweep"],
        ["absolute", "expect"],
        "diagonal recurrence average of factor * factor-adjoint",
    ),
    "bergelson": (
        _run_bergelson,
        ["alphabet", "operators", "m_base", "n_base", "count"],
        ["equality_tolerance", "expect"],
        "double recurrence average over a square of shift pairs",
    ),
    "section4": (
        _run_section4,
        ["p", "sweep"],
        ["family_points", "normalization", "tolerances", "expect"],
        "the 4-state example: spectrum, both mean checks, invariant mean",
    ),
    "tensor": (
        _run_tensor,
        ["left", "right", "check", "sweep", "tolerance"],
        ["scheme", "expect"],
        "mean checks on a Kronecker product system",
    ),
    "thm215": (
        _run_thm215,
        ["transition", "sweep"],
        ["scheme", "law_tolerance", "cauchy_tolerance", "expect"],
        "weighted power mean certified as the invariant projection",
    ),
    "joinings": (
        _run_joinings,
        ["left", "right"],
        ["factor", "couplings", "scheme", "sweep", "average_tolerance", "expect"],
        "relative disjointness certificate and coupling orbit averages",
    ),
}


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        schema = {
            kind: {"required": req, "optional": opt, "description": desc}
            for kind, (_, req, opt, desc) in _EXPERIMENTS.items()
        }
        return json.dumps(schema, indent=2, sort_keys=True)
    lines = []
    width = max(len(k) for k in _EXPERIMENTS)
    for kind, (_, req, opt, desc) in _EXPERIMENTS.items():
        lines.append(f"{kind.ljust(width)}  {desc}")
        lines.append(f"{' ' * width}  required: {', '.join(req)}")
        if opt:
            lines.append(f"{' ' * width}  optional: {', '.join(opt)}")
    return "\n".join(lines)


def run_experiment(config: Dict, out_dir: Path, quiet: bool = False) -> int:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("experiment")
    if kind not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {kind!r}; valid kinds: {', '.join(_EXPERIMENTS)}"
        )
    runner = _EXPERIMENTS[kind][0]
    results, header, rows, passed = runner(config)
    passed, results = _apply_expectations(config, results, passed)

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{kind}.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)
    summary = {
        "experiment": kind,
        "parameters": {k: v for k, v in config.items() if k != "experiment"},
        "pass": bool(passed),
        "results": _plain(results),
    }
    json_path = out_dir / f"{kind}.json"
    with open(json_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
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
        with open(args.config) as handle:
            config = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        return run_experiment(config, args.out, quiet=args.quiet)
    except (ConfigError, SchemeError, AlphabetError, WordParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
