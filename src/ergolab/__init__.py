"""Desk-scale computations around relative ergodic properties of dynamical systems.

Each exported name is read from its module when it is first asked for (PEP
562), so ``import ergolab`` loads no module of the package.  ``words``,
``dual`` and ``mixing`` run without numpy; the first name read from
``averaging``, ``finite`` or ``joinings`` imports numpy.
``ergolab.<name>``, ``from ergolab import <name>`` and ``from ergolab
import *`` give the defining module's attribute as it is at that moment.
"""

import importlib

_EXPORTS = {
    "words": ("Alphabet", "AlphabetError", "Orbit", "Word", "WordParseError"),
    "dual": ("AlgebraElement", "L2Vector", "State", "matrix_element"),
    "averaging": (
        "CONTINUOUS", "DISCRETE", "ExpSubstitution", "IllConditionedError", "PowerContraction",
        "PowerSubstitution", "SchemeError", "UnitaryFlow", "WeightScheme", "custom",
        "discrete_weights", "fixed_space_projection", "folner_defect", "log_family", "power",
        "transformed_average_check", "uniform", "voronoi", "weighted_mean_flow",
        "weighted_mean_scalar",
    ),
    "mixing": (
        "DoubleAverage", "GapScanResult", "RecurrenceAverage", "Violation", "bergelson_average",
        "correlation", "correlation_difference", "decay_sequence", "furstenberg_average",
        "gap_scan",
    ),
    "finite": (
        "FourStateSystem", "InvariantMeanReport", "MarkovSystem", "MeanCheckReport",
        "NonConvergenceError", "four_state_system", "invariant_mean_projection",
        "tensor_product", "unique_ergodicity_check", "weak_mixing_check",
    ),
    "joinings": (
        "Coupling", "DisjointnessReport", "FactorSpec", "JoiningInfeasibleError",
        "JoiningPolytope", "PermutationSystem", "coupling_of", "joining_polytope",
        "product_coupling", "relative_disjointness", "rotation", "weighted_coupling_average",
    ),
}
# exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is cached here, so a name rebound in its module is seen at once
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _EXPORTS:  # ``ergolab.mixing`` needs no ``import ergolab.mixing`` first
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
