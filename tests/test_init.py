"""The package's exports: 61 names, each read from its defining module on demand."""

import importlib

import pytest

import ergolab

# the names ``ergolab`` exports, by defining module, frozen as they were when
# the package still imported every module eagerly
EXPORTED = {
    "words": ["Alphabet", "AlphabetError", "Orbit", "Word", "WordParseError"],
    "dual": ["AlgebraElement", "L2Vector", "State", "matrix_element"],
    "averaging": [
        "CONTINUOUS", "DISCRETE", "ExpSubstitution", "IllConditionedError", "PowerContraction",
        "PowerSubstitution", "SchemeError", "UnitaryFlow", "WeightScheme", "custom",
        "discrete_weights", "fixed_space_projection", "folner_defect", "log_family", "power",
        "transformed_average_check", "uniform", "voronoi", "weighted_mean_flow",
        "weighted_mean_scalar",
    ],
    "mixing": [
        "DoubleAverage", "GapScanResult", "RecurrenceAverage", "Violation", "bergelson_average",
        "correlation", "correlation_difference", "decay_sequence", "furstenberg_average",
        "gap_scan",
    ],
    "finite": [
        "FourStateSystem", "InvariantMeanReport", "MarkovSystem", "MeanCheckReport",
        "NonConvergenceError", "four_state_system", "invariant_mean_projection",
        "tensor_product", "unique_ergodicity_check", "weak_mixing_check",
    ],
    "joinings": [
        "Coupling", "DisjointnessReport", "FactorSpec", "JoiningInfeasibleError",
        "JoiningPolytope", "PermutationSystem", "coupling_of", "joining_polytope",
        "product_coupling", "relative_disjointness", "rotation", "weighted_coupling_average",
    ],
}
NAMES = [name for names in EXPORTED.values() for name in names]
DEFINED_IN = [(name, module) for module, names in EXPORTED.items() for name in names]


def test_sixty_one_names():
    assert len(NAMES) == len(set(NAMES)) == 61


def test_dir_and_all_are_the_exported_names():
    assert ergolab.__all__ == NAMES
    assert dir(ergolab) == sorted(NAMES)


@pytest.mark.parametrize("name, module", DEFINED_IN)
def test_name_is_its_modules_attribute(name, module):
    assert getattr(ergolab, name) is getattr(importlib.import_module(f"ergolab.{module}"), name)


def test_lookup_reads_the_module_attribute_each_time(monkeypatch):
    # a rebinding in the defining module, as a tracer makes, is seen at once
    import ergolab.mixing

    marker = object()
    monkeypatch.setattr(ergolab.mixing, "gap_scan", marker)
    assert ergolab.gap_scan is marker
    from ergolab import gap_scan

    assert gap_scan is marker


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ergolab.no_such_name
    assert not hasattr(ergolab, "cli_main")
    with pytest.raises(ImportError):
        from ergolab import no_such_name  # noqa: F401


def test_submodules_import_as_before():
    from ergolab import joinings

    assert joinings is importlib.import_module("ergolab.joinings")
    assert ergolab.mixing is importlib.import_module("ergolab.mixing")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ergolab import *", namespace)
    for name, module in DEFINED_IN:
        assert namespace[name] is getattr(importlib.import_module(f"ergolab.{module}"), name)
