"""Desk-scale computations around relative ergodic properties of dynamical systems."""

from .words import Alphabet, AlphabetError, Orbit, Word, WordParseError
from .dual import AlgebraElement, L2Vector, State, matrix_element
from .averaging import (
    CONTINUOUS,
    DISCRETE,
    ExpSubstitution,
    IllConditionedError,
    PowerContraction,
    PowerSubstitution,
    SchemeError,
    UnitaryFlow,
    WeightScheme,
    custom,
    discrete_weights,
    fixed_space_projection,
    folner_defect,
    log_family,
    power,
    transformed_average_check,
    uniform,
    voronoi,
    weighted_mean_flow,
    weighted_mean_scalar,
)
from .mixing import (
    DoubleAverage,
    GapScanResult,
    RecurrenceAverage,
    Violation,
    bergelson_average,
    correlation,
    correlation_difference,
    decay_sequence,
    furstenberg_average,
    gap_scan,
)
from .finite import (
    FourStateSystem,
    InvariantMeanReport,
    MarkovSystem,
    MeanCheckReport,
    NonConvergenceError,
    four_state_system,
    invariant_mean_projection,
    tensor_product,
    unique_ergodicity_check,
    weak_mixing_check,
)
from .joinings import (
    Coupling,
    DisjointnessReport,
    FactorSpec,
    JoiningInfeasibleError,
    JoiningPolytope,
    PermutationSystem,
    coupling_of,
    joining_polytope,
    product_coupling,
    relative_disjointness,
    rotation,
    weighted_coupling_average,
)

__version__ = "0.1.0"
