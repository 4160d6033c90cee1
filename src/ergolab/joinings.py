"""Couplings and joinings of finite permutation systems, with exact certificates.

A classical system here is a finite set with a permutation and an invariant
probability vector.  A coupling is a nonnegative matrix with the two measures
as marginals; a joining is additionally invariant under the product
permutation, possibly with prescribed masses on an invariant partition (the
factor).  The joining set is then a polytope cut out by linear equalities,
and relative disjointness is the polytope being a single point.  A joining
is constant on each orbit of the product permutation, so the polytope is
kept as its orbit quotient -- one unknown per orbit, one exact row per
marginal point and factor cell -- and settled by the exact ``Fraction``
simplex of ``lp``: every certificate, witnesses and infeasibility included,
is exact.  Float matrices are checked against the constraints directly.

Measures and couplings are kept as exact fractions; weighted orbit averages
of a coupling stay exact whenever the weights are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .averaging import DISCRETE, SchemeError, WeightScheme, check_weight_count, discrete_weights
from .lp import feasible_tableau, simplex_minimize

Rational = Union[int, str, Fraction, float]

# coupling_of: largest exact deviation of a marginal from the system's measure
MARGINAL_TOL = Fraction(1, 10**9)

# the largest count of exact log weights: the harmonic sums take quadratic time
# (10**4 weights 0.2 s, 2 * 10**4 0.6 s, 4 * 10**4 2 s on one core), so a
# larger count is refused before any Fraction is built
LOG_WEIGHT_COUNT_CAP = 2 * 10**4


class JoiningInfeasibleError(RuntimeError):
    """The prescribed factor masses admit no joining at all."""


def _fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(10**12)


@dataclass(frozen=True)
class PermutationSystem:
    """A finite set, a permutation of it, and an invariant probability vector."""

    permutation: Tuple[int, ...]
    measure: Tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation must be a bijection of 0..n-1")
        measure = tuple(_fraction(m) for m in self.measure)
        if len(measure) != n:
            raise ValueError("measure length must match the set size")
        if any(m < 0 for m in measure):
            raise ValueError("measure must be nonnegative")
        if sum(measure) != 1:
            raise ValueError("measure must sum to one")
        for i in range(n):
            if measure[self.permutation[i]] != measure[i]:
                raise ValueError("measure must be invariant under the permutation")
        object.__setattr__(self, "permutation", tuple(int(i) for i in self.permutation))
        object.__setattr__(self, "measure", measure)

    @property
    def size(self) -> int:
        return len(self.permutation)

    @property
    def inverse_permutation(self) -> Tuple[int, ...]:
        inv = [0] * self.size
        for i, j in enumerate(self.permutation):
            inv[j] = i
        return tuple(inv)


def rotation(size: int, measure: Optional[Sequence[Rational]] = None) -> PermutationSystem:
    """The cyclic rotation on ``size`` points, uniform unless a measure is given."""
    if measure is None:
        measure = [Fraction(1, size)] * size
    return PermutationSystem(
        permutation=tuple((i + 1) % size for i in range(size)),
        measure=tuple(_fraction(m) for m in measure),
    )


@dataclass(frozen=True)
class Coupling:
    """A nonnegative matrix whose marginals are the two system measures."""

    matrix: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_fraction(v) for v in row) for row in self.matrix)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("coupling matrix must be rectangular and nonempty")
        if any(v < 0 for r in rows for v in r):
            raise ValueError("coupling entries must be nonnegative")
        object.__setattr__(self, "matrix", rows)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]))

    def as_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.matrix])

    def row_sums(self) -> Tuple[Fraction, ...]:
        return tuple(sum(row) for row in self.matrix)

    def column_sums(self) -> Tuple[Fraction, ...]:
        cols = self.shape[1]
        return tuple(sum(row[j] for row in self.matrix) for j in range(cols))


def coupling_of(
    left: PermutationSystem,
    right: PermutationSystem,
    matrix: Sequence[Sequence[Rational]],
) -> Coupling:
    """Validate a matrix as a coupling of the two systems' measures."""
    c = Coupling(tuple(tuple(_fraction(v) for v in row) for row in matrix))
    if c.shape != (left.size, right.size):
        raise ValueError(f"coupling must be {left.size} x {right.size}")
    for i, s in enumerate(c.row_sums()):
        if abs(s - left.measure[i]) > MARGINAL_TOL:
            raise ValueError(f"row {i} sums to {s}, expected {left.measure[i]}")
    for j, s in enumerate(c.column_sums()):
        if abs(s - right.measure[j]) > MARGINAL_TOL:
            raise ValueError(f"column {j} sums to {s}, expected {right.measure[j]}")
    return c


def product_coupling(left: PermutationSystem, right: PermutationSystem) -> Coupling:
    return Coupling(
        tuple(
            tuple(left.measure[i] * right.measure[j] for j in range(right.size))
            for i in range(left.size)
        )
    )


def _product_map(left: PermutationSystem, right: PermutationSystem) -> List[int]:
    """sigma_A x sigma_B on flat (row-major) indices of the product set."""
    nb = right.size
    return [
        left.permutation[flat // nb] * nb + right.permutation[flat % nb]
        for flat in range(left.size * nb)
    ]


def _cycles(permutation: Sequence[int]) -> List[List[int]]:
    """The cycles of a permutation, in order of their smallest point."""
    cycles: List[List[int]] = []
    seen = [False] * len(permutation)
    for start in range(len(permutation)):
        point, cycle = start, []
        while not seen[point]:
            seen[point] = True
            cycle.append(point)
            point = permutation[point]
        if cycle:
            cycles.append(cycle)
    return cycles


# -- factors ---------------------------------------------------------------------


@dataclass(frozen=True)
class FactorSpec:
    """An invariant partition of the product set with prescribed cell masses.

    ``generators`` are rational functions on the product (dense matrices);
    the partition is the common refinement of their level sets and must be
    carried to itself by the product permutation.  ``cell_masses`` prescribes
    the joining's mass on each cell, listed in order of each cell's smallest
    flat index (row-major).
    """

    generators: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    cell_masses: Tuple[Fraction, ...]

    def __post_init__(self):
        gens = tuple(
            tuple(tuple(_fraction(v) for v in row) for row in g) for g in self.generators
        )
        if not gens:
            raise ValueError("factor needs at least one generator")
        masses = tuple(_fraction(m) for m in self.cell_masses)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "cell_masses", masses)


def factor_cells(
    factor: FactorSpec, left: PermutationSystem, right: PermutationSystem
) -> List[List[int]]:
    """The level-set partition cells as flat index lists, canonically ordered.

    Validates that the product permutation maps cells onto cells; the factor
    algebra is then invariant as required.
    """
    na, nb = left.size, right.size
    for g in factor.generators:
        if len(g) != na or any(len(row) != nb for row in g):
            raise ValueError(f"generator must be a {na} x {nb} matrix")
    signature: Dict[Tuple[Fraction, ...], List[int]] = {}
    for x in range(na):
        for y in range(nb):
            key = tuple(g[x][y] for g in factor.generators)
            signature.setdefault(key, []).append(x * nb + y)
    cells = sorted(signature.values(), key=min)
    cell_of = {}
    for ci, cell in enumerate(cells):
        for flat in cell:
            cell_of[flat] = ci
    image = _product_map(left, right)
    for cell in cells:
        if len({cell_of[image[flat]] for flat in cell}) != 1:
            raise ValueError(
                "factor partition is not invariant under the product permutation"
            )
    if len(factor.cell_masses) != len(cells):
        raise ValueError(
            f"factor prescribes {len(factor.cell_masses)} masses for {len(cells)} cells"
        )
    if any(m < 0 for m in factor.cell_masses) or sum(factor.cell_masses) != 1:
        raise ValueError("factor masses must be a probability over the cells")
    return cells


# -- the joining polytope ------------------------------------------------------------


@dataclass(frozen=True)
class JoiningPolytope:
    """The joinings, as the orbit quotient of their equality constraints.

    A joining is constant on each orbit of the product permutation, so it has
    one unknown per orbit: ``orbit_of`` maps each flat (row-major) index to
    its orbit, the orbits numbered in order of their smallest flat index.
    ``a_eq`` holds one row of orbit counts per marginal point and per factor
    cell (exactly repeated rows dropped), ``b_eq`` the exact measures and
    cell masses on the right, and nonnegativity is implied.  ``cells`` and
    ``cell_masses`` are the factor's partition (flat index tuples,
    canonically ordered) and its masses, both empty without a factor.
    """

    left: PermutationSystem
    right: PermutationSystem
    orbit_of: Tuple[int, ...]
    a_eq: np.ndarray
    b_eq: Tuple[Fraction, ...]
    cells: Tuple[Tuple[int, ...], ...]
    cell_masses: Tuple[Fraction, ...]

    def contains(self, matrix: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(matrix, dtype=float)
        return self.residual(x) <= tol and float(x.min()) >= -tol

    def residual(self, matrix: np.ndarray) -> float:
        """The largest gap of a float na x nb matrix in the marginal,
        invariance (x[sigma_A(i), sigma_B(j)] = x[i, j]) and factor-cell
        equalities, read off the matrix."""
        x = np.asarray(matrix, dtype=float).reshape(self.left.size, self.right.size)
        flat = x.reshape(-1)
        gaps = (
            x.sum(axis=1) - [float(m) for m in self.left.measure],
            x.sum(axis=0) - [float(m) for m in self.right.measure],
            x[np.ix_(self.left.permutation, self.right.permutation)] - x,
            [flat[list(c)].sum() - float(m) for c, m in zip(self.cells, self.cell_masses)],
        )
        return max(float(np.max(np.abs(gap), initial=0.0)) for gap in gaps)


def joining_polytope(
    left: PermutationSystem,
    right: PermutationSystem,
    factor: Optional[FactorSpec] = None,
) -> JoiningPolytope:
    """The orbit quotient of the marginal, invariance and factor equalities."""
    na, nb = left.size, right.size
    cells: Tuple[Tuple[int, ...], ...] = ()
    masses: Tuple[Fraction, ...] = ()
    if factor is not None:
        cells = tuple(tuple(cell) for cell in factor_cells(factor, left, right))
        masses = factor.cell_masses
    orbit_of = [0] * (na * nb)
    orbits = _cycles(_product_map(left, right))
    for orbit, points in enumerate(orbits):
        for flat in points:
            orbit_of[flat] = orbit
    # one row per marginal point and per factor cell: orbit counts | mass
    rows = [[0] * len(orbits) + [mass] for mass in left.measure + right.measure + masses]
    for flat, orbit in enumerate(orbit_of):
        rows[flat // nb][orbit] += 1
        rows[na + flat % nb][orbit] += 1
    for c, cell in enumerate(cells):
        for flat in cell:
            rows[na + nb + c][orbit_of[flat]] += 1
    rows = list(dict.fromkeys(map(tuple, rows)))
    a_eq = np.array([row[:-1] for row in rows], dtype=int)
    return JoiningPolytope(
        left, right, tuple(orbit_of), a_eq, tuple(row[-1] for row in rows), cells, masses
    )


@dataclass(frozen=True)
class DisjointnessReport:
    """Exact certificate for uniqueness of the joining.

    ``spread`` is the range of the first orbit value that is not pinned
    (0.0 when every one is); ``unique_joining`` is the only joining, or
    ``witnesses`` two joinings whose values on that orbit differ by the
    spread, as na x nb matrices of correctly rounded floats.
    """

    disjoint: bool
    spread: float
    unique_joining: Optional[np.ndarray]
    witnesses: Optional[Tuple[np.ndarray, np.ndarray]]


def relative_disjointness(polytope: JoiningPolytope) -> DisjointnessReport:
    """Decide exactly whether the joining polytope is a single point.

    One phase one on the quotient ``a_eq`` x = ``b_eq`` proves it feasible,
    or raises ``JoiningInfeasibleError``; from its basis every orbit, in
    order of its smallest flat index, is minimized and maximized over
    ``Fraction``.  The first orbit whose range is not a single value gives
    two witness joinings and the spread.  When every range is a single
    value, that point is the unique joining, reported as correctly rounded
    floats.
    """
    start = feasible_tableau(polytope.a_eq.tolist(), polytope.b_eq)
    if start is None:
        raise JoiningInfeasibleError(
            "no coupling satisfies the constraints (the factor masses "
            "admit no extension to a joining)"
        )
    shape = (polytope.left.size, polytope.right.size)
    count = polytope.a_eq.shape[1]

    def joining(values) -> np.ndarray:
        return np.array([float(values[orbit]) for orbit in polytope.orbit_of]).reshape(shape)

    for orbit in range(count):
        unit = [0] * count
        unit[orbit] = 1
        low = simplex_minimize(unit, start).x
        high = simplex_minimize([-u for u in unit], start).x
        if high[orbit] != low[orbit]:
            return DisjointnessReport(
                disjoint=False,
                spread=float(high[orbit] - low[orbit]),
                unique_joining=None,
                witnesses=(joining(low), joining(high)),
            )
    return DisjointnessReport(
        disjoint=True, spread=0.0, unique_joining=joining(low), witnesses=None
    )


# -- orbit averages of couplings -------------------------------------------------------


def _exact_weight(
    scheme: WeightScheme, count: int
) -> Optional[Callable[[int], Union[int, Fraction]]]:
    """Step n -> its exact weight, after the float weights' count and total checks.

    Uniform and integer-exponent power and voronoi weights are ints, not
    Fractions: every use sums them and divides by their int total, which
    gives the same Fractions.  None when the scheme has no exact weights.
    """
    check_weight_count(count)
    if scheme.family == "custom":
        # a positive sample that rounds to 0 on the 10**-12 grid is read exactly
        samples = [_fraction(w) or Fraction(w) for w in discrete_weights(scheme, count).tolist()]
        return lambda n: samples[n - 1]
    if scheme.family == "uniform":
        return lambda n: 1
    if scheme.family == "power" and float(scheme.exponent).is_integer() and scheme.exponent >= 0:
        e = int(scheme.exponent)
        return lambda n: n**e
    if scheme.family == "voronoi" and float(scheme.exponent).is_integer() and scheme.exponent >= 0:
        e = int(scheme.exponent)
        return lambda n: (count - n + 1) ** e
    if scheme.family == "log":
        if count > LOG_WEIGHT_COUNT_CAP:
            raise SchemeError(f"{count} exact log weights exceed the cap {LOG_WEIGHT_COUNT_CAP}")
        return lambda n: Fraction(1, n)
    return None


def weighted_coupling_average(
    left: PermutationSystem,
    right: PermutationSystem,
    couplings: Union[Coupling, Sequence[Coupling]],
    scheme: WeightScheme,
    count: int,
) -> Coupling:
    """Weighted mean of couplings transported along the product orbit.

    Step n transports the coupling by the n-th power of the product
    permutation (an indexed family of couplings is cycled through).  Step n
    therefore depends on n only modulo L = lcm(order of each permutation,
    family length), so the weights are summed per residue class and at most
    L transported matrices are combined.  With rational weights the average
    is exact.
    """
    if scheme.domain != DISCRETE:
        raise ValueError("coupling averages use a discrete scheme")
    family = [couplings] if isinstance(couplings, Coupling) else list(couplings)
    if not family:
        raise ValueError("need at least one coupling")
    for c in family:
        coupling_of(left, right, c.matrix)
    weight = _exact_weight(scheme, count)
    if weight is None:
        raise ValueError("coupling averages need exact rational weights")
    cycles = _cycles(left.permutation) + _cycles(right.permutation)
    period = lcm(*(len(cycle) for cycle in cycles), len(family))
    # each residue class summed in one pass, with no count-long weight list
    steps = range(1, min(period, count) + 1)
    sums = [sum(map(weight, range(r, count + 1, period))) for r in steps]
    na, nb = left.size, right.size
    inv_a = left.inverse_permutation
    inv_b = right.inverse_permutation
    # back_a[u] = sigma_A^{-r}(u), updated one step per residue r
    back_a = list(range(na))
    back_b = list(range(nb))
    acc = [[Fraction(0)] * nb for _ in range(na)]
    for r, w in enumerate(sums, 1):
        back_a = [back_a[inv_a[u]] for u in range(na)]
        back_b = [back_b[inv_b[v]] for v in range(nb)]
        mat = family[(r - 1) % len(family)].matrix
        for u in range(na):
            row = acc[u]
            src = mat[back_a[u]]
            for v in range(nb):
                row[v] += w * src[back_b[v]]
    total = sum(sums)
    return Coupling(
        tuple(tuple(entry / total for entry in row) for row in acc)
    )
