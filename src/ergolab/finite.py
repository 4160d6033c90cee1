"""Finite-dimensional Markov systems: mean checks, a 4-state example, tensors.

A system is a unital positive matrix acting on column vectors, a distinguished
idempotent, and a finite family of row functionals.  The two mean checks ask
whether weighted averages of the functionals along the orbit of the
complement of the idempotent vanish: the plain mean for unique ergodicity,
the mean of absolute values for unique weak mixing.

The 4-state example has one geometrically decaying direction, a sign-flipping
pair and an absorbing point; with the peripheral idempotent and the standard
functional family every defect is exactly zero, while the fixed-space
idempotent fails the absolute check with the flip eigenvector as witness.
Its spectrum {p, 1, -1, 1} is known, so its uniform absolute check and its
invariant mean are closed forms in p and N (``four_state_weak_mixing``,
``four_state_invariant_mean``), built on the one eigen-expansion
``FourStateSystem.spectral``; the stepping loops stay for every other system
and are the closed forms' test oracle.  The example's plain check stays on
the loop: at p = 3/8 and N = 600 its exact defect (1 - (3/8)^600)/1000 lies
just below the default tolerance 1e-3 and the loop's float sum just above
it, so there the verdict is decided by roundoff, and the stored benchmark
references hold the loop's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .averaging import SchemeError, WeightScheme, discrete_weights, power_mean, power_means

TENSOR_DIMENSION_CAP = 4096

# defaults of ``invariant_mean_projection``, and the closed form's tolerances
LAW_TOLERANCE = 1e-6
CAUCHY_TOLERANCE = 5e-2

# the diagonal, on the eigenbasis (decaying, flat, alternating, absorbing), of
# the 4-state example's peripheral and fixed-space idempotents
PERIPHERAL = (0.0, 1.0, 1.0, 1.0)
FIXED = (0.0, 1.0, 0.0, 1.0)


class NonConvergenceError(RuntimeError):
    """Weighted means at successive indices failed the Cauchy comparison."""


def _as_matrix(m, d: Optional[int] = None) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if d is not None and a.shape[0] != d:
        raise ValueError(f"expected dimension {d}, got {a.shape[0]}")
    return a


def _check_markov(t: np.ndarray, commutative: bool) -> None:
    """Refuse a transition that is not unital, or (commutative) not real and nonnegative."""
    ones = np.ones(t.shape[0])
    if np.max(np.abs(t @ ones - ones)) > 1e-9:
        raise ValueError("transition matrix must fix the all-ones vector")
    if commutative and np.max(np.abs(t.imag)) > 1e-12:
        raise ValueError("commutative Markov matrix must be real")
    if commutative and np.min(t.real) < -1e-12:
        raise ValueError("commutative Markov matrix must be entrywise nonnegative")


@dataclass(frozen=True)
class MarkovSystem:
    """Unital transition matrix, distinguished idempotent, functional family."""

    transition: np.ndarray
    idempotent: np.ndarray
    functionals: np.ndarray
    commutative: bool = False

    def __post_init__(self):
        t = _as_matrix(self.transition)
        d = t.shape[0]
        e = _as_matrix(self.idempotent, d)
        f = np.asarray(self.functionals, dtype=complex)
        if f.ndim != 2 or f.shape[1] != d:
            raise ValueError("functionals must be rows of the system dimension")
        _check_markov(t, self.commutative)
        if np.max(np.abs(e @ e - e)) > 1e-10:
            raise ValueError("idempotent must satisfy E^2 = E")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "idempotent", e)
        object.__setattr__(self, "functionals", f)

    @property
    def dimension(self) -> int:
        return self.transition.shape[0]


# -- the 4-state example ------------------------------------------------------


@dataclass(frozen=True)
class FourStateSystem:
    """The 4-dimensional example with spectrum {p, 1, -1, 1}.

    Eigenvectors: ``decaying`` for eigenvalue p, the all-ones ``flat`` and the
    absorbing point ``absorbing`` for eigenvalue 1, and ``alternating`` for
    eigenvalue -1.  ``proj_peripheral`` projects onto the span of the three
    unimodular eigenvectors, ``proj_fixed`` onto the fixed space only.  The
    functional family is supported away from the decaying direction; its
    members need not be unital, which ``family_unital`` records.
    """

    p: float
    transition: np.ndarray
    decaying: np.ndarray
    flat: np.ndarray
    alternating: np.ndarray
    absorbing: np.ndarray
    proj_peripheral: np.ndarray
    proj_fixed: np.ndarray
    family: np.ndarray
    family_unital: Tuple[bool, ...]

    @property
    def eigenbasis(self) -> np.ndarray:
        return np.column_stack(
            [self.decaying, self.flat, self.alternating, self.absorbing]
        )

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([self.p, 1.0, -1.0, 1.0])

    def spectral(self, values) -> np.ndarray:
        """V·diag(values)·V⁻¹: the matrix acting by ``values[j]`` on eigenvector j.

        ``spectral(eigenvalues ** n)`` is the n-step evolution, and
        ``spectral(means)`` a weighted mean of the powers.
        """
        return _eigen_form(self.eigenbasis, values)

    def as_markov(self, idempotent, functionals) -> MarkovSystem:
        return MarkovSystem(self.transition, idempotent, np.asarray(functionals))


def _eigen_form(basis: np.ndarray, values) -> np.ndarray:
    return basis @ np.diag(values) @ np.linalg.inv(basis)


def four_state_system(
    p: float, family_points: int = 20, normalization: str = "as-written"
) -> FourStateSystem:
    """Build the 4-state example for 0 <= p < 1.

    The functional family consists of rows (0, x, x, y) with x, y >= 0.  With
    ``normalization="as-written"`` the rows satisfy x + y = 1 (not unital in
    general); with ``"unital"`` they satisfy 2x + y = 1.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("parameter must satisfy 0 <= p < 1 (the decaying "
                         "direction must actually decay)")
    if family_points < 1:
        raise ValueError("family needs at least one functional")
    alpha = np.array(
        [
            [p, 1.0 - p, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    decaying = np.array([1.0, 0.0, 0.0, 0.0])
    flat = np.ones(4)
    alternating = np.array([(p - 1.0) / (p + 1.0), 1.0, -1.0, 0.0])
    absorbing = np.array([0.0, 0.0, 0.0, 1.0])
    basis = np.column_stack([decaying, flat, alternating, absorbing])
    proj_peripheral = _eigen_form(basis, PERIPHERAL)
    proj_fixed = _eigen_form(basis, FIXED)
    if normalization == "as-written":
        xs = np.linspace(0.0, 1.0, family_points)
        rows = [(0.0, x, x, 1.0 - x) for x in xs]
    elif normalization == "unital":
        xs = np.linspace(0.0, 0.5, family_points)
        rows = [(0.0, x, x, 1.0 - 2.0 * x) for x in xs]
    else:
        raise ValueError("normalization must be 'as-written' or 'unital'")
    family = np.array(rows, dtype=complex)
    unital = tuple(bool(abs(row @ flat - 1.0) < 1e-12) for row in family)
    return FourStateSystem(
        p=float(p),
        transition=alpha,
        decaying=decaying,
        flat=flat,
        alternating=alternating,
        absorbing=absorbing,
        proj_peripheral=proj_peripheral,
        proj_fixed=proj_fixed,
        family=family,
        family_unital=unital,
    )


# -- mean checks ----------------------------------------------------------------


@dataclass(frozen=True)
class MeanCheckReport:
    """Result of a weighted mean-vanishing sweep over functionals and vectors."""

    passed: bool
    tolerance: float
    max_defect: float
    witness_functional: int
    witness_vector: int
    witness_tail_min: Optional[float] = None

    @property
    def witness(self) -> Tuple[int, int]:
        return (self.witness_functional, self.witness_vector)


def _check_inputs(system: MarkovSystem, vectors) -> np.ndarray:
    d = system.dimension
    if vectors is None:
        return np.eye(d, dtype=complex)
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] != d:
        raise ValueError(f"vectors must be columns of height {d}")
    return v


def _report(
    defects: np.ndarray,
    tolerance: float,
    tail_min: Optional[Callable[[int, int], float]] = None,
) -> MeanCheckReport:
    """The largest defect, the first in row-major order as ``np.argmax`` picks
    it; on failure ``tail_min(functional, vector)`` gives the witness tail."""
    fi, vi = (int(i) for i in np.unravel_index(int(np.argmax(defects)), defects.shape))
    worst = float(defects[fi, vi])
    passed = worst <= tolerance
    return MeanCheckReport(
        passed=passed,
        tolerance=float(tolerance),
        max_defect=worst,
        witness_functional=fi,
        witness_vector=vi,
        witness_tail_min=None if passed or tail_min is None else tail_min(fi, vi),
    )


def unique_ergodicity_check(
    system: MarkovSystem,
    scheme: WeightScheme,
    sweep: int,
    tolerance: float,
    vectors=None,
) -> MeanCheckReport:
    """Weighted means of functional values along the orbit of (1 - E)x.

    Passes when the largest absolute mean over the functional family and the
    supplied vectors (default: standard basis) is within tolerance.
    """
    cols = _check_inputs(system, vectors)
    w = discrete_weights(scheme, sweep)
    d = system.dimension
    d0 = (np.eye(d) - system.idempotent) @ cols
    mean = power_mean(system.transition, np.eye(d, dtype=complex), w)
    return _report(np.abs(system.functionals @ mean @ d0), tolerance)


def weak_mixing_check(
    system: MarkovSystem,
    scheme: WeightScheme,
    sweep: int,
    tolerance: float,
    vectors=None,
) -> MeanCheckReport:
    """Weighted means of |functional values| along the orbit of (1 - E)x.

    On failure the report carries the witnessing pair and the smallest
    running mean over the tail of the sweep, to show the defect is not a
    transient.  A real system (functionals, transition and (1 - E)x all with
    zero imaginary part) is swept in real arithmetic.
    """
    cols = _check_inputs(system, vectors)
    w = discrete_weights(scheme, sweep)
    d = system.dimension
    d0 = (np.eye(d) - system.idempotent) @ cols
    functionals, transition = system.functionals, system.transition
    if not (functionals.imag.any() or transition.imag.any() or d0.imag.any()):
        functionals, transition, d0 = (
            np.ascontiguousarray(m.real) for m in (functionals, transition, d0)
        )
    rows = functionals
    acc = np.zeros((rows.shape[0], d0.shape[1]))
    for n in range(sweep):
        rows = rows @ transition
        acc += w[n] * np.abs(rows @ d0)

    def tail_min(fi: int, vi: int) -> float:
        row = functionals[fi]
        col = d0[:, vi]
        running = np.empty(sweep)
        total_w = 0.0
        total = 0.0
        for n in range(sweep):
            row = row @ transition
            total += w[n] * abs(row @ col)
            total_w += w[n]
            running[n] = total / total_w
        return float(running[sweep // 2 :].min())

    return _report(acc / w.sum(), tolerance, tail_min)


def _uniform_means(values, count: int) -> np.ndarray:
    """(1/N)·Σ_{n=1..N} λⁿ per real λ with |λ| <= 1.

    λ(1 − λᴺ)/(N(1 − λ)), which is 1 at λ = 1 and −[N odd]/N at λ = −1.
    """
    if count < 1:
        raise SchemeError("index must be a positive integer")
    means = []
    for lam in map(float, values):
        if lam == 1.0:
            means.append(1.0)
        elif lam == -1.0:
            means.append(-(count % 2) / count)
        else:
            means.append(lam * (1.0 - lam**count) / (count * (1.0 - lam)))
    return np.array(means)


def four_state_weak_mixing(
    system: FourStateSystem, kept, functionals, sweep: int, tolerance: float
) -> MeanCheckReport:
    """``weak_mixing_check`` of the 4-state example, uniform weights, in closed form.

    The same report as ``weak_mixing_check(system.as_markov(E, functionals),
    uniform(), sweep, tolerance, vectors=system.eigenbasis)`` for the
    idempotent E = V·diag(kept)·V⁻¹ (``PERIPHERAL`` or ``FIXED``).  As
    (I − E)·V = V·diag(1 − kept), the values φTⁿ(I − E)v_j are
    (F·V)[i, j]·(1 − kept_j)·λ_jⁿ, so each defect is |(F·V)[i, j]|·(1 − kept_j)
    times the uniform mean of |λ_j|ⁿ.  That mean is nonincreasing in N for
    |λ_j| <= 1, so the smallest running mean over the tail of the sweep is
    the one at N: the witness tail minimum is the defect itself.
    """
    coefficients = np.abs(np.asarray(functionals) @ system.eigenbasis)
    coefficients *= 1.0 - np.asarray(kept)
    defects = coefficients * _uniform_means(np.abs(system.eigenvalues), sweep)
    return _report(defects, tolerance, lambda fi, vi: float(defects[fi, vi]))


# -- the invariant mean as a projection -------------------------------------------


@dataclass(frozen=True)
class InvariantMeanReport:
    """Weighted orbit mean of the transition, certified as a projection.

    ``mean`` is the raw weighted average of the powers; ``projector`` is its
    stable limit under repeated squaring, against which the projection and
    commutation laws are verified.
    """

    mean: np.ndarray
    projector: np.ndarray
    idempotency_residual: float
    commutation_residual: float
    cauchy_residual: float
    refinement_distance: float
    lawful: bool


def invariant_mean_projection(
    transition,
    scheme: WeightScheme,
    sweep: int,
    law_tolerance: float = LAW_TOLERANCE,
    cauchy_tolerance: float = CAUCHY_TOLERANCE,
) -> InvariantMeanReport:
    """Weighted mean of transition powers and its projection certificate.

    Compares the means at the index and twice the index (Cauchy check,
    raising on failure), then squares the mean to its idempotent limit; the
    squaring sharpens every sub-unit eigenvalue to zero quadratically, so a
    convergent mean certifies the unique invariant idempotent.  Raises
    ``ValueError`` unless the transition is a Markov matrix: unital, real and
    entrywise nonnegative, as ``MarkovSystem`` checks a commutative system.
    """
    t = _as_matrix(transition)
    _check_markov(t, commutative=True)
    start = np.eye(t.shape[0], dtype=complex)
    mean, double = power_means(
        t, start, discrete_weights(scheme, sweep), discrete_weights(scheme, 2 * sweep)
    )
    return _certify(t, mean, double, sweep, law_tolerance, cauchy_tolerance)


def four_state_invariant_mean(system: FourStateSystem, sweep: int) -> InvariantMeanReport:
    """``invariant_mean_projection`` of the 4-state example, uniform weights, in closed form.

    The uniform means at N and 2N are V·diag(m)·V⁻¹, m_j the uniform mean of
    λ_jⁿ over n = 1..N; the certificate is the loop's, with its default
    tolerances.
    """
    mean, double = (
        system.spectral(_uniform_means(system.eigenvalues, n)).astype(complex)
        for n in (sweep, 2 * sweep)
    )
    return _certify(system.transition, mean, double, sweep, LAW_TOLERANCE, CAUCHY_TOLERANCE)


def _certify(
    t: np.ndarray, mean: np.ndarray, double: np.ndarray, sweep: int,
    law_tolerance: float, cauchy_tolerance: float,
) -> InvariantMeanReport:
    """The Cauchy check of the means at N and 2N, and the projection certificate."""
    cauchy = float(np.max(np.abs(mean - double)))
    if cauchy > cauchy_tolerance:
        raise NonConvergenceError(
            f"means at {sweep} and {2 * sweep} differ by {cauchy:.3e}"
        )
    projector = mean
    for _ in range(20):
        squared = projector @ projector
        if np.max(np.abs(squared - projector)) < 1e-13:
            projector = squared
            break
        projector = squared
    idem = float(np.max(np.abs(projector @ projector - projector)))
    comm = float(
        max(
            np.max(np.abs(t @ projector - projector)),
            np.max(np.abs(projector @ t - projector)),
        )
    )
    return InvariantMeanReport(
        mean=mean,
        projector=projector,
        idempotency_residual=idem,
        commutation_residual=comm,
        cauchy_residual=cauchy,
        refinement_distance=float(np.max(np.abs(projector - mean))),
        lawful=bool(idem <= law_tolerance and comm <= law_tolerance),
    )


# -- tensor products ----------------------------------------------------------------


def tensor_product(left: MarkovSystem, right: MarkovSystem) -> MarkovSystem:
    """Kronecker product system with the pairwise tensor functional family."""
    d = left.dimension * right.dimension
    if d > TENSOR_DIMENSION_CAP:
        raise ValueError(
            f"tensor dimension {d} exceeds the cap {TENSOR_DIMENSION_CAP}"
        )
    rows = [
        np.kron(phi, psi) for phi in left.functionals for psi in right.functionals
    ]
    return MarkovSystem(
        transition=np.kron(left.transition, right.transition),
        idempotent=np.kron(left.idempotent, right.idempotent),
        functionals=np.array(rows),
        commutative=left.commutative and right.commutative,
    )

