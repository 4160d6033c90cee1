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
Its spectrum {p, 1, -1, 1} is known, so its uniform checks and invariant
mean are closed forms in p and N, built on ``FourStateSystem.spectral``; the
stepping loops stay for every other system and are their test oracle, and
the plain check steps its loop where a proven roundoff bound reaches the
tolerance (as at p = 3/8, N = 600), so its verdict is always the loop's.

A tensor product system is its two factors: its Kronecker matrices and
functional rows are built only when read, and its absolute check over the
standard basis never builds or steps them.  With P = F_A·T_Aⁿ and
Q = F_B·T_Bⁿ stepped on each factor, the identity
I − E_A⊗E_B = (I − E_A)⊗I + E_A⊗(I − E_B) gives every value of the tensor
family as P(I − E_A)⊗Q + P·E_A⊗Q(I − E_B), a rank-two product.  The split
form, not the difference P⊗Q − P·E_A⊗Q·E_B, keeps exactly zero values
exactly zero.  The loop over the Kronecker matrix stays for every other
system and for given vectors, and is the factored sweep's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .averaging import (SchemeError, WeightScheme, check_power_mean_work, check_weight_count,
                        discrete_weights, power_means, uniform, weighted_power_means)

TENSOR_DIMENSION_CAP = 4096
# |F_A|·|F_B|·d_A·d_B, the size of the tensor functional rows and of one step
# of the factored sweep, and the 4-state example's own |F|·4; the largest grids
# in use are 19,200 in the catalogues and 153,600 in the tests
TENSOR_GRID_CAP = 2**22
# elements of one chunk of factored sweep steps (6 steps at |F| = 300, d = 64)
TENSOR_CHUNK_ELEMENTS = 2**17

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
    if 4 * family_points > TENSOR_GRID_CAP:
        raise ValueError(f"functional family {4 * family_points} exceeds the cap {TENSOR_GRID_CAP}")
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


def _complement_columns(system: MarkovSystem | TensorSystem, vectors) -> np.ndarray:
    """(I − E)·V for given columns V, and I − E itself for the standard basis."""
    d = system.dimension
    if vectors is None:
        return np.eye(d) - system.idempotent
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] != d:
        raise ValueError(f"vectors must be columns of height {d}")
    return (np.eye(d) - system.idempotent) @ v


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
    system: MarkovSystem | TensorSystem,
    scheme: WeightScheme,
    sweep: int,
    tolerance: float,
    vectors=None,
) -> MeanCheckReport:
    """Weighted means of functional values along the orbit of (1 - E)x.

    Passes when the largest absolute mean over the functional family and the
    supplied vectors (default: standard basis) is within tolerance.  A sweep
    of more than ``POWER_MEAN_WORK_CAP`` multiply-adds is refused first.

    The mean is stepped by the loop (``power_means``), not doubled as in
    ``invariant_mean_projection``, because verdicts and witnesses read off
    it are pinned to the loop's roundoff: doubled, three 4-state items of
    the seed-1 benchmark catalogue at p = 3/8, whose defect ties the
    tolerance (section4/44, 48 and 84), pass instead of failing, and the
    witness functional of tensor-16/1, whose defects tie, moves from 4 to 0.
    """
    w = discrete_weights(scheme, sweep)
    d = system.dimension
    check_power_mean_work(len(w) * d**3)
    d0 = _complement_columns(system, vectors)
    (mean,) = power_means(system.transition, np.eye(d, dtype=complex), w)
    return _report(np.abs(system.functionals @ mean @ d0), tolerance)


def weak_mixing_check(
    system: MarkovSystem | TensorSystem,
    scheme: WeightScheme,
    sweep: int,
    tolerance: float,
    vectors=None,
) -> MeanCheckReport:
    """Weighted means of |functional values| along the orbit of (1 - E)x.

    On failure the report carries the witnessing pair and the smallest
    running mean over the tail of the sweep, to show the defect is not a
    transient.  A real system (functionals, transition and (1 - E)x all with
    zero imaginary part) is swept in real arithmetic.  A ``TensorSystem``
    checked over the standard basis is swept on its factors:
    value[(i, j), (a, b)] = (P(I − E_A))[i, a]·Q[j, b] +
    (P·E_A)[i, a]·(Q(I − E_B))[j, b] with P = F_A·T_Aⁿ and Q = F_B·T_Bⁿ,
    from I − E_A⊗E_B = (I − E_A)⊗I + E_A⊗(I − E_B).  Unlike the difference
    P⊗Q − P·E_A⊗Q·E_B, this split form keeps exact zeros exact.  A sweep of
    more than ``POWER_MEAN_WORK_CAP`` multiply-adds is refused first.
    """
    w = discrete_weights(scheme, sweep)
    check_power_mean_work(len(w) * _step_work(system, vectors))
    if isinstance(system, TensorSystem) and vectors is None:
        defects, orbit = _tensor_sweep(system.left, system.right, w)
    else:
        defects, orbit = _orbit_sweep(system, _complement_columns(system, vectors), w)
    return _report(defects, tolerance, lambda fi, vi: _tail_min(orbit(fi, vi), w))


def _step_work(system: MarkovSystem | TensorSystem, vectors) -> int:
    """Multiply-adds of one step of ``weak_mixing_check``, read from the
    shapes without building a Kronecker property: 3|F_A|d_A² + 2|F_B|d_B² +
    2|F|·d for the factored sweep, |F|·d·(d + columns) for the full loop."""
    d = system.dimension
    if isinstance(system, TensorSystem):
        (na, da), (nb, db) = system.left.functionals.shape, system.right.functionals.shape
        if vectors is None:
            return 3 * na * da * da + 2 * nb * db * db + 2 * na * nb * d
        rows = na * nb
    else:
        rows = len(system.functionals)
    return rows * d * (d + (d if vectors is None else np.size(vectors) // d))


def _real_if_possible(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays as real ones when none has a nonzero imaginary part."""
    if any(a.imag.any() for a in arrays):
        return arrays
    return tuple(np.ascontiguousarray(a.real) for a in arrays)


def _orbit_sweep(system: MarkovSystem | TensorSystem, d0: np.ndarray, w: np.ndarray):
    """Defects |φTⁿ·d0| for the columns d0 = (1 − E)x, averaged by stepping the
    functional rows, and the orbit of one (functional, vector) pair for the witness tail."""
    functionals, transition, d0 = _real_if_possible(
        system.functionals, system.transition, d0
    )
    rows = functionals
    acc = np.zeros((rows.shape[0], d0.shape[1]))
    for n in range(len(w)):
        rows = rows @ transition
        acc += w[n] * np.abs(rows @ d0)

    def orbit(fi: int, vi: int):
        row, col = functionals[fi], d0[:, vi]
        for _ in range(len(w)):
            row = row @ transition
            yield row @ col

    return acc / w.sum(), orbit


def _tensor_sweep(left: MarkovSystem, right: MarkovSystem, w: np.ndarray):
    """``_orbit_sweep`` of ``tensor_product(left, right)`` over the standard
    basis, stepping each factor's rows on its own.

    A chunk of steps is one batched product of U = [P(I − E_A) | P·E_A]
    (|F_A|·d_A × 2 per step) with R = [Q ; Q(I − E_B)] (2 × |F_B|·d_B), laid
    out as ((i, a), (j, b)) and reordered to ((i, j), (a, b)) at the end.
    """
    da, db = left.dimension, right.dimension
    fa, ta, ea, fb, tb, eb = _real_if_possible(
        left.functionals, left.transition, left.idempotent,
        right.functionals, right.transition, right.idempotent,
    )
    ca, cb = np.eye(da) - ea, np.eye(db) - eb
    na, nb = fa.shape[0], fb.shape[0]
    chunk = max(1, TENSOR_CHUNK_ELEMENTS // (na * da * nb * db))
    acc = np.zeros(na * da * nb * db)
    # one product buffer for every chunk, and a real one for a complex modulus
    product = np.empty((min(chunk, len(w)), na * da, nb * db), dtype=fa.dtype)
    modulus = np.empty(product.shape) if product.dtype.kind == "c" else product
    p, q = fa, fb
    for start in range(0, len(w), chunk):
        steps = min(chunk, len(w) - start)
        ps = np.empty((steps,) + p.shape, dtype=p.dtype)
        qs = np.empty((steps,) + q.shape, dtype=q.dtype)
        for k in range(steps):
            p, q = p @ ta, q @ tb
            ps[k], qs[k] = p, q
        u = np.stack([ps @ ca, ps @ ea], axis=-1).reshape(steps, na * da, 2)
        r = np.stack([qs, qs @ cb], axis=1).reshape(steps, 2, nb * db)
        np.abs(np.matmul(u, r, out=product[:steps]), out=modulus[:steps])
        acc += w[start : start + steps] @ modulus[:steps].reshape(steps, -1)
    defects = acc.reshape(na, da, nb, db).transpose(0, 2, 1, 3).reshape(na * nb, da * db)

    def orbit(fi: int, vi: int):
        (i, j), (a, b) = divmod(fi, nb), divmod(vi, db)
        p, q = fa[i], fb[j]
        for _ in range(len(w)):
            p, q = p @ ta, q @ tb
            yield (p @ ca[:, a]) * q[b] + (p @ ea[:, a]) * (q @ cb[:, b])

    return defects / w.sum(), orbit


def _tail_min(values: Iterable, w: np.ndarray) -> float:
    """The smallest running mean Σ w_n|value_n| / Σ w_n over the second half
    of the sweep."""
    running = np.empty(len(w))
    total_w = 0.0
    total = 0.0
    for n, value in enumerate(values):
        total += w[n] * abs(value)
        total_w += w[n]
        running[n] = total / total_w
    return float(running[len(w) // 2 :].min())


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
    idempotent E = V·diag(kept)·V⁻¹ (``PERIPHERAL`` or ``FIXED``): each
    defect is ``_eigen_coefficients`` times the uniform mean of |λ_j|ⁿ.  That
    mean is nonincreasing in N for |λ_j| <= 1, so the smallest running mean
    over the tail of the sweep is the one at N: the witness tail minimum is
    the defect itself.
    """
    means = _uniform_means(np.abs(system.eigenvalues), sweep)
    defects = _eigen_coefficients(system, kept, functionals) * means
    return _report(defects, tolerance, lambda fi, vi: float(defects[fi, vi]))


def _eigen_coefficients(system: FourStateSystem, kept, functionals) -> np.ndarray:
    """|F·V|·diag(1 − kept).  As (I − E)·V = V·diag(1 − kept), the value
    φ_i Tⁿ(I − E)v_j is (F·V)[i, j]·(1 − kept_j)·λ_jⁿ."""
    coefficients = np.abs(np.asarray(functionals) @ system.eigenbasis)
    coefficients *= 1.0 - np.asarray(kept)
    return coefficients


def four_state_unique_ergodicity(
    system: FourStateSystem, kept, functionals, sweep: int, tolerance: float
) -> MeanCheckReport:
    """``unique_ergodicity_check`` of the 4-state example, uniform weights, in closed form.

    The mean of the powers is V·diag(m)·V⁻¹, m the uniform means of λ_jⁿ, so each
    defect is ``_eigen_coefficients`` times |m_j|.  Within ``_four_state_band`` of
    the tolerance, where roundoff could decide the loop's verdict, the loop runs
    with E = V·diag(kept)·V⁻¹.  A sweep the loop refuses is refused first.
    """
    check_weight_count(sweep)
    means = np.abs(_uniform_means(system.eigenvalues, sweep))
    defects = _eigen_coefficients(system, kept, functionals) * means
    if abs(defects.max() - tolerance) > _four_state_band(system, kept, functionals, sweep):
        return _report(defects, tolerance)
    loop = system.as_markov(system.spectral(kept), functionals)
    return unique_ergodicity_check(loop, uniform(), sweep, tolerance, vectors=system.eigenbasis)


def _four_state_band(system: FourStateSystem, kept, functionals, sweep: int) -> float:
    """B >= |loop defect − closed defect|, entry by entry: outside the band the verdicts agree.

    u = 2⁻⁵³, and Higham's γ_k = ku/(1 − ku) (*Accuracy and Stability of
    Numerical Algorithms*, 2002, §3.1) is written ku: for k <= 10⁷ + 11 that,
    and the rounding of B itself, is under a relative 1e-8, which the factor
    2 covers.  ‖·‖ is the ∞-norm, ν = ‖V‖, τ = ‖T‖, ρ = τ(1 + 4u) and
    C = diag(1 − kept); the data are real, so a 4-term product of complex
    arrays is within 4u|A||B|.  Against |F·V·C·diag(μ)|, μ the exact means,
    the loop errs by at most ‖F‖ρᴺ times the sum of
      (5N + 1)u‖D‖  N steps S_n = fl(T·S_{n−1}) (‖S_n − Tⁿ‖ <= 4nuρⁿ), N sums, one /N;
      8u‖D‖         the products F·mean·D, where ‖D‖ <= ν + δ;
      δ             ‖D − VC‖ for D = fl((I − E)V), E = V·diag(kept)·V⁻¹ rounded:
                    measured on one more fl((I − E)V), plus 10u‖I − E‖ν;
      Nε            from ‖R‖ <= ε, R = TV − VΛ measured plus (4τ + 1)uν, in the
                    mean of TⁿV − VΛⁿ = Σ_k T^k·R·Λ^{n−1−k}.
    The closed form errs by at most ‖F‖ν(11u·max|m| + p(2u·pᴺ + 2⁻¹⁰⁷⁴)/(N(1 − p))):
    F·V and one product (5u), five roundings of m (6u|m|), ``pow`` within an ulp.
    """
    u, n, p, inf = np.finfo(float).eps / 2, sweep, system.p, np.inf
    t, v, lam = system.transition.real, system.eigenbasis, system.eigenvalues
    complement = np.eye(4) - system.spectral(kept)
    nu, tau, eta = (np.linalg.norm(a, inf) for a in (v, t, complement))
    measured = np.linalg.norm(complement @ v - v * (1 - np.asarray(kept)), inf)
    delta = measured + 10 * u * eta * nu
    eps = np.linalg.norm(t @ v - v * lam, inf) + (4 * tau + 1) * u * nu
    loop = (tau * (1 + 4 * u)) ** n * ((5 * n + 9) * u * (nu + delta) + delta + n * eps)
    power = p * (2 * u * p**n + 2.0**-1074) / (n * (1 - p))
    closed = nu * (11 * u * np.abs(_uniform_means(lam, n)).max() + power)
    return float(2 * np.linalg.norm(np.asarray(functionals), inf) * (loop + closed))


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
    raising on failure), both from one ``weighted_power_means`` call, which
    doubles polynomial weights along one bit walk for both, then squares the
    mean to its idempotent limit; the squaring sharpens every sub-unit
    eigenvalue to zero quadratically, so a convergent mean certifies the
    unique invariant idempotent.  Raises
    ``ValueError`` unless the transition is a Markov matrix: unital, real and
    entrywise nonnegative, as ``MarkovSystem`` checks a commutative system.
    """
    t = _as_matrix(transition)
    _check_markov(t, commutative=True)
    start = np.eye(t.shape[0], dtype=complex)
    mean, double = weighted_power_means(t, start, scheme, sweep, 2 * sweep)
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


@dataclass(frozen=True)
class TensorSystem:
    """A ⊗ B as its two factors.  Each factor was validated when built, and
    what that checks carries over to A ⊗ B.  ``transition``, ``idempotent``
    and ``functionals`` are Kronecker products built on each read; row
    i·|F_B| + j of the family is φ_i ⊗ ψ_j."""

    left: MarkovSystem
    right: MarkovSystem

    @property
    def dimension(self) -> int:
        return self.left.dimension * self.right.dimension

    @property
    def transition(self) -> np.ndarray:
        return np.kron(self.left.transition, self.right.transition)

    @property
    def idempotent(self) -> np.ndarray:
        return np.kron(self.left.idempotent, self.right.idempotent)

    @property
    def functionals(self) -> np.ndarray:
        return np.kron(self.left.functionals, self.right.functionals)


def tensor_product(left: MarkovSystem, right: MarkovSystem) -> TensorSystem:
    """``TensorSystem(left, right)``.  A dimension above ``TENSOR_DIMENSION_CAP``
    or a family of more than ``TENSOR_GRID_CAP`` entries is refused."""
    d = left.dimension * right.dimension
    if d > TENSOR_DIMENSION_CAP:
        raise ValueError(
            f"tensor dimension {d} exceeds the cap {TENSOR_DIMENSION_CAP}"
        )
    grid = len(left.functionals) * len(right.functionals) * d
    if grid > TENSOR_GRID_CAP:
        raise ValueError(
            f"tensor functional grid {grid} exceeds the cap {TENSOR_GRID_CAP}"
        )
    return TensorSystem(left, right)
