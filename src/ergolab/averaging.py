"""Weighted averaging nets and the mean ergodic machinery for matrix flows.

Weight families come in a discrete form on 1..N and a continuous form on a
window of the half line: uniform weights, the power family t^s (s > -1), the
logarithmic family 1/t on [1, N], the reversed-power family (N - t)^s, and
user-supplied sampled weights on the discrete side.

Continuous shift defects (``folner_defect``) are closed-form mass ratios.
The continuous uniform, power t^k and voronoi (N - t)^k means of a unitary
flow, for an integer 0 <= k <= 4, are exact: each eigenvalue's mean of
e^(i lambda t) over the window has a closed form (``_polynomial_means``, of
which uniform is k = 0).  Log weights and non-integer exponents use
composite Simpson quadrature with a sub-step of at most 0.01, as the
reparametrized side of ``transformed_average_check`` does; the logarithmic
family integrates on a geometric grid (uniform in log t), and power weights
with negative exponent get a closed-form head cell so the integrable
endpoint singularity never meets the grid.  Quadrature accumulates over
fixed-size chunks in index order, so results are reproducible bit for bit,
and a grid of more than ``QUAD_NODE_CAP`` nodes is refused before any node
is allocated.

Discrete means of matrix powers whose weights are a polynomial in n are
summed by binary doubling in O(log N) products, with the normalizer an
exact integer sum (``weighted_power_means``); the other weights step the
powers one at a time (``power_means``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

_CHUNK = 1 << 17
_SUBSTEP = 0.01
_NULL_THRESHOLD = 1e-10  # fixed_space_projection: spectrum at most this counts as zero

# the largest count of discrete weights: 10**7 float64 weights are 80 MB, and
# a loop over them takes seconds per weight vector; beyond it a config is
# refused before anything is allocated
WEIGHT_COUNT_CAP = 10**7

# the largest Simpson grid: 2 * 10**7 nodes hold 160 MB per float64 array, and
# a flow mean keeps a few such arrays; a larger grid is refused before any
# node is allocated
QUAD_NODE_CAP = 2 * 10**7

# the largest power-mean sweep, in steps * d * d * columns multiply-adds: one
# core takes 0.2 to 2 ns per multiply-add (numpy, d from 16 to 1000), so the
# cap is at most about 20 s; a larger sweep is refused before its first step
POWER_MEAN_WORK_CAP = 10**10

DISCRETE = "discrete"
CONTINUOUS = "continuous"


class SchemeError(ValueError):
    """Invalid weight-scheme declaration or use."""


class IllConditionedError(ValueError):
    """Eigenproblem has spectrum too close to the fixed-space threshold: a
    fault of the input, so the runner reports it as a config error."""


@dataclass(frozen=True)
class WeightScheme:
    """A weight family together with its domain.

    ``exponent`` is taken by the power and voronoi families only and must
    satisfy -1 < s <= 4: above -1 the weights are integrable at the window's
    singular endpoint, and 4 is the largest exponent the closed forms and the
    quadrature are tested to.
    ``samples`` is taken by the custom family only, which is discrete-only.
    """

    domain: str
    family: str
    exponent: Optional[float] = None
    samples: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.domain not in (DISCRETE, CONTINUOUS):
            raise SchemeError(f"unknown domain {self.domain!r}")
        if self.family in ("power", "voronoi"):
            if self.exponent is None or not -1.0 < self.exponent <= 4.0:
                raise SchemeError("power/voronoi exponent must satisfy -1 < s <= 4")
        elif self.family not in ("uniform", "log", "custom"):
            raise SchemeError(f"unknown family {self.family!r}")
        elif self.exponent is not None:
            raise SchemeError(f"{self.family} takes no exponent")
        if self.family != "custom":
            if self.samples is not None:
                raise SchemeError(f"{self.family} takes no samples")
        elif self.domain != DISCRETE:
            raise SchemeError("custom weights are discrete-only")
        elif not self.samples or any(w < 0 for w in self.samples):
            raise SchemeError("custom weights must be nonnegative and nonempty")
        elif sum(self.samples) <= 0:
            raise SchemeError("custom weights must have positive total")

    @property
    def label(self) -> str:
        if self.exponent is not None:
            return f"{self.family}({self.exponent:g})"
        return self.family


def uniform(domain: str = DISCRETE) -> WeightScheme:
    return WeightScheme(domain, "uniform")


def power(exponent: float, domain: str = DISCRETE) -> WeightScheme:
    return WeightScheme(domain, "power", exponent=float(exponent))


def log_family(domain: str = DISCRETE) -> WeightScheme:
    return WeightScheme(domain, "log")


def voronoi(exponent: float, domain: str = DISCRETE) -> WeightScheme:
    return WeightScheme(domain, "voronoi", exponent=float(exponent))


def custom(samples: Sequence[float]) -> WeightScheme:
    return WeightScheme(DISCRETE, "custom", samples=tuple(float(w) for w in samples))


# -- discrete side -----------------------------------------------------------


def check_weight_count(count: int) -> None:
    """Refuse a count of discrete weights below 1 or above ``WEIGHT_COUNT_CAP``."""
    if count < 1:
        raise SchemeError("index must be a positive integer")
    if count > WEIGHT_COUNT_CAP:
        raise SchemeError(f"{count} discrete weights exceed the cap {WEIGHT_COUNT_CAP}")


def discrete_weights(scheme: WeightScheme, count: int) -> np.ndarray:
    """Weights f_N(n) for n = 1..count: the custom samples, or the continuous
    density at the integers on the window that ends at N + 1."""
    if scheme.domain != DISCRETE:
        raise SchemeError("discrete weights need a discrete scheme")
    check_weight_count(count)
    if scheme.family == "custom":
        if len(scheme.samples) < count:
            raise SchemeError(f"custom scheme has {len(scheme.samples)} samples, needs {count}")
        w = np.asarray(scheme.samples[:count], dtype=float)
    else:
        w = _weight_values(scheme, count + 1, np.arange(1, count + 1, dtype=float))
    if not w.sum() > 0:
        raise SchemeError("weight normalizer must be positive")
    return w


def check_power_mean_work(work: int) -> None:
    """Refuse a mean sweep of more than ``POWER_MEAN_WORK_CAP`` multiply-adds."""
    if work > POWER_MEAN_WORK_CAP:
        raise SchemeError(f"power-mean work {work} exceeds the cap {POWER_MEAN_WORK_CAP}")


def power_means(
    matrix: np.ndarray, start: np.ndarray, *weights: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """One mean sum_n w_n M^n start / sum w over n = 1..len(w) per weight vector w.

    The powers M^n start are stepped once, to the longest vector, and each
    mean is accumulated in step order: bit for bit the mean of a pass made
    for its vector alone.  Raises ``SchemeError`` when the sweep's
    multiply-adds exceed ``POWER_MEAN_WORK_CAP``.
    """
    check_power_mean_work(max(len(w) for w in weights) * matrix.shape[0] * start.size)
    accs = [np.zeros(start.shape, dtype=complex) for _ in weights]
    cur = start
    for step in zip_longest(*(w.tolist() for w in weights)):
        cur = matrix @ cur
        for acc, w in zip(accs, step):
            if w is not None:
                acc += w * cur
    return tuple(acc / w.sum() for acc, w in zip(accs, weights))


def weighted_power_means(
    matrix: np.ndarray, start: np.ndarray, scheme: WeightScheme, *counts: int
) -> Tuple[np.ndarray, ...]:
    """One mean sum_n w_n M^n start / sum w over n = 1..N per count N, with the
    scheme's discrete weights w.

    Weights that are a polynomial of degree s in n -- uniform (s = 0), and
    power n^s or voronoi (N + 1 - n)^s with an integer exponent 0 <= s <= 4
    -- are summed by binary doubling (Paterson and Stockmeyer, SIAM J.
    Comput. 2(1), 1973) in at most (s + 4)·log2 N products, when that work
    count (``_doubling_work``, summed over the bit walks of
    ``_doubled_sums``) is below the loop's N·d·d·columns; it is then
    refused above ``POWER_MEAN_WORK_CAP`` before the first product, and the
    normalizer is the exact integer sum of n^s, so no weight is built.
    Every other family, and a sweep too short to gain, steps
    ``power_means`` on the weights of ``discrete_weights``.

    Error bound of the doubled sum: to first order in the unit roundoff u,
    each entry is off by at most ((N + 2L)·d + (s + 5)·L)·u times the same
    entry of sum_n w_n |M|^n |start| / sum w, with L = N.bit_length().  The
    N·d is the worst case of any computed power M^n, by squaring as by
    stepping; the rest is the accumulation, which rounds O((s + 1)·log N)
    terms per entry against the loop's N: the loop's bound is (N·d + 2N)·u.
    """
    degree = _polynomial_degree(scheme)
    d = matrix.shape[0]
    if degree is not None and scheme.domain == DISCRETE:
        for count in counts:
            check_weight_count(count)
        work = sum(_doubling_work(top, degree, d, start.size) for top in _walks(counts))
        if work < max(counts) * d * start.size:
            check_power_mean_work(work)
            sums = _doubled_sums(matrix, start, scheme.family == "voronoi", degree, counts)
            return tuple(sums[count] / float(_POWER_SUMS[degree](count)) for count in counts)
    return power_means(matrix, start, *(discrete_weights(scheme, count) for count in counts))


# sum_{n=1}^{N} n^s for s = 0..4 (Faulhaber), exact in integers
_POWER_SUMS = (
    lambda n: n,
    lambda n: n * (n + 1) // 2,
    lambda n: n * (n + 1) * (2 * n + 1) // 6,
    lambda n: (n * (n + 1) // 2) ** 2,
    lambda n: n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30,
)


def _polynomial_degree(scheme: WeightScheme) -> Optional[int]:
    """The degree s of weights that are a polynomial in n, None for the rest."""
    if scheme.family == "uniform":
        return 0
    s = scheme.exponent
    if scheme.family in ("power", "voronoi") and s >= 0 and s == int(s):
        return int(s)
    return None


def _walks(counts: Sequence[int]) -> List[int]:
    """The counts whose bit walks pass every count: a count whose bits begin a
    larger count's is read off that walk, so N and 2N take one walk."""
    tops: List[int] = []
    for count in sorted(set(counts), reverse=True):
        if all(top >> (top.bit_length() - count.bit_length()) != count for top in tops):
            tops.append(count)
    return tops


def _doubling_work(count: int, degree: int, d: int, size: int) -> int:
    """Multiply-adds of one ``_doubled_sums`` walk to count, for a start of
    ``size`` entries: M X, then per doubling M^k squared and the s + 1 sums
    times M^k, per further set bit M^k times M and M^(k+1) X."""
    cube, step = d * d * d, d * size
    doublings, set_bits = count.bit_length() - 1, bin(count).count("1") - 1
    return step + doublings * (cube + (degree + 1) * step) + set_bits * (cube + step)


def _binomial(sums: np.ndarray, shift: int) -> np.ndarray:
    """sum_i C(j, i) shift^(j - i) sums[i] for every j: the sums re-based by shift."""
    size = len(sums)
    coeff = np.array(
        [[math.comb(j, i) * shift ** (j - i) if i <= j else 0 for i in range(size)]
         for j in range(size)],
        dtype=float,
    )
    return (coeff @ sums.reshape(size, -1)).reshape(sums.shape)


def _doubled_sums(
    matrix: np.ndarray, start: np.ndarray, voronoi_sums: bool, degree: int,
    counts: Sequence[int],
) -> Dict[int, np.ndarray]:
    """sum_n p(n) M^n start over n = 1..N for each count N, for p(n) = n^s or
    (N + 1 - n)^s.

    Keeps M^k and, for j = 0..s, S_j(k) = sum_{n<=k} n^j M^n X, or the
    reversed T_j(k) = sum_{n<=k} (k + 1 - n)^j M^n X, from k = 1 along the
    bits of the count:
      doubling   S_j(2k) = S_j(k) + M^k sum_i C(j,i) k^(j-i) S_i(k),
                 T_j(2k) = sum_i C(j,i) k^(j-i) T_i(k) + M^k T_j(k);
      set bit    S_j(k+1) = S_j(k) + (k+1)^j M^(k+1) X,
                 T_j(k+1) = sum_i C(j,i) T_i(k) + M^(k+1) X.
    Every coefficient is positive, so nothing cancels.  Each k on the way is
    a prefix of the count's bits and its sums are complete, so one walk per
    ``_walks`` count serves every count whose bits begin it, bit for bit as
    a walk of its own would.
    """
    cols = start.reshape(start.shape[0], -1)
    out = {}
    for top in _walks(counts):
        power = matrix
        sums = np.repeat((matrix @ cols)[np.newaxis], degree + 1, axis=0)  # S_j(1) = T_j(1) = M X
        k = 1
        for bit in bin(top)[3:]:
            if k in counts:
                out[k] = sums[degree].reshape(start.shape)
            moved = _binomial(sums, k)
            sums = moved + power @ sums if voronoi_sums else sums + power @ moved
            power = power @ power
            k *= 2
            if bit == "1":
                power = power @ matrix
                fresh = power @ cols
                k += 1
                if voronoi_sums:
                    sums = _binomial(sums, 1) + fresh
                else:
                    scale = np.array([k**j for j in range(degree + 1)], dtype=float)
                    sums = sums + scale[:, np.newaxis, np.newaxis] * fresh
        out[k] = sums[degree].reshape(start.shape)
    return out


def weighted_mean_scalar(values: Sequence[complex], scheme: WeightScheme, count: int) -> complex:
    """Normalized weighted mean of values indexed by n = 1..count."""
    vals = np.asarray(values)
    if vals.shape[0] != count:
        raise SchemeError(f"need {count} values, got {vals.shape[0]}")
    w = discrete_weights(scheme, count)
    return complex((w * vals).sum() / w.sum())


def _whole(value: float, what: str) -> int:
    """A discrete index or shift, refused rather than truncated when fractional."""
    if value != int(value):
        raise SchemeError(f"a discrete {what} must be an integer, got {value:g}")
    return int(value)


# -- continuous quadrature ------------------------------------------------------


def window(scheme: WeightScheme, index: float) -> Tuple[float, float]:
    """The averaging window for a continuous scheme at net index N."""
    if scheme.family == "log":
        if index <= 1.0:
            raise SchemeError("log window needs index > 1")
        return (1.0, float(index))
    if index <= 0.0:
        raise SchemeError("index must be positive")
    return (0.0, float(index))


def _simpson_grid(a: float, b: float, substep: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and Simpson coefficients on [a, b] with sub-step <= substep."""
    span = b - a
    panels = span / (2.0 * substep)
    if not panels <= (QUAD_NODE_CAP - 1) // 2:
        raise SchemeError(
            f"Simpson quadrature on [{a:g}, {b:g}] needs more than {QUAD_NODE_CAP} nodes"
        )
    panels = max(1, math.ceil(panels))
    nsub = 2 * panels
    h = span / nsub
    ts = a + h * np.arange(nsub + 1)
    coeff = np.full(nsub + 1, 2.0)
    coeff[1::2] = 4.0
    coeff[0] = coeff[-1] = 1.0
    return ts, coeff * (h / 3.0)


def _weight_values(scheme: WeightScheme, index: float, ts: np.ndarray) -> np.ndarray:
    """A family's density at the times ts, on a window that ends at index."""
    if scheme.family == "uniform":
        return np.ones_like(ts)
    if scheme.family == "power":
        return ts ** scheme.exponent
    if scheme.family == "log":
        return 1.0 / ts
    if scheme.family == "voronoi":
        return (index - ts) ** scheme.exponent
    raise SchemeError(f"family {scheme.family!r} has no continuous form")


def _plan(scheme: WeightScheme, index: float):
    """Quadrature plan: grid window, closed-form head/tail mass, head/tail times.

    Power and voronoi weights with negative exponent have an integrable
    singularity at one window endpoint; a cell of one sub-step is integrated
    there in closed form, the rest goes on the grid.
    """
    a, b = window(scheme, index)
    head = tail = 0.0
    s = scheme.exponent
    if scheme.family == "power" and s is not None and s < 0:
        head = _SUBSTEP ** (s + 1.0) / (s + 1.0)
        a += _SUBSTEP
    elif scheme.family == "voronoi" and s is not None and s < 0:
        tail = _SUBSTEP ** (s + 1.0) / (s + 1.0)
        b -= _SUBSTEP
    if b <= a:
        raise SchemeError("window too small for the quadrature sub-step")
    return a, b, head, tail


# -- matrix flows -------------------------------------------------------------


class UnitaryFlow:
    """Continuous one-parameter unitary group generated by a Hermitian matrix."""

    def __init__(self, generator: Sequence[Sequence[complex]]):
        h = np.asarray(generator, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("generator must be a square matrix")
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError("generator must be Hermitian")
        self.generator = h
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)

    @property
    def dimension(self) -> int:
        return self.generator.shape[0]

    @property
    def max_frequency(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.dimension else 0.0

    def at(self, t: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(1j * t * self.eigenvalues)) @ v.conj().T

    def phase_sums(self, ts: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """sum_t coeff[t] * exp(i t lambda_j), accumulated in fixed chunk order."""
        out = np.zeros(self.dimension, dtype=complex)
        lam = self.eigenvalues
        for start in range(0, ts.shape[0], _CHUNK):
            t_chunk = ts[start : start + _CHUNK]
            c_chunk = coeff[start : start + _CHUNK]
            for j, freq in enumerate(lam):
                phase = freq * t_chunk
                out[j] += c_chunk @ np.cos(phase) + 1j * (c_chunk @ np.sin(phase))
        return out


def _spectral_sum(
    flow: UnitaryFlow, x: np.ndarray, ts: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Numerator sum_t w_t U_t x and denominator sum_t w_t of a quadrature mean.

    The numerator is formed on the eigenbasis, V (phase sums * V* x).  The
    denominator is chunked exactly as ``phase_sums`` reduces, so a zero
    eigenvalue's phase sum equals it bit for bit and constant flows average
    to their input with no rounding residue.
    """
    v = flow.eigenvectors
    numerator = v @ (flow.phase_sums(ts, weights) * (v.conj().T @ x))
    denominator = 0.0
    for start in range(0, weights.shape[0], _CHUNK):
        w_chunk = weights[start : start + _CHUNK]
        denominator += w_chunk @ np.ones_like(w_chunk)
    return numerator, denominator


class PowerContraction:
    """Discrete semigroup of powers of a single contraction matrix."""

    def __init__(self, matrix: Sequence[Sequence[complex]]):
        u = np.asarray(matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("matrix must be square")
        norm = float(np.linalg.norm(u, 2))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"matrix is not a contraction: operator norm {norm}")
        self.matrix = u

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


Flow = Union[UnitaryFlow, PowerContraction]


def fixed_space_projection(flow: Flow) -> np.ndarray:
    """Orthogonal projection onto the common fixed space of the flow.

    Continuous: the kernel of the generator.  Discrete: the kernel of U - I,
    which for a Hilbert-space contraction carries the full mean-ergodic
    limit.  Raises when the relevant spectrum crowds the threshold.
    """
    if isinstance(flow, UnitaryFlow):
        lam = np.abs(flow.eigenvalues)
        if np.any((lam > _NULL_THRESHOLD) & (lam < 100 * _NULL_THRESHOLD)):
            raise IllConditionedError(
                f"generator eigenvalues within (1, 100) x {_NULL_THRESHOLD} of zero: "
                f"{sorted(lam)}"
            )
        cols = flow.eigenvectors[:, lam <= _NULL_THRESHOLD]
        return cols @ cols.conj().T
    m = flow.matrix - np.eye(flow.dimension)
    _, svals, vh = np.linalg.svd(m)
    scale = max(1.0, float(svals[0]) if svals.size else 1.0)
    if np.any((svals > _NULL_THRESHOLD * scale) & (svals < 100 * _NULL_THRESHOLD * scale)):
        raise IllConditionedError(
            f"singular values of U - I crowd the null threshold: {svals}"
        )
    null = vh[svals <= _NULL_THRESHOLD * scale].conj().T
    return null @ null.conj().T


# terms of the series of ``_polynomial_means``: at |theta| < k + 1 <= 5 the
# m-th term is at most 5^m / (6·7···(m + 5)), so the terms past m = 32 sum
# to under 2^-64
_SERIES_TERMS = 32


def _polynomial_means(freq: np.ndarray, index: float, degree: int) -> np.ndarray:
    """I_k(theta) = (k + 1) int_0^1 u^k e^(i theta u) du at theta = freq·index,
    k = degree: each frequency's mean of e^(i freq t) under the weight t^k on
    [0, index].

    J_0 = int_0^1 e^(i theta u) du = (e^(i theta) - 1) / (i theta) is taken in
    the form that is exactly 1 at theta = 0 and does not cancel for small
    theta; at k = 0 that is the whole mean.  For k >= 1 and |theta| >= k + 1,
    integration by parts steps J_j = (e^(i theta) - j J_(j-1)) / (i theta)
    from J_0, each step scaling the error carried in by j / |theta| < 1.
    Below that the steps would amplify it, and Kummer's transformation
    I_k(theta) = 1F1(k + 1; k + 2; i theta) = e^(i theta) 1F1(1; k + 2; -i theta)
    gives the series e^(i theta) sum_m (-i theta)^m / ((k + 2)···(k + m + 1)),
    whose terms shrink in modulus from the first, 1.  For k = 1..4, against
    an 80-digit 1F1, both are within 5 ulps relative for |theta| from 1e-300
    to 1e6.
    """
    theta = freq * index
    means = np.exp(0.5j * theta) * np.sinc(theta / (2.0 * math.pi))
    if degree == 0:
        return means
    far = np.abs(theta) >= degree + 1
    t, j = theta[far], means[far]
    for step in range(1, degree + 1):
        j = (np.exp(1j * t) - step * j) / (1j * t)
    means[far] = (degree + 1) * j
    t = theta[~far]
    term = total = np.ones(t.shape, dtype=complex)
    for m in range(_SERIES_TERMS):
        term = term * (-1j * t / (degree + 2 + m))
        total = total + term
    means[~far] = np.exp(1j * t) * total
    return means


def _continuous_flow_mean(
    flow: UnitaryFlow, x: np.ndarray, scheme: WeightScheme, index: float
) -> np.ndarray:
    degree = _polynomial_degree(scheme)
    if degree is not None:
        window(scheme, index)  # refuses an index <= 0
        lam = flow.eigenvalues
        if scheme.family == "voronoi":
            # t -> N - t carries (N - t)^k e^(i lambda t) to e^(i lambda N) t^k e^(-i lambda t)
            means = np.exp(1j * lam * index) * _polynomial_means(-lam, index, degree)
        else:
            means = _polynomial_means(lam, index, degree)
        v = flow.eigenvectors
        return v @ (means * (v.conj().T @ x))
    a, b, head, tail = _plan(scheme, index)
    if scheme.family == "log":
        # geometric grid: integrate in u = log t, where the weight is flat
        substep = min(_SUBSTEP, 0.2 / (1.0 + flow.max_frequency * index))
        us, weights = _simpson_grid(0.0, math.log(b), substep)
        ts = np.exp(us)
    else:
        ts, coeff = _simpson_grid(a, b, _SUBSTEP)
        weights = coeff * _weight_values(scheme, index, ts)
    numerator, denominator = _spectral_sum(flow, x, ts, weights)
    if head:
        numerator = numerator + head * x
        denominator += head
    if tail:
        numerator = numerator + tail * (flow.at(b + _SUBSTEP) @ x)
        denominator += tail
    if not denominator > 0:
        raise SchemeError("weight normalizer must be positive")
    return numerator / denominator


def weighted_mean_flow(flow: Flow, x: Sequence[complex], scheme: WeightScheme, index) -> np.ndarray:
    """The normalized weighted average of the flow orbit of x up to index."""
    vec = np.asarray(x, dtype=complex)
    if vec.shape != (flow.dimension,):
        raise ValueError(f"vector must have shape ({flow.dimension},)")
    if isinstance(flow, UnitaryFlow):
        if scheme.domain != CONTINUOUS:
            raise SchemeError("a continuous flow needs a continuous scheme")
        return _continuous_flow_mean(flow, vec, scheme, float(index))
    if scheme.domain != DISCRETE:
        raise SchemeError("a discrete flow needs a discrete scheme")
    return weighted_power_means(flow.matrix, vec, scheme, _whole(index, "index"))[0]


# -- transformed averages ------------------------------------------------------


@dataclass(frozen=True)
class PowerSubstitution:
    """Compare the power-weighted mean with the substituted uniform mean."""

    exponent: float


@dataclass(frozen=True)
class ExpSubstitution:
    """Compare the logarithmic mean with the exponentially substituted mean."""


def transformed_average_check(
    flow: UnitaryFlow,
    x: Sequence[complex],
    variant: Union[PowerSubstitution, ExpSubstitution],
    index: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both sides of a substitution identity, on matched windows.

    Power case: the t^s-weighted mean over [0, N^(1/(s+1))] against the plain
    mean of the reparametrized flow over [0, N].  Exponential case: the 1/t
    mean over [1, e^N] against the plain mean of the exponentially
    reparametrized flow over [0, N].  The two integrals are equal by change
    of variable, so they must agree within quadrature error.  The weighted
    side is ``weighted_mean_flow``: for an integer s the closed form, else
    Simpson; the reparametrized side is always Simpson.
    """
    vec = np.asarray(x, dtype=complex)
    if isinstance(variant, PowerSubstitution):
        s = variant.exponent
        if not -1.0 < s <= 4.0:
            raise SchemeError("substitution exponent must satisfy -1 < s <= 4")
        weighted = weighted_mean_flow(
            flow, vec, power(s, CONTINUOUS), index ** (1.0 / (s + 1.0))
        )
        ts, coeff = _simpson_grid(0.0, float(index), _SUBSTEP)
        numerator, denominator = _spectral_sum(flow, vec, ts ** (1.0 / (s + 1.0)), coeff)
        return weighted, numerator / denominator
    top = float(index)
    weighted = weighted_mean_flow(flow, vec, log_family(CONTINUOUS), math.exp(top))
    substep = min(_SUBSTEP, 0.4 / (1.0 + flow.max_frequency * math.exp(top)))
    ts, coeff = _simpson_grid(0.0, top, substep)
    numerator, denominator = _spectral_sum(flow, vec, np.exp(ts), coeff)
    return weighted, numerator / denominator


# -- averaging-net defects ---------------------------------------------------------


def folner_defect(scheme: WeightScheme, shift: float, index) -> float:
    """Largest of the two normalized defect integrals for a window shift.

    First quantity: weight mass the shifted window loses at the leading edge.
    Second: total variation between the weights and their shifted copy on the
    overlap.  Both are normalized by the full weight mass; an averaging
    family must send both to zero as the index grows.

    Every continuous family is monotone on its window, so the variation is a
    difference of antiderivatives and each defect is a ratio of masses in
    closed form.  It depends on the index only through h / N (log N for the
    log family), so nothing cancels or overflows at any finite index.
    """
    if shift <= 0:
        raise SchemeError("shift must be positive")
    if scheme.domain == DISCRETE:
        count = _whole(index, "index")
        h = _whole(shift, "shift")
        w = discrete_weights(scheme, count)
        if h >= count:
            return 1.0
        total = w.sum()
        lost = w[:h].sum()
        varied = np.abs(w[h:] - w[:-h]).sum()
        return float(max(lost, varied) / total)
    a, b = window(scheme, float(index))
    if shift >= b - a:
        return 1.0
    if scheme.family == "uniform":
        return shift / (b - a)
    if scheme.family == "log":
        # log(1 + h) is lost at the leading edge; the copy shifted past N
        # carries log(N / (N - h)); the variation is their difference
        lost = math.log1p(shift)
        last = -math.log1p(-shift / b)
        return max(lost, abs(lost - last)) / math.log(b)
    # over the mass N^p / p: the head [0, h] carries x^p and the tail [N - h, N]
    # carries 1 - (1 - x)^p, x = h / N; the variation is their difference
    p = scheme.exponent + 1.0
    x = shift / b
    head = x**p
    tail = -math.expm1(p * math.log1p(-x))
    lost = head if scheme.family == "power" else tail
    return max(lost, abs(tail - head))
