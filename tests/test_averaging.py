import math
import random

import numpy as np
import pytest

from ergolab import (
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
import ergolab.averaging as averaging
from ergolab.averaging import (
    POWER_MEAN_WORK_CAP,
    _SUBSTEP,
    _doubled_sum,
    _doubling_work,
    _simpson_grid,
    _spectral_sum,
    _weight_values,
    power_means,
    weighted_power_means,
    window,
)
from power_mean_oracle import doubling_tolerance, stepped_power_mean

ALL_DISCRETE = lambda: [uniform(), power(1.0), power(-0.5), log_family(), voronoi(1.0)]
ALL_CONTINUOUS = lambda: [
    uniform(CONTINUOUS),
    power(1.0, CONTINUOUS),
    power(-0.5, CONTINUOUS),
    log_family(CONTINUOUS),
    voronoi(1.0, CONTINUOUS),
]

SIMPSON_FAMILIES = [power(s, CONTINUOUS) for s in (1.0, -0.5, -0.9, 2.5, 4.0)] + [
    log_family(CONTINUOUS),
    *(voronoi(s, CONTINUOUS) for s in (1.0, -0.5, 3.0)),
]


def simpson_normalizer(scheme, index):
    """Simpson value of the weight integral over the window.

    The singular head cell is exact here (the integrand is the bare weight),
    so it is taken wide.
    """
    a, b = window(scheme, index)
    head = tail = 0.0
    s = scheme.exponent
    width = min(0.5, (b - a) / 4.0)
    if scheme.family == "power" and s is not None and s < 0:
        head = width ** (s + 1.0) / (s + 1.0)
        a += width
    elif scheme.family == "voronoi" and s is not None and s < 0:
        tail = width ** (s + 1.0) / (s + 1.0)
        b -= width
    ts, coeff = _simpson_grid(a, b, _SUBSTEP)
    return float((coeff * _weight_values(scheme, index, ts)).sum() + head + tail)


def simpson_folner_defect(scheme, shift, index):
    """Quadrature oracle for the continuous ``folner_defect``: the lost mass
    and the variation integral by composite Simpson, with closed-form cells at
    a singular window edge, over the Simpson normalizer."""
    index = float(index)
    a, b = window(scheme, index)
    if shift >= b - a:
        return 1.0
    s = scheme.exponent
    singular = scheme.family in ("power", "voronoi") and s is not None and s < 0
    lost_head = 0.0
    lost_a, lost_b = a, a + shift
    if singular and scheme.family == "power":
        # exact antiderivative over a head cell at the singular left edge
        w = min(0.5, shift / 2.0)
        lost_head = w ** (s + 1.0) / (s + 1.0)
        lost_a += w
    ts, coeff = _simpson_grid(lost_a, lost_b, _SUBSTEP)
    lost = float((coeff * _weight_values(scheme, index, ts)).sum()) + lost_head

    var_head = 0.0
    var_a, var_b = a + shift, b
    if singular:
        # the shifted-copy difference behaves like u^s near the singular edge;
        # both antiderivatives are elementary, so the head cell is exact
        w = min(0.5, (var_b - var_a) / 8.0)
        var_head = (
            w ** (s + 1.0) - (shift + w) ** (s + 1.0) + shift ** (s + 1.0)
        ) / (s + 1.0)
        if scheme.family == "power":
            var_a += w
        else:
            var_b -= w
    ts, coeff = _simpson_grid(var_a, var_b, _SUBSTEP)
    cur = _weight_values(scheme, index, ts)
    if scheme.family == "voronoi":
        prev = (index - ts + shift) ** s
    elif scheme.family == "power":
        prev = (ts - shift) ** s
    elif scheme.family == "log":
        prev = 1.0 / (ts - shift)
    else:
        prev = np.ones_like(ts)
    varied = float((coeff * np.abs(cur - prev)).sum()) + var_head
    return max(lost, varied) / simpson_normalizer(scheme, index)


class TestSchemes:
    def test_exponent_bounds(self):
        for bad in (-1.0, -1.5, 4.5):
            with pytest.raises(SchemeError):
                power(bad)
            with pytest.raises(SchemeError):
                voronoi(bad)

    def test_custom_is_discrete_only(self):
        with pytest.raises(SchemeError):
            custom([1.0]).__class__(CONTINUOUS, "custom", samples=(1.0,))
        with pytest.raises(SchemeError):
            custom([-1.0, 2.0])
        with pytest.raises(SchemeError):
            custom([0.0, 0.0])

    @pytest.mark.parametrize(
        "family, fields, message",
        [
            ("custom", {"exponent": 2.0, "samples": (1.0, 1.0)}, "custom takes no exponent"),
            ("uniform", {"samples": (1.0, 1.0)}, "uniform takes no samples"),
            ("log", {"samples": (1.0,)}, "log takes no samples"),
            ("power", {"exponent": 1.0, "samples": (1.0,)}, "power takes no samples"),
            ("voronoi", {"exponent": 1.0, "samples": ()}, "voronoi takes no samples"),
        ],
        ids=["custom-exponent", "uniform-samples", "log-samples", "power-samples", "voronoi-samples"],
    )
    def test_a_family_keeps_only_its_fields(self, family, fields, message):
        # accepted, custom(2) would label weights that ignore the exponent
        with pytest.raises(SchemeError, match=message):
            WeightScheme(DISCRETE, family, **fields)

    def test_weights_positive(self):
        for scheme in ALL_DISCRETE():
            w = discrete_weights(scheme, 50)
            assert np.all(w >= 0) and w.sum() > 0

    def test_custom_needs_enough_samples(self):
        with pytest.raises(SchemeError):
            discrete_weights(custom([1.0, 2.0]), 3)


class TestScalarMeans:
    def test_constant_sequence(self):
        values = [3.5 - 1.0j] * 100
        for scheme in ALL_DISCRETE():
            assert abs(weighted_mean_scalar(values, scheme, 100) - (3.5 - 1.0j)) < 1e-14

    def test_alternating_uniform_even(self):
        values = [(-1.0) ** n for n in range(1, 1001)]
        assert weighted_mean_scalar(values, uniform(), 1000) == 0.0

    def test_alternating_linear_weights(self):
        count = 10**4
        values = [(-1.0) ** n for n in range(1, count + 1)]
        result = weighted_mean_scalar(values, power(1.0), count)
        assert abs(result) < 1e-3
        # closed form: sum n(-1)^n over even window is N/2; normalizer N(N+1)/2
        assert abs(result - 1.0 / (count + 1)) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(SchemeError):
            weighted_mean_scalar([1.0, 2.0], uniform(), 3)


class TestFolnerDefect:
    def test_uniform_exact_ratio(self):
        assert folner_defect(uniform(CONTINUOUS), 1.0, 100) == 1.0 / 100
        assert folner_defect(uniform(CONTINUOUS), 2.0, 500) == 2.0 / 500

    # the h = 1 closed forms hold to rounding at every finite N, 1e300 included
    LARGE = (1e7, 1e15, 1e300)

    def test_linear_weights_closed_form(self):
        # lost mass (1/N)^2; variation 2(N-1)/N^2 dominates
        for n in (100, 1000, *self.LARGE):
            got = folner_defect(power(1.0, CONTINUOUS), 1.0, n)
            want = 2.0 / n * (1.0 - 1.0 / n)
            assert abs(got - want) <= 1e-12 * want

    def test_reversed_linear_closed_form(self):
        # lost mass (2N-1)/N^2 dominates the variation 2(N-1)/N^2
        for n in (100, 1000, *self.LARGE):
            got = folner_defect(voronoi(1.0, CONTINUOUS), 1.0, n)
            want = 1.0 / n * (2.0 - 1.0 / n)
            assert abs(got - want) <= 1e-12 * want

    def test_log_closed_form(self):
        for n in (100, 1000, *self.LARGE):
            got = folner_defect(log_family(CONTINUOUS), 1.0, n)
            want = math.log(2.0) / math.log(n)
            assert abs(got - want) <= 1e-12 * want

    def test_inverse_sqrt_closed_form(self):
        for n in (100, 1000, *self.LARGE):
            got = folner_defect(power(-0.5, CONTINUOUS), 1.0, n)
            want = n**-0.5
            assert abs(got - want) <= 1e-12 * want

    def test_defects_shrink(self):
        for scheme in ALL_CONTINUOUS():
            d2 = folner_defect(scheme, 1.0, 100)
            d3 = folner_defect(scheme, 1.0, 1000)
            assert d3 < d2

    def test_discrete_defects(self):
        assert folner_defect(uniform(), 1, 100) == 1.0 / 100
        d2 = folner_defect(power(1.0), 1, 100)
        d3 = folner_defect(power(1.0), 1, 1000)
        assert d3 < d2

    @pytest.mark.parametrize("shift, index", [(0.5, 10), (1.5, 10), (1, 10.5)])
    def test_discrete_refuses_fractions(self, shift, index):
        with pytest.raises(SchemeError, match="must be an integer"):
            folner_defect(uniform(), shift, index)

    @pytest.mark.parametrize("scheme", SIMPSON_FAMILIES, ids=lambda sc: sc.label)
    def test_closed_form_against_simpson(self, scheme):
        # Simpson with a 0.01 sub-step and closed-form edge cells agrees with the
        # mass ratios within 7.3e-9 relative from N = 10 up (worst: power(-0.5),
        # h = 0.5, N = 1e4); on the shortest windows, 1.25-1.75 wide, it is off by
        # up to 4.3e-7 (voronoi(-0.5)), where its singular edge cell is the
        # inexact side.  The bounds leave a little room over those worst cases.
        for shift in (0.5, 1.0, 2.5, 4.0):
            short = [shift + 0.75, shift + 1.25, shift + 1.75]
            for index in short + [10.0, 100.0, 1000.0, 1e4]:
                oracle = simpson_folner_defect(scheme, shift, index)
                got = folner_defect(scheme, shift, index)
                bound = 1e-8 if index >= 10 else 5e-7
                assert abs(got - oracle) <= bound * oracle, (shift, index)

    def test_oversized_shift(self):
        assert folner_defect(uniform(CONTINUOUS), 20.0, 10) == 1.0
        with pytest.raises(SchemeError):
            folner_defect(uniform(CONTINUOUS), 0.0, 10)


class TestFlows:
    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            UnitaryFlow([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            PowerContraction([[1.5]])

    def test_flow_at_is_unitary(self):
        h = np.array([[1.0, 0.5], [0.5, -0.25]])
        flow = UnitaryFlow(h)
        u = flow.at(0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_fixed_space_diag(self):
        flow = UnitaryFlow(np.diag([0.0, 1.0, math.sqrt(2)]))
        assert np.allclose(fixed_space_projection(flow), np.diag([1.0, 0.0, 0.0]))

    def test_fixed_space_swap(self):
        swap = PowerContraction([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(fixed_space_projection(swap), np.full((2, 2), 0.5))

    def test_projection_laws_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            flow = UnitaryFlow((m + m.conj().T) / 2)
            p = fixed_space_projection(flow)
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p - p.conj().T)) < 1e-10

    def test_ill_conditioned_raises(self):
        with pytest.raises(IllConditionedError):
            fixed_space_projection(UnitaryFlow(np.diag([0.0, 5e-10, 1.0])))


class TestFlowMeans:
    def test_zero_generator_all_schemes(self):
        flow = UnitaryFlow(np.zeros((2, 2)))
        x = np.array([1.0, -2.0])
        for scheme in ALL_CONTINUOUS():
            m = weighted_mean_flow(flow, x, scheme, 50)
            assert np.max(np.abs(m - x)) < 1e-12

    def test_uniform_matches_closed_form(self):
        flow = UnitaryFlow(np.diag([0.0, 1.0]))
        x = np.array([1.0, 1.0])
        n = 200.0
        m = weighted_mean_flow(flow, x, uniform(CONTINUOUS), n)
        closed = np.array([1.0, (np.exp(1j * n) - 1.0) / (1j * n)])
        assert np.max(np.abs(m - closed)) < 1e-8
        assert np.linalg.norm(m - np.array([1.0, 0.0])) < 0.02

    @pytest.mark.parametrize("n", [10.0, 1e3, 1e5])
    def test_uniform_closed_form_against_simpson(self, n):
        # Simpson's rule integrates e^(i lambda t) to (1 + (lambda h)^4 / 180 + ...)
        # times the exact value, so per eigencomponent the closed-form mean and
        # the quadrature oracle differ by at most that relative error
        rng = np.random.default_rng(int(n))
        ts, coeff = _simpson_grid(0.0, n, _SUBSTEP)
        h = ts[1] - ts[0]
        for _ in range(2):
            r, s = rng.uniform(-3.0, 3.0, size=2)
            # a zero eigenvalue, |lambda| N = 1e-9, and a repeated pair
            spectrum = np.array([0.0, 1e-9 / n, r, r, s])
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            q, _ = np.linalg.qr(m)
            h_mat = q @ np.diag(spectrum) @ q.conj().T
            flow = UnitaryFlow((h_mat + h_mat.conj().T) / 2)
            v = flow.eigenvectors
            x = v @ np.ones(5)
            numerator, denominator = _spectral_sum(flow, x, ts, coeff)
            oracle = v.conj().T @ numerator / denominator
            closed = v.conj().T @ weighted_mean_flow(flow, x, uniform(CONTINUOUS), n)
            bound = (flow.eigenvalues * h) ** 4 / 180.0 + 1e-13
            assert np.all(np.abs(closed - oracle) <= bound)

    def test_uniform_zero_eigenvalue_mean_is_exactly_one(self):
        flow = UnitaryFlow(np.diag([0.0, 2.0]))
        m = weighted_mean_flow(flow, np.array([0.25 - 1j, 0.0]), uniform(CONTINUOUS), 1e7)
        assert m[0] == 0.25 - 1j and m[1] == 0.0

    def test_reversed_linear_converges(self):
        flow = UnitaryFlow(np.diag([0.0, 1.0]))
        x = np.array([1.0, 1.0])
        m = weighted_mean_flow(flow, x, voronoi(1.0, CONTINUOUS), 200)
        assert np.linalg.norm(m - np.array([1.0, 0.0])) < 0.02

    def test_discrete_semigroup_means(self):
        u = PowerContraction(np.diag([1.0, np.exp(1j)]))
        x = np.array([1.0, 1.0])
        for scheme in (uniform(), power(1.0)):
            m = weighted_mean_flow(u, x, scheme, 10**4)
            assert np.linalg.norm(m - np.array([1.0, 0.0])) < 0.02

    def test_power_mean_matches_direct_powers(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m /= np.linalg.norm(m, 2)
        w = discrete_weights(power(1.5), 30)
        for start in (np.eye(4, dtype=complex), rng.normal(size=4) + 0j):
            direct = sum(wn * np.linalg.matrix_power(m, n) @ start for n, wn in enumerate(w, 1))
            assert np.max(np.abs(power_means(m, start, w)[0] - direct / w.sum())) < 1e-12

    def test_power_means_refuse_work_over_cap(self):
        # 11 steps of a 1000 x 1000 matrix on 1000 columns: 1.1e10 multiply-adds,
        # refused before the first step
        d = 1000
        assert 11 * d**3 > POWER_MEAN_WORK_CAP >= 10 * d**3
        matrix = np.zeros((d, d))
        with pytest.raises(SchemeError, match="power-mean work 11000000000 exceeds the cap"):
            power_means(matrix, np.zeros((d, d), dtype=complex), np.ones(11))

    @pytest.mark.parametrize("s", [-0.9, -0.5, -0.2])
    def test_voronoi_is_reflected_power(self, s):
        # t -> N - t carries (N - t)^s e^(iHt) to e^(iHN) t^s e^(-iHt), so the
        # voronoi mean on H is U_N times the power mean on -H: the s < 0 tail
        # cell against the head cell
        rng = np.random.default_rng(11)
        for _ in range(3):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (m + m.conj().T) / 2
            flow, reversed_flow = UnitaryFlow(h), UnitaryFlow(-h)
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            for n in (0.5, 1.0, 7.5, 37.0, 100.0):
                tail = weighted_mean_flow(flow, x, voronoi(s, CONTINUOUS), n)
                head = weighted_mean_flow(reversed_flow, x, power(s, CONTINUOUS), n)
                assert np.max(np.abs(tail - flow.at(n) @ head)) < 1e-12

    def test_domain_mismatch(self):
        flow = UnitaryFlow(np.zeros((2, 2)))
        with pytest.raises(SchemeError):
            weighted_mean_flow(flow, np.ones(2), uniform(), 10)
        u = PowerContraction(np.eye(2))
        with pytest.raises(SchemeError):
            weighted_mean_flow(u, np.ones(2), uniform(CONTINUOUS), 10)

    def test_discrete_flow_refuses_fractional_index(self):
        u = PowerContraction(np.diag([1.0, -1.0]))
        with pytest.raises(SchemeError, match="index must be an integer"):
            weighted_mean_flow(u, np.ones(2), uniform(), 2.5)
        assert np.array_equal(
            weighted_mean_flow(u, np.ones(2), uniform(), 3.0),
            weighted_mean_flow(u, np.ones(2), uniform(), 3),
        )

    def test_dimension_mismatch(self):
        flow = UnitaryFlow(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            weighted_mean_flow(flow, np.ones(3), uniform(CONTINUOUS), 10)

    @pytest.mark.parametrize("index", [1.0, 0.5])
    def test_log_mean_needs_index_above_one(self, index):
        # the window [1, N] is empty or reversed
        flow = UnitaryFlow(np.diag([0.0, 1.0]))
        with pytest.raises(SchemeError):
            weighted_mean_flow(flow, np.ones(2), log_family(CONTINUOUS), index)


def _markov(seed: int, d: int) -> np.ndarray:
    rows = np.random.default_rng(seed).random((d, d))
    return rows / rows.sum(axis=1, keepdims=True)


# the seeded corpus of the doubled power means: a dense chain, periodic chains
# (peripheral roots of unity, real and complex), and a sub-dominant
# eigenvalue 1 - 2e-4 that keeps the means far from their limit
DOUBLING_MATRICES = {
    "markov": _markov(5, 5),
    "three-cycle": np.array(
        [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=float
    ),
    "roots-of-unity": np.diag(np.exp(2j * np.pi * np.array([0.0, 1 / 3, 1 / 2, 1 / 4]))),
    "slow": np.array([[1 - 1e-4, 1e-4], [1e-4, 1 - 1e-4]]),
}


class TestDoubledPowerMeans:
    """``weighted_power_means`` doubles polynomial weights; the stepped loop is
    its oracle, within the bound its docstring states."""

    @pytest.mark.parametrize("exponent", range(5))
    @pytest.mark.parametrize("family", [power, voronoi])
    @pytest.mark.parametrize("name", sorted(DOUBLING_MATRICES))
    def test_doubled_sums_meet_the_loop(self, name, family, exponent):
        m = DOUBLING_MATRICES[name]
        d = m.shape[0]
        scheme = family(exponent)
        vector = np.random.default_rng(exponent).normal(size=d) + 0j
        for start in (np.eye(d, dtype=complex), vector):
            # odd counts need every set-bit step, powers of two none
            for count in (1, 2, 3, 7, 64, 333, 1023, 1024):
                w = discrete_weights(scheme, count)
                doubled = _doubled_sum(m, start, family is voronoi, exponent, count) / w.sum()
                assert doubled.shape == start.shape
                gap = np.abs(doubled - stepped_power_mean(m, start, w))
                assert np.all(gap <= doubling_tolerance(m, start, w, exponent)), (start, count)

    def test_doubling_work_decides_the_path(self, monkeypatch):
        stepped = []
        loop = averaging.power_means
        monkeypatch.setattr(averaging, "power_means", lambda *a: stepped.append(a) or loop(*a))
        m = DOUBLING_MATRICES["markov"]
        start = np.eye(5, dtype=complex)
        for scheme in (log_family(), power(1.5), power(-0.5), custom([1.0, 2.0] * 50)):
            means = weighted_power_means(m, start, scheme, 40, 80)
            assert all(map(np.array_equal, means, loop(*stepped[-1])))
        assert len(stepped) == 4
        # 1000 steps of 125 multiply-adds against 10 squarings and doublings
        assert _doubling_work(1000, 0, 5, 25) < 1000 * 125
        weighted_power_means(m, start, uniform(), 1000)
        weighted_power_means(m, start, voronoi(4.0), 1000)
        assert len(stepped) == 4
        # a vector start over 3 steps: the loop's 75 multiply-adds are fewer
        vector = np.ones(5, dtype=complex)
        assert _doubling_work(3, 0, 5, 5) > 3 * 25
        (mean,) = weighted_power_means(m, vector, uniform(), 3)
        assert len(stepped) == 5
        assert np.array_equal(mean, loop(m, vector, discrete_weights(uniform(), 3))[0])

    def test_doubled_work_over_cap_is_refused_before_the_first_product(self):
        class NoProducts(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("a product ran")

        # zero strides: nothing of size d * d is allocated
        d, count = 2000, 2**20 - 1
        matrix = np.broadcast_to(np.zeros(()), (d, d)).view(NoProducts)
        start = np.broadcast_to(np.zeros((), dtype=complex), (d, d))
        # M X, then 19 doublings and 19 set bits of 2 d^3 each
        work = 77 * d**3
        assert _doubling_work(count, 0, d, d * d) == work > 60 * POWER_MEAN_WORK_CAP
        with pytest.raises(SchemeError, match=f"power-mean work {work} exceeds the cap"):
            weighted_power_means(matrix, start, uniform(), count)


class TestSubstitutions:
    def test_zero_generator(self):
        flow = UnitaryFlow(np.zeros((2, 2)))
        x = np.array([0.5, -0.5])
        for variant in (PowerSubstitution(1.0), ExpSubstitution()):
            w, s = transformed_average_check(flow, x, variant, 10.0)
            assert np.max(np.abs(w - x)) < 1e-12
            assert np.max(np.abs(s - x)) < 1e-12

    def test_power_substitution_agrees(self):
        flow = UnitaryFlow(np.diag([0.0, 1.0]))
        x = np.array([1.0, 1.0])
        w, s = transformed_average_check(flow, x, PowerSubstitution(1.0), 400.0)
        assert np.max(np.abs(w - s)) < 5e-3

    def test_exp_substitution_agrees(self):
        flow = UnitaryFlow(np.diag([0.0, 1.0]))
        x = np.array([1.0, 1.0])
        w, s = transformed_average_check(flow, x, ExpSubstitution(), 12.0)
        assert np.max(np.abs(w - s)) < 5e-3
