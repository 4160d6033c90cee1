import math
import random

import numpy as np
import pytest

from ergolab import (
    MarkovSystem,
    NonConvergenceError,
    custom,
    four_state_system,
    invariant_mean_projection,
    log_family,
    power,
    tensor_product,
    uniform,
    unique_ergodicity_check,
    voronoi,
    weak_mixing_check,
)
import ergolab.finite as finite
from ergolab.averaging import SchemeError, discrete_weights, power_means
from ergolab.finite import (
    FIXED,
    PERIPHERAL,
    TENSOR_CHUNK_ELEMENTS,
    TENSOR_GRID_CAP,
    _eigen_coefficients,
    _four_state_band,
    _uniform_means,
    four_state_invariant_mean,
    four_state_unique_ergodicity,
    four_state_weak_mixing,
)

P_GRID = (0.0, 0.3, 0.5, 0.9)


def stepped_power_mean(matrix, start, weights):
    """Oracle: sum_n w_n M^n start / sum w, one pass for one weight vector."""
    acc = np.zeros(start.shape, dtype=complex)
    cur = start
    for w in weights:
        cur = matrix @ cur
        acc += w * cur
    return acc / weights.sum()


def complex_weak_mixing(system, weights, tolerance):
    """Oracle: the absolute-mean sweep over the standard basis in complex arithmetic.

    Returns (passed, witness, witness_tail_min, max_defect).
    """
    d0 = (np.eye(system.dimension) - system.idempotent).astype(complex)
    t = system.transition.astype(complex)
    rows = system.functionals.astype(complex)
    acc = np.zeros((rows.shape[0], d0.shape[1]))
    for w in weights:
        rows = rows @ t
        acc += w * np.abs(rows @ d0)
    defects = acc / weights.sum()
    fi, vi = np.unravel_index(int(np.argmax(defects)), defects.shape)
    passed = bool(defects[fi, vi] <= tolerance)
    tail_min = None
    if not passed:
        row, col = system.functionals[fi].astype(complex), d0[:, vi]
        running, total, total_w = [], 0.0, 0.0
        for w in weights:
            row = row @ t
            total += w * abs(row @ col)
            total_w += w
            running.append(total / total_w)
        tail_min = min(running[len(weights) // 2 :])
    return passed, (int(fi), int(vi)), tail_min, float(defects[fi, vi])


def random_real_system(rng, d, functionals):
    """A random real Markov system: a stochastic matrix mixed with a cycle,
    either the zero idempotent or the stationary projection, Gaussian functionals."""
    stochastic = rng.random((d, d))
    stochastic /= stochastic.sum(axis=1, keepdims=True)
    cycle = np.roll(np.eye(d), 1, axis=1)
    t = 0.5 * stochastic + 0.5 * cycle
    if rng.random() < 0.5:
        e = np.zeros((d, d))
    else:
        e = np.outer(np.ones(d), np.linalg.matrix_power(t, 4000)[0])
    return MarkovSystem(t, e, rng.normal(size=(functionals, d)))


class TestFourStateSystem:
    def test_spectrum(self):
        for p in P_GRID:
            sys4 = four_state_system(p)
            eig = np.sort(np.linalg.eigvals(sys4.transition).real)
            want = np.sort([p, 1.0, -1.0, 1.0])
            assert np.max(np.abs(eig - want)) < 1e-10

    def test_eigenvector_relations(self):
        for p in P_GRID:
            sys4 = four_state_system(p)
            t = sys4.transition
            assert np.allclose(t @ sys4.decaying, p * sys4.decaying, atol=1e-12)
            assert np.allclose(t @ sys4.flat, sys4.flat, atol=1e-12)
            assert np.allclose(t @ sys4.alternating, -sys4.alternating, atol=1e-12)
            assert np.allclose(t @ sys4.absorbing, sys4.absorbing, atol=1e-12)

    def test_flip_eigenvector_value(self):
        sys4 = four_state_system(0.5)
        assert np.allclose(sys4.alternating, [-1.0 / 3.0, 1.0, -1.0, 0.0])

    def test_projections_idempotent(self):
        for p in P_GRID:
            sys4 = four_state_system(p)
            for proj in (sys4.proj_peripheral, sys4.proj_fixed):
                assert np.max(np.abs(proj @ proj - proj)) < 1e-12

    def test_parameter_range(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                four_state_system(bad)

    def test_family_supported_off_decaying_direction(self):
        sys4 = four_state_system(0.4)
        assert np.max(np.abs(sys4.family @ sys4.decaying)) == 0.0
        assert np.max(np.abs(sys4.family @ sys4.alternating)) < 1e-12

    def test_family_unital_flags(self):
        sys4 = four_state_system(0.4)
        # rows (0, x, x, 1-x) pair with the all-ones vector to 1 + x
        assert sys4.family_unital[0] is True
        assert all(not u for u in sys4.family_unital[1:])
        unital = four_state_system(0.4, normalization="unital")
        assert all(unital.family_unital)
        with pytest.raises(ValueError):
            four_state_system(0.4, normalization="other")


class TestEvolution:
    def test_fixed_vectors(self):
        sys4 = four_state_system(0.3)
        assert np.allclose(np.linalg.matrix_power(sys4.transition, 9) @ sys4.flat, sys4.flat)
        odd = np.linalg.matrix_power(sys4.transition, 7) @ sys4.alternating
        assert np.allclose(odd, -sys4.alternating)

    def test_decaying_direction(self):
        sys4 = four_state_system(0.5)
        out = np.linalg.matrix_power(sys4.transition, 10) @ sys4.decaying
        assert np.allclose(out, 2.0**-10 * sys4.decaying, atol=1e-14)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for p in P_GRID:
            sys4 = four_state_system(p)
            for _ in range(5):
                x = rng.normal(size=4) + 1j * rng.normal(size=4)
                for n in (0, 1, 2, 17, 100):
                    a = np.linalg.matrix_power(sys4.transition, n) @ x
                    b = sys4.spectral(sys4.eigenvalues**n) @ x
                    assert np.max(np.abs(a - b)) < 1e-10

    def test_spectral_projections(self):
        # the idempotents are the spectral form of their eigenbasis diagonals
        for p in P_GRID:
            sys4 = four_state_system(p)
            assert np.array_equal(sys4.spectral(PERIPHERAL), sys4.proj_peripheral)
            assert np.array_equal(sys4.spectral(FIXED), sys4.proj_fixed)


class TestMarkovSystem:
    def test_unitality_enforced(self):
        with pytest.raises(ValueError):
            MarkovSystem(np.diag([1.0, 0.5]), np.eye(2), np.eye(2))

    def test_idempotency_enforced(self):
        with pytest.raises(ValueError):
            MarkovSystem(np.eye(2), np.full((2, 2), 0.7), np.eye(2))

    def test_commutative_flag(self):
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        MarkovSystem(t, np.eye(2), np.eye(2), commutative=True)
        bad = np.array([[-0.5, 1.5], [1.5, -0.5]])
        with pytest.raises(ValueError):
            MarkovSystem(bad, np.eye(2), np.eye(2), commutative=True)


class TestMeanChecks:
    def test_peripheral_family_exactly_mixing(self):
        for p in P_GRID:
            sys4 = four_state_system(p)
            system = sys4.as_markov(sys4.proj_peripheral, sys4.family)
            for vectors in (None, sys4.eigenbasis):
                report = weak_mixing_check(system, uniform(), 200, 1e-12, vectors=vectors)
                assert report.passed and report.max_defect <= 1e-12

    def test_fixed_projection_fails_weak_mixing(self):
        sys4 = four_state_system(0.5)
        system = sys4.as_markov(sys4.proj_fixed, np.eye(4))
        report = weak_mixing_check(system, uniform(), 2000, 1e-12, vectors=sys4.eigenbasis)
        assert not report.passed
        assert report.witness == (1, 2)  # delta functional on state 2, flip eigenvector
        assert report.max_defect >= 0.99
        assert report.witness_tail_min is not None and report.witness_tail_min >= 0.99

    def test_fixed_projection_still_ergodic(self):
        sys4 = four_state_system(0.5)
        system = sys4.as_markov(sys4.proj_fixed, np.eye(4))
        report = unique_ergodicity_check(system, uniform(), 10**4, 1e-3, vectors=sys4.eigenbasis)
        assert report.passed and report.max_defect < 1e-3

    def test_identity_idempotent_trivial(self):
        sys4 = four_state_system(0.5)
        system = sys4.as_markov(np.eye(4), sys4.family)
        report = unique_ergodicity_check(system, uniform(), 100, 1e-14)
        assert report.passed and report.max_defect <= 1e-14

    def test_strictly_contracting_system(self):
        t = np.array([[1.0, 0.0], [0.6, 0.4]])
        e = np.array([[1.0, 0.0], [1.0, 0.0]])
        system = MarkovSystem(t, e, np.eye(2))
        report = weak_mixing_check(system, uniform(), 4000, 1e-3)
        assert report.passed

    def test_convex_hull_stability(self):
        rng = random.Random(2)
        sys4 = four_state_system(0.7)
        base = sys4.family
        combos = []
        for _ in range(100):
            w = [rng.random() for _ in range(len(base))]
            total = sum(w)
            combos.append(sum((wi / total) * row for wi, row in zip(w, base)))
        system = sys4.as_markov(sys4.proj_peripheral, np.array(combos))
        report = weak_mixing_check(system, uniform(), 200, 1e-12, vectors=sys4.eigenbasis)
        assert report.passed


class TestWeakMixingArithmetic:
    """A real system is swept in real arithmetic; any non-real part keeps it complex."""

    def test_real_systems_match_complex_oracle(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(40):
            d = int(rng.integers(2, 17))
            system = random_real_system(rng, d, int(rng.integers(1, 6)))
            sweep = int(rng.integers(5, 120))
            scheme = uniform() if rng.random() < 0.5 else power(1.0)
            report = weak_mixing_check(system, scheme, sweep, 1e-2)
            passed, witness, tail_min, max_defect = complex_weak_mixing(
                system, discrete_weights(scheme, sweep), 1e-2
            )
            outcomes.add(passed)
            assert report.passed == passed
            assert report.witness == witness
            assert abs(report.max_defect - max_defect) <= 1e-12
            if passed:
                assert report.witness_tail_min is None
            else:
                assert abs(report.witness_tail_min - tail_min) <= 1e-12
        assert outcomes == {True, False}

    def test_one_non_real_functional_keeps_complex_arithmetic(self):
        rng = np.random.default_rng(5)
        real = random_real_system(rng, 6, 3)
        functionals = real.functionals.astype(complex)
        functionals[1] += 1j * rng.normal(size=6)
        system = MarkovSystem(real.transition, np.zeros((6, 6)), functionals)
        weights = discrete_weights(uniform(), 50)
        report = weak_mixing_check(system, uniform(), 50, 1e-2)
        passed, witness, tail_min, max_defect = complex_weak_mixing(system, weights, 1e-2)
        # the same complex loop as the oracle, so the same bits
        assert (report.passed, report.witness) == (passed, witness)
        assert report.witness_tail_min == tail_min
        assert report.max_defect == max_defect
        # and the imaginary part does count: it makes row 1 the witness, and
        # dropping it changes the defect
        assert witness[0] == 1
        dropped = MarkovSystem(real.transition, np.zeros((6, 6)), functionals.real)
        assert abs(complex_weak_mixing(dropped, weights, 1e-2)[3] - max_defect) > 1e-3


class TestInvariantMean:
    def test_identity_transition(self):
        report = invariant_mean_projection(np.eye(3), uniform(), 50)
        assert np.allclose(report.mean, np.eye(3))
        assert report.lawful

    def test_swap_transition(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = invariant_mean_projection(swap, uniform(), 1000)
        assert np.max(np.abs(report.mean - 0.5)) < 1e-12
        assert report.lawful

    def test_four_state_limit(self):
        sys4 = four_state_system(0.5)
        report = invariant_mean_projection(sys4.transition, uniform(), 10**4)
        assert np.max(np.abs(report.mean - sys4.proj_fixed)) < 1e-3
        assert report.idempotency_residual <= 1e-6
        assert report.commutation_residual <= 1e-6
        assert report.lawful

    def test_weighted_scheme(self):
        sys4 = four_state_system(0.3)
        report = invariant_mean_projection(sys4.transition, power(1.0), 4000)
        assert np.max(np.abs(report.mean - sys4.proj_fixed)) < 1e-2
        assert report.lawful

    @pytest.mark.parametrize(
        "scheme",
        [uniform(), voronoi(1.0), power(1.0), log_family(), custom([1.0, 0.5] * 200)],
        ids=["uniform", "voronoi", "power", "log", "custom"],
    )
    def test_means_match_two_separate_passes(self, scheme):
        # one pass to 2N accumulates both means; the bits are those of two
        # passes, also for voronoi, whose 2N weights do not extend its N weights
        t = four_state_system(0.4).transition
        start = np.eye(4, dtype=complex)
        sweep = 150
        mean = stepped_power_mean(t, start, discrete_weights(scheme, sweep))
        double = stepped_power_mean(t, start, discrete_weights(scheme, 2 * sweep))
        report = invariant_mean_projection(t, scheme, sweep)
        assert np.array_equal(report.mean, mean)
        assert report.cauchy_residual == float(np.max(np.abs(mean - double)))

    def test_power_means_are_separate_power_means(self):
        t = four_state_system(0.7).transition
        start = np.eye(4, dtype=complex)
        weights = (
            discrete_weights(power(1.0), 90),
            discrete_weights(voronoi(2.0), 40),
            discrete_weights(uniform(), 1),
        )
        means = power_means(t, start, *weights)
        assert len(means) == 3
        for mean, w in zip(means, weights):
            assert np.array_equal(mean, stepped_power_mean(t, start, w))

    def test_complex_transition_refused(self):
        t = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.0, 1.0]])
        with pytest.raises(ValueError, match="real"):
            invariant_mean_projection(t, uniform(), 10)

    def test_cauchy_failure_raises(self):
        sys4 = four_state_system(0.5)
        with pytest.raises(NonConvergenceError):
            invariant_mean_projection(
                sys4.transition, uniform(), 3, cauchy_tolerance=1e-12
            )


class TestFourStateClosedForms:
    """The closed forms against the loops they replace for the 4-state example."""

    SWEEPS = (1, 2, 3, 599, 600)

    @pytest.mark.parametrize("normalization", ["as-written", "unital"])
    @pytest.mark.parametrize("tolerance", [1e-12, 2.0], ids=["strict", "loose"])
    def test_weak_mixing_matches_loop(self, normalization, tolerance):
        outcomes = set()
        for k in range(16):
            sys4 = four_state_system(k / 16, normalization=normalization)
            cases = (
                (PERIPHERAL, sys4.proj_peripheral, sys4.family),
                (FIXED, sys4.proj_fixed, np.eye(4)),
            )
            for sweep in self.SWEEPS:
                for kept, idempotent, functionals in cases:
                    loop = weak_mixing_check(
                        sys4.as_markov(idempotent, functionals), uniform(), sweep,
                        tolerance, vectors=sys4.eigenbasis,
                    )
                    closed = four_state_weak_mixing(sys4, kept, functionals, sweep, tolerance)
                    outcomes.add(closed.passed)
                    assert closed.passed == loop.passed
                    assert closed.witness == loop.witness
                    assert closed.tolerance == loop.tolerance
                    assert abs(closed.max_defect - loop.max_defect) <= 1e-12
                    if loop.witness_tail_min is None:
                        assert closed.witness_tail_min is None
                    else:
                        assert abs(closed.witness_tail_min - loop.witness_tail_min) <= 1e-12
        # strict: E_L passes and E_fix fails; loose: both pass, with no tail
        assert outcomes == ({True, False} if tolerance < 1 else {True})

    @pytest.mark.parametrize("normalization", ["as-written", "unital"])
    def test_invariant_mean_matches_loop(self, normalization):
        outcomes = set()
        for k in range(16):
            sys4 = four_state_system(k / 16, normalization=normalization)
            for sweep in self.SWEEPS:
                try:
                    loop, loop_error = invariant_mean_projection(
                        sys4.transition, uniform(), sweep
                    ), None
                except NonConvergenceError as exc:
                    loop, loop_error = None, str(exc)
                try:
                    closed, closed_error = four_state_invariant_mean(sys4, sweep), None
                except NonConvergenceError as exc:
                    closed, closed_error = None, str(exc)
                assert closed_error == loop_error
                outcomes.add(loop_error is None)
                if loop is None:
                    continue
                assert closed.lawful == loop.lawful
                for name in ("mean", "projector"):
                    assert np.max(np.abs(getattr(closed, name) - getattr(loop, name))) <= 1e-12
                for name in (
                    "idempotency_residual", "commutation_residual",
                    "cauchy_residual", "refinement_distance",
                ):
                    assert abs(getattr(closed, name) - getattr(loop, name)) <= 1e-12
        # sweep 1 does not converge (the flip pair), 599 and 600 do
        assert outcomes == {True, False}

    def test_huge_sweep_costs_nothing(self):
        # the closed forms take any N; the loops would need N steps
        sys4 = four_state_system(0.375)
        report = four_state_weak_mixing(sys4, FIXED, np.eye(4), 10**12, 1e-12)
        assert report.witness == (1, 2) and report.max_defect == 1.0
        limit = four_state_invariant_mean(sys4, 10**12)
        assert np.max(np.abs(limit.mean - sys4.proj_fixed)) < 1e-11
        assert limit.lawful


class TestFourStateUniqueErgodicity:
    """The plain check's closed form against ``unique_ergodicity_check``, the
    loop it replaces, inside and outside the roundoff band."""

    SWEEPS = (1, 2, 3, 599, 600, 601, 10**4)
    P_VALUES = tuple(k / 16 for k in range(16)) + tuple(
        random.Random(16).random() for _ in range(20)
    )

    @staticmethod
    def loop(sys4, kept, functionals, sweep, tolerance):
        idempotent = {PERIPHERAL: sys4.proj_peripheral, FIXED: sys4.proj_fixed}[kept]
        system = sys4.as_markov(idempotent, functionals)
        return unique_ergodicity_check(
            system, uniform(), sweep, tolerance, vectors=sys4.eigenbasis
        )

    @staticmethod
    def closed_defects(sys4, kept, functionals, sweep):
        """Every closed-form defect, and the band bound B."""
        means = np.abs(_uniform_means(sys4.eigenvalues, sweep))
        defects = _eigen_coefficients(sys4, kept, functionals) * means
        return defects, _four_state_band(sys4, kept, functionals, sweep)

    @pytest.mark.parametrize("kept", [PERIPHERAL, FIXED], ids=["EL", "Efix"])
    def test_matches_loop(self, kept):
        tolerance = 1e-3
        outcomes, witnesses_checked, in_band = set(), 0, []
        for p in self.P_VALUES:
            sys4 = four_state_system(p)
            functionals = np.vstack([np.eye(4), sys4.family])
            for sweep in self.SWEEPS:
                loop = self.loop(sys4, kept, functionals, sweep, tolerance)
                closed = four_state_unique_ergodicity(sys4, kept, functionals, sweep, tolerance)
                defects, band = self.closed_defects(sys4, kept, functionals, sweep)
                outcomes.add(loop.passed)
                if abs(defects.max() - tolerance) <= band:
                    assert closed == loop
                    in_band.append((p, sweep))
                    continue
                assert closed.passed == loop.passed
                assert closed.tolerance == loop.tolerance
                assert closed.witness_tail_min is None
                assert abs(closed.max_defect - loop.max_defect) <= band
                # each loop defect is within B of its closed value, so the
                # argmax is shared once the top two are more than 2B apart;
                # at odd N the flip pair ties rows 1 and 2 at 1/N
                top, second = np.sort(defects, axis=None)[[-1, -2]]
                if top - second > 2 * band:
                    assert closed.witness == loop.witness
                    witnesses_checked += 1
        assert outcomes == {True, False}
        assert witnesses_checked > 100
        # the bound is tight enough that only the roundoff verdict runs the loop
        assert in_band == [(0.375, 600)]

    @pytest.mark.parametrize(
        "p, sweep", [(0.0, 3), (0.3, 599), (0.5, 2), (0.9, 601), (0.375, 10**4)]
    )
    def test_tolerance_at_loop_defect_runs_the_loop(self, p, sweep):
        sys4 = four_state_system(p)
        verdicts = set()
        for kept in (PERIPHERAL, FIXED):
            defect = self.loop(sys4, kept, np.eye(4), sweep, 1.0).max_defect
            for direction in (-np.inf, np.inf):
                tolerance = float(np.nextafter(defect, direction))
                report = four_state_unique_ergodicity(sys4, kept, np.eye(4), sweep, tolerance)
                assert report == self.loop(sys4, kept, np.eye(4), sweep, tolerance)
                verdicts.add(report.passed)
        assert verdicts == {True, False}

    def test_roundoff_verdict_runs_the_loop(self, monkeypatch):
        # the loop reads 0.0010000000000000007 against 1e-3 while the exact
        # defect (1 - (3/8)^600)/1000 lies below it: the roundoff verdict that
        # item 11 of ROADMAP.md ("no verdict decided by roundoff") re-decides
        # exactly; until then the loop decides it
        sys4 = four_state_system(0.375)
        defects, band = self.closed_defects(sys4, FIXED, np.eye(4), 600)
        assert abs(defects.max() - 1e-3) <= band
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return unique_ergodicity_check(*args, **kwargs)

        monkeypatch.setattr(finite, "unique_ergodicity_check", counted)
        report = four_state_unique_ergodicity(sys4, FIXED, np.eye(4), 600, 1e-3)
        assert len(calls) == 1
        assert report == self.loop(sys4, FIXED, np.eye(4), 600, 1e-3)

    @pytest.mark.parametrize("tolerance", [1e-3, 0.0], ids=["outside", "inside"])
    def test_sweep_over_weight_cap(self, tolerance):
        # refused before any work, in the band or not, as the loop refuses it
        sys4 = four_state_system(0.375)
        with pytest.raises(SchemeError, match="discrete weights exceed the cap"):
            four_state_unique_ergodicity(sys4, FIXED, np.eye(4), 10**12, tolerance)


class TestTensor:
    def test_identity_tensor_is_reshuffle(self):
        sys4 = four_state_system(0.5)
        system = sys4.as_markov(sys4.proj_peripheral, sys4.family)
        left = MarkovSystem(np.eye(1), np.eye(1), np.ones((1, 1)))
        tens = tensor_product(left, system)
        assert np.allclose(tens.transition, system.transition)
        assert np.allclose(tens.idempotent, system.idempotent)
        assert np.allclose(tens.functionals, system.functionals)

    def test_self_tensor_weak_mixing(self):
        sys4 = four_state_system(0.5)
        system = sys4.as_markov(sys4.proj_peripheral, sys4.family)
        tens = tensor_product(system, system)
        report = weak_mixing_check(tens, uniform(), 300, 1e-10)
        assert report.passed

    def test_self_tensor_ergodicity_and_base_weak_mixing(self):
        # the product system is uniquely ergodic for the tensored family, and
        # the base system indeed passes the absolute-mean check
        sys4 = four_state_system(0.3)
        system = sys4.as_markov(sys4.proj_peripheral, sys4.family)
        tens = tensor_product(system, system)
        erg = unique_ergodicity_check(tens, uniform(), 300, 1e-10)
        base = weak_mixing_check(system, uniform(), 300, 1e-10)
        assert erg.passed
        assert base.passed

    def test_weak_mixing_times_ergodic(self):
        r = 0.5
        left = MarkovSystem(
            np.array([[1.0, 0.0], [1.0 - r, r]]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
            np.array([[1.0, 0.0]]),
        )
        assert np.allclose(left.transition @ left.idempotent, left.idempotent)
        right = MarkovSystem(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((2, 2), 0.5), np.eye(2)
        )
        tens = tensor_product(left, right)
        report = unique_ergodicity_check(tens, uniform(), 10**4, 1e-6)
        assert report.passed

    def test_dimension_guard(self):
        big = MarkovSystem(np.eye(70), np.eye(70), np.ones((1, 70)))
        with pytest.raises(ValueError):
            tensor_product(big, big)

    def test_grid_guard(self):
        # 3000·3000 one-dimensional rows: a grid of 9e6 entries
        wide = MarkovSystem(np.eye(1), np.eye(1), np.ones((3000, 1)))
        assert 3000 * 3000 > TENSOR_GRID_CAP
        with pytest.raises(ValueError, match="tensor functional grid 9000000 exceeds"):
            tensor_product(wide, wide)

    def test_functional_rows_are_pairwise_krons(self):
        rng = np.random.default_rng(3)
        left = random_complex_system(rng, 5, 4)
        right = random_complex_system(rng, 3, 6)
        tens = tensor_product(left, right)
        rows = np.array(
            [np.kron(phi, psi) for phi in left.functionals for psi in right.functionals]
        )
        assert tens.functionals.tobytes() == rows.tobytes()
        assert tens.left is left and tens.right is right

    def test_product_is_not_validated_again(self):
        # each row sum errs by 8e-10, within the 1e-9 a factor may err by; the
        # product's rows err by 1.6e-9, which a MarkovSystem built from the
        # Kronecker matrix refuses, but the product is its validated factors
        side = MarkovSystem(
            np.array([[0.5, 0.5 + 8e-10], [0.25, 0.75 + 8e-10]]), np.eye(2), np.eye(2)
        )
        tens = tensor_product(side, side)
        assert tens.dimension == 4
        with pytest.raises(ValueError, match="must fix the all-ones vector"):
            as_plain(tens)


def forbid_square_allocations(monkeypatch):
    """Make ``np.kron`` and ``np.eye`` raise: nothing of size d² may be built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("built a d x d array before the work budget")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(np, "eye", forbidden)


class TestTensorWorkBudget:
    """Both mean checks count their work from the shapes, and refuse a sweep
    above ``POWER_MEAN_WORK_CAP`` before anything of size d² is built."""

    def test_ergodicity_at_the_dimension_cap(self, monkeypatch):
        # 50 steps of the 4096 x 4096 powers: 50·4096³ multiply-adds
        side = MarkovSystem(np.eye(64), np.eye(64), np.ones((1, 64)))
        tens = tensor_product(side, side)
        forbid_square_allocations(monkeypatch)
        with pytest.raises(SchemeError, match="power-mean work 3435973836800 exceeds the cap"):
            unique_ergodicity_check(tens, uniform(), 50, 1e-10)

    @pytest.mark.parametrize(
        "vectors, work",
        [
            # factored: 3·512·4² + 2·512·4² + 2·512²·16 per step
            (None, 84_295_680_000),
            # full loop: |F|·d·(d + columns) = 512²·16·(16 + 2) per step
            (np.zeros((16, 2)), 754_974_720_000),
        ],
        ids=["factored", "vectors"],
    )
    def test_weak_mixing_of_a_grid_at_the_cap(self, monkeypatch, vectors, work):
        # two 512-row 4-state families: a grid of exactly TENSOR_GRID_CAP,
        # which at 10**4 steps would run for minutes
        sys4 = four_state_system(0.5, family_points=512)
        el = sys4.as_markov(sys4.proj_peripheral, sys4.family)
        tens = tensor_product(el, el)
        assert 512 * 512 * 16 == TENSOR_GRID_CAP
        forbid_square_allocations(monkeypatch)
        with pytest.raises(SchemeError, match=f"power-mean work {work} exceeds the cap"):
            weak_mixing_check(tens, uniform(), 10**4, 1e-10, vectors=vectors)

    def test_weak_mixing_of_a_plain_system(self, monkeypatch):
        # |F|·d·(d + d) = 100·100·200 per step, over 10**4 steps
        system = MarkovSystem(np.eye(100), np.eye(100), np.ones((100, 100)))
        forbid_square_allocations(monkeypatch)
        with pytest.raises(SchemeError, match="power-mean work 20000000000 exceeds the cap"):
            weak_mixing_check(system, uniform(), 10**4, 1e-10)


def random_complex_system(rng, d, functionals):
    """``random_real_system`` with complex functionals and, half the time, a
    complex idempotent 1·π with Σπ = 1."""
    real = random_real_system(rng, d, functionals)
    e = real.idempotent
    if rng.random() < 0.5:
        pi = rng.normal(size=d) + 1j * rng.normal(size=d)
        e = np.outer(np.ones(d), pi / pi.sum())
    f = real.functionals + 1j * rng.normal(size=real.functionals.shape)
    return MarkovSystem(real.transition, e, f)


def as_plain(system):
    """The Kronecker matrices of a tensor system as a ``MarkovSystem``: the
    loop over the full matrix."""
    return MarkovSystem(system.transition, system.idempotent, system.functionals)


def benchmark_shaped_tensor(rng):
    """A 16-state system (two 4-state examples, written out, 30 of the 100
    product family rows) tensored with a 4-state example: d = 64, |F| = 300."""
    a, b, c = (four_state_system(p, family_points=10) for p in rng.choice(P_GRID, 3))
    rows = np.kron(a.family, b.family)
    left = MarkovSystem(
        np.kron(a.transition, b.transition),
        np.kron(a.proj_peripheral, b.proj_peripheral),
        rows[rng.choice(len(rows), 30, replace=False)],
    )
    return tensor_product(left, c.as_markov(c.proj_peripheral, c.family))


class TestFactoredTensorSweep:
    """``weak_mixing_check`` of a ``tensor_product`` steps the factors; the
    loop over the Kronecker matrix of the same system is its oracle."""

    @staticmethod
    def assert_matches_oracle(tens, scheme, sweep, tolerance):
        report = weak_mixing_check(tens, scheme, sweep, tolerance)
        oracle = weak_mixing_check(as_plain(tens), scheme, sweep, tolerance)
        assert (report.passed, report.witness) == (oracle.passed, oracle.witness)
        assert report.max_defect == pytest.approx(oracle.max_defect, rel=1e-12, abs=0.0)
        if oracle.passed:
            assert report.witness_tail_min is None
        else:
            assert report.witness_tail_min == pytest.approx(
                oracle.witness_tail_min, rel=1e-12, abs=0.0
            )
        return oracle

    def test_seeded_corpus(self):
        rng = np.random.default_rng(14)
        outcomes, kinds = set(), set()
        for k in range(60):
            sides = []
            for _ in range(2):
                d, rows = int(rng.integers(1, 7)), int(rng.integers(1, 6))
                is_complex = rng.random() < 0.4
                make = random_complex_system if is_complex else random_real_system
                sides.append(make(rng, d, rows))
                kinds.add((is_complex, rows == 1))
            sweep = int(rng.integers(5, 400))
            scheme = [
                uniform(), power(1.0), power(-0.5), log_family(), voronoi(1.0),
                custom(rng.random(sweep) + 0.1),
            ][k % 6]
            tens = tensor_product(*sides)
            oracle = weak_mixing_check(as_plain(tens), scheme, sweep, 1.0)
            # half the pairs pass, half fail, far from the tolerance
            tolerance = oracle.max_defect * (2.0 if k % 2 else 0.5)
            outcomes.add(self.assert_matches_oracle(tens, scheme, sweep, tolerance).passed)
        assert outcomes == {True, False}
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_benchmark_shaped_sweep_in_chunks(self):
        # a grid of 19,200 makes chunks of 6 steps, and 200 is not a multiple of 6
        rng = np.random.default_rng(64)
        tens = benchmark_shaped_tensor(rng)
        grid = tens.functionals.size
        assert (grid, TENSOR_CHUNK_ELEMENTS // grid, 200 % 6) == (19_200, 6, 2)
        assert weak_mixing_check(tens, uniform(), 200, 1e-10).max_defect == 0.0
        left, right = tens.left, tens.right
        failing = tensor_product(
            MarkovSystem(left.transition, np.zeros((16, 16)), left.functionals), right
        )
        assert not self.assert_matches_oracle(failing, power(1.0), 200, 1e-10).passed

    def test_grid_above_the_chunk_budget_steps_one_at_a_time(self):
        rng = np.random.default_rng(15)
        left = random_complex_system(rng, 16, 20)
        right = random_real_system(rng, 16, 30)
        tens = tensor_product(left, right)
        assert tens.functionals.size > TENSOR_CHUNK_ELEMENTS
        self.assert_matches_oracle(tens, uniform(), 7, 1e-3)

    def test_exact_zero_defects_stay_exact(self):
        # the split form (I − E_A)⊗I + E_A⊗(I − E_B) keeps every value of the
        # peripheral families exactly zero; the difference form does not
        sys4 = four_state_system(0.5)
        el = sys4.as_markov(sys4.proj_peripheral, sys4.family)
        assert weak_mixing_check(tensor_product(el, el), uniform(), 300, 1e-10).max_defect == 0.0
        for seed in range(3):
            tens = benchmark_shaped_tensor(np.random.default_rng(seed))
            assert weak_mixing_check(tens, uniform(), 200, 1e-10).max_defect == 0.0

    def test_given_vectors_take_the_kronecker_loop(self):
        rng = np.random.default_rng(16)
        tens = tensor_product(random_real_system(rng, 3, 2), random_real_system(rng, 2, 3))
        vectors = rng.normal(size=(6, 4))
        report = weak_mixing_check(tens, uniform(), 50, 1e-3, vectors=vectors)
        oracle = weak_mixing_check(as_plain(tens), uniform(), 50, 1e-3, vectors=vectors)
        assert report == oracle


class TestMeanCheckColumns:
    """Over the standard basis both mean checks start from I − E itself, with
    no d³ product by an identity; given columns V start from (I − E)·V."""

    def test_standard_basis_builds_no_identity_columns(self, monkeypatch):
        system = random_real_system(np.random.default_rng(7), 6, 2)
        sizes = []
        eye = np.eye

        def counted(n, *args, **kwargs):
            sizes.append(n)
            return eye(n, *args, **kwargs)

        monkeypatch.setattr(np, "eye", counted)
        weak_mixing_check(system, uniform(), 5, 1.0)
        assert sizes == [6]  # I − E
        sizes.clear()
        unique_ergodicity_check(system, uniform(), 5, 1.0)
        assert sizes == [6, 6]  # I − E, and the start of the power means

    def test_standard_basis_equals_identity_columns(self):
        # (I − E)·I is I − E entrywise, so the two reports agree bit for bit
        rng = np.random.default_rng(21)
        outcomes = set()
        for k in range(60):
            make = random_complex_system if k % 2 else random_real_system
            system = make(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
            identity = np.eye(system.dimension)
            for check in (weak_mixing_check, unique_ergodicity_check):
                report = check(system, power(1.0), 30, 1e-2)
                assert report == check(system, power(1.0), 30, 1e-2, vectors=identity)
                outcomes.add(report.passed)
        assert outcomes == {True, False}
