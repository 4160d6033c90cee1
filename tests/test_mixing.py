import collections
import itertools
import math
import random

import pytest

import ergolab.dual
import ergolab.mixing
from ergolab import (
    AlgebraElement,
    Alphabet,
    AlphabetError,
    L2Vector,
    State,
    bergelson_average,
    correlation,
    correlation_difference,
    decay_sequence,
    furstenberg_average,
    gap_scan,
    uniform,
    weighted_mean_scalar,
)
from conftest import random_vector_state, random_word
from gap_oracle import exhaustive_gap_scan


@pytest.fixture
def ab():
    return Alphabet({"s": None, "t": None, "c": 3})


def lam(word, coeff=1.0):
    return AlgebraElement.unitary(word, coeff)


def one(ab):
    return AlgebraElement.one(ab)


def split_state(ab, word_text):
    x = L2Vector.basis(ab.identity()) + L2Vector.basis(ab.word(word_text))
    return State.vector_state((1.0 / x.norm()) * x)


def scan_tuples(k, window, gap_max):
    for n1 in range(1, window + 1):
        if k == 1:
            yield (n1,)
            continue
        for gaps in itertools.product(range(1, gap_max + 1), repeat=k - 1):
            times = [n1]
            for g in gaps:
                times.append(times[-1] + g)
            yield tuple(times)


class TestDecay:
    def test_finite_orbit_element_is_silent(self, ab):
        a = lam(ab.word("c[0]"))
        assert all(v == 0.0 for v in decay_sequence(State.trace(), a, 50))

    def test_single_hit(self, ab):
        phi = split_state(ab, "s[5]")
        seq = decay_sequence(phi, lam(ab.word("s[0]")), 200)
        hits = [(n + 1, v) for n, v in enumerate(seq) if abs(v) > 1e-13]
        assert len(hits) == 1
        n, v = hits[0]
        assert n == 5 and abs(v - 0.5) < 1e-12

    def test_trace_silent_on_shift_unitary(self, ab):
        seq = decay_sequence(State.trace(), lam(ab.word("s[0]")), 100)
        assert all(v == 0.0 for v in seq)


class TestCorrelation:
    def test_order_one_reduces_to_state_value(self, ab):
        rng = random.Random(1)
        phi = random_vector_state(rng, ab)
        a = lam(random_word(rng, ab))
        for n in (1, 4, 9):
            assert abs(correlation(phi, [a], [n]) - phi(a.shifted(n))) < 1e-14

    def test_shift_pair_indicator(self, ab):
        a = lam(ab.word("s[0]"))
        mu = State.trace()
        for m in range(1, 8):
            for n in range(1, 8):
                value = correlation(mu, [a, a.adjoint()], [m, n])
                assert value == (1.0 if m == n else 0.0)

    def test_periodic_time_shift_invariance(self, ab):
        mu = State.trace()
        ops = [lam(ab.word("c[0] c[1]")), lam(ab.word("c[2]^-1"))]
        times = [2, 5]
        base = correlation(mu, ops, times)
        shifted = correlation(mu, ops, [t + 3 for t in times])
        assert abs(base - shifted) < 1e-14

    def test_linearity_in_each_slot(self, ab):
        rng = random.Random(2)
        phi = random_vector_state(rng, ab)
        for slot in (0, 1, 2):
            ops = [lam(random_word(rng, ab)) for _ in range(3)]
            u = lam(random_word(rng, ab), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            v = lam(random_word(rng, ab), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            times = sorted(rng.sample(range(1, 30), 3))
            with_sum = list(ops)
            with_sum[slot] = u + v
            with_u = list(ops)
            with_u[slot] = u
            with_v = list(ops)
            with_v[slot] = v
            total = correlation(phi, with_sum, times)
            parts = correlation(phi, with_u, times) + correlation(phi, with_v, times)
            assert abs(total - parts) < 1e-12

    def test_length_mismatch(self, ab):
        with pytest.raises(ValueError):
            correlation(State.trace(), [one(ab)], [1, 2])
        with pytest.raises(ValueError):
            correlation(State.trace(), [one(ab), one(ab)], [1, 2], [0, 0])

    def test_difference_checks_like_correlation(self, ab):
        with pytest.raises(ValueError, match="need at least one operator"):
            correlation_difference(State.trace(), [], [])
        with pytest.raises(ValueError, match="equal length"):
            correlation_difference(State.trace(), [one(ab)], [1, 2])


class TestGapScan:
    def test_finite_orbit_tuple_trivial(self, ab):
        ops = [lam(ab.word("c[0]")), lam(ab.word("c[1] c[2]"))]
        res = gap_scan(State.trace(), ops, None, 10, 10)
        assert res.threshold == 1 and not res.violations

    def test_shift_pair_threshold_one(self, ab):
        ops = [lam(ab.word("s[0]")), lam(ab.word("s[0]")).adjoint()]
        res = gap_scan(State.trace(), ops, None, 15, 15)
        assert res.threshold == 1

    def test_engineered_hit(self, ab):
        # product of shifts hits the state word s[3] s[5]^-1 only at times (3, 5)
        x = L2Vector.basis(ab.word("s[3]")) + L2Vector.basis(ab.word("s[5]"))
        phi = State.vector_state((1.0 / x.norm()) * x)
        ops = [lam(ab.word("s[0]")), lam(ab.word("s[0]")).adjoint()]
        res = gap_scan(phi, ops, None, 10, 10)
        assert any(v.times == (3, 5) for v in res.violations)
        assert res.threshold == 3  # min gap of the hit is 2

    def test_against_brute_force(self, ab):
        rng = random.Random(3)
        for _ in range(25):
            k = rng.choice([1, 2, 3])
            ops = []
            for _ in range(k):
                el = lam(random_word(rng, ab, 4))
                if rng.random() < 0.35:
                    el = el + lam(
                        random_word(rng, ab, 4),
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    )
                ops.append(el)
            perm = list(range(k))
            rng.shuffle(perm)
            states = [random_vector_state(rng, ab) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.4:
                states.append(State.trace())
            res = gap_scan(states, ops, perm, 5, 5)
            found = {(v.times, v.state_index) for v in res.violations}
            expected = set()
            for ts in scan_tuples(k, 5, 5):
                for si, st in enumerate(states):
                    if abs(correlation_difference(st, ops, ts, perm)) > 1e-12:
                        expected.add((ts, si))
            assert found == expected

    def test_permutation_insensitive_threshold(self, ab):
        rng = random.Random(4)
        for _ in range(10):
            k = 3
            ops = [lam(random_word(rng, ab, 3)) for _ in range(k)]
            states = [random_vector_state(rng, ab) for _ in range(2)]
            perms = [(0, 1, 2), (2, 0, 1)]
            thresholds = {
                gap_scan(states, ops, p, 8, 8).threshold for p in perms
            }
            assert len(thresholds) == 1

    def test_window_exhaustion_reports_counterexample(self, ab):
        # a violation at the largest scanned gap leaves no admissible threshold
        x = L2Vector.basis(ab.word("s[4]")) + L2Vector.basis(ab.identity())
        phi = State.vector_state((1.0 / x.norm()) * x)
        res = gap_scan(phi, [lam(ab.word("s[0]"))], None, 4, 4)
        assert res.threshold is None
        assert res.counterexample == (4,)

    def test_negative_zero_tol_refused(self, ab):
        # s[n - 1] - t[n - 1] sends e to s[0] - t[0] at n = 1, and the state's
        # amplitudes on s[0] and t[0] cancel that to exactly 0
        x = L2Vector.basis(ab.identity()) + L2Vector.basis(ab.word("s[0]"))
        phi = State.vector_state((x + L2Vector.basis(ab.word("t[0]"))).normalized())
        op = lam(ab.word("s[-1]")) - lam(ab.word("t[-1]"))
        res = gap_scan(phi, [op], None, 5, 5)
        assert (res.threshold, res.violations) == (1, ())
        # |0| > -1 would record the exact zero at n = 1 as a violation
        for bad in (-1, math.nan):
            with pytest.raises(ValueError, match="zero_tol must be nonnegative"):
                gap_scan(phi, [op], None, 5, 5, zero_tol=bad)
        assert gap_scan(phi, [op], None, 5, 5, zero_tol=0.0).violations == ()

    def test_order_budget(self, ab):
        with pytest.raises(ValueError):
            gap_scan(State.trace(), [one(ab)] * 6, None, 2, 2)

    def test_lattice_over_cap_refused_before_any_shift(self, ab, monkeypatch):
        # a live E-side: both operators keep a finite-orbit term
        ops = [
            lam(ab.word("c[0]")) + lam(ab.word("s[0]")),
            lam(ab.word("c[1]")) + lam(ab.word("s[0]^-1")),
        ]
        calls = []
        monkeypatch.setattr(AlgebraElement, "shifted", lambda self, n=1: calls.append(n))
        with pytest.raises(ValueError, match="gap lattice 10000000000 exceeds the cap 100000000"):
            gap_scan(State.trace(), ops, None, 10, 10**9)
        assert not calls

    @staticmethod
    def counted_scan(monkeypatch, states, ops, perm, window):
        """The scan and its (element id, time) shift calls, and the oracle's result."""
        expected = exhaustive_gap_scan(states, ops, perm, window, window)
        calls = []
        original = AlgebraElement.shifted

        def counting(self, n=1):
            calls.append((id(self), n))
            return original(self, n)

        with monkeypatch.context() as patch:
            patch.setattr(AlgebraElement, "shifted", counting)
            res = gap_scan(states, ops, perm, window, window)
        assert (res.threshold, res.counterexample, res.scanned) == (
            expected.threshold,
            expected.counterexample,
            expected.scanned,
        )
        assert [(v.times, v.state_index) for v in res.violations] == [
            (v.times, v.state_index) for v in expected.violations
        ]
        return res, calls

    def test_shifts_built_on_demand(self, ab, monkeypatch):
        # s[0] meets s[-3]^-1 only at n2 = n1 + 3: the walk visits operator 0
        # at 1..8 and operator 1 at 4..11, each once, and every visit violates
        ops = [lam(ab.word("s[0]")), lam(ab.word("s[-3]^-1"))]
        res, calls = self.counted_scan(monkeypatch, State.trace(), ops, None, 8)
        assert res.evaluated == len(res.violations) == 8
        ids = {id(op): j for j, op in enumerate(ops)}
        visited = {(j, v.times[j]) for v in res.violations for j in range(2)}
        assert sorted((ids[i], n) for i, n in calls) == sorted(visited)

    def test_shifts_built_once_with_live_e_side(self, ab, monkeypatch):
        phi = split_state(ab, "s[4] c[2]")
        ops = [
            lam(ab.word("c[0]")) + lam(ab.word("s[0]")),
            lam(ab.word("c[1]")) + one(ab),
            lam(ab.word("c[2]")) + lam(ab.word("s[-2]^-1")),
        ]
        res, calls = self.counted_scan(monkeypatch, [State.trace(), phi], ops, None, 6)
        assert res.violations
        # the operators and their finite-orbit parts, each shifted at most once
        # per time, and fewer times than the 3 * 2 * (6 + 2 * 6) eager copies
        assert len(calls) == len(set(calls))
        assert len({i for i, _ in calls}) <= 6
        assert len(calls) < 3 * 2 * 18

    def test_empty_first_slot_builds_no_shift(self, ab, monkeypatch):
        # s[0] has no anchor in the trace's support and no partner in c[0]
        ops = [lam(ab.word("s[0]")), lam(ab.word("c[0]"))]
        res, calls = self.counted_scan(monkeypatch, State.trace(), ops, None, 8)
        assert (res.threshold, res.violations, res.evaluated) == (1, (), 0)
        assert calls == []


class TestFurstenberg:
    def test_unit_factor(self, ab):
        res = furstenberg_average(one(ab), 3, 25)
        assert res.average == 1.0 and res.comparison == 1.0

    def test_shift_factor_exact_eight(self, ab):
        c = one(ab) + lam(ab.word("s[0]"))
        res = furstenberg_average(c, 2, 100)
        assert all(v == 8.0 for v in res.values)
        assert res.average == 8.0
        assert res.comparison == 8.0

    def test_cycle_factor_periodic_mean(self, ab):
        c = one(ab) + lam(ab.word("c[0]"))
        res = furstenberg_average(c, 1, 600)
        # brute force over one period: values 6, 4, 4 repeating
        period = [res.values[n] for n in range(3)]
        assert [v.real for v in period] == [4.0, 4.0, 6.0]
        assert abs(res.average - 14.0 / 3.0) < 1e-12
        assert res.positive
        assert res.average >= res.comparison / 3.0

    def test_signed_variant(self, ab):
        c = one(ab) + lam(ab.word("s[0]"))
        res = furstenberg_average(c, 2, 40, absolute=False)
        assert abs(res.average - 8.0) < 1e-12

    def test_validation(self, ab):
        with pytest.raises(ValueError):
            furstenberg_average(one(ab), 0, 10)
        with pytest.raises(ValueError):
            furstenberg_average(one(ab), 1, 0)

    def test_random_positive_corpus(self, ab):
        # any nonzero factor gives a positive element with positive trace, and
        # the averaged recurrence stays strictly positive over full periods
        rng = random.Random(6)
        for _ in range(8):
            c = lam(random_word(rng, ab, 3)) + lam(
                random_word(rng, ab, 3), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            )
            if not c:
                continue
            a = c * c.adjoint()
            assert a.trace.real > 0.0
            periods = [
                (w.orbit().period or 1)
                for w, _ in a.finite_orbit_part().items()
            ]
            lcm = math.lcm(*periods) if periods else 1
            res = furstenberg_average(c, 2, 600 * lcm)
            assert res.average > 0.0


class TestBergelson:
    def test_all_units(self, ab):
        res = bergelson_average(one(ab), one(ab), one(ab), one(ab), 0, 0, 5)
        assert res.average == 1.0 and res.projected_average == 1.0

    def test_finite_orbit_exact_equality(self, ab):
        ops = [
            one(ab) + lam(ab.word("c[0]")),
            lam(ab.word("c[1] c[0]^-1")),
            one(ab),
            lam(ab.word("c[2]"), 0.5),
        ]
        for op in ops:
            assert op.finite_orbit_part().is_close(op)
        res = bergelson_average(*ops, 2, -1, 6)
        assert res.average == res.projected_average

    def test_single_shift_slot_vanishes(self, ab):
        res = bergelson_average(one(ab), lam(ab.word("s[0]")), one(ab), one(ab), 0, 0, 8)
        assert res.average == 0.0 and res.projected_average == 0.0

    def test_square_offsets(self, ab):
        res = bergelson_average(one(ab), one(ab), one(ab), one(ab), 5, -3, 4)
        assert {(m, n) for m, n, _, _ in res.values} == {
            (m, n) for m in range(6, 10) for n in range(-2, 2)
        }

    @pytest.mark.parametrize("count", [1, 2, 5, 9])
    def test_shifts_and_projected_values_built_once(self, count, monkeypatch):
        # cycles of length 3 and 2 in the finite-orbit parts give L = 6
        ab = Alphabet({"s": None, "c": 3, "d": 2})
        a0 = one(ab) + lam(ab.word("d[1]^-1 c[2]^-1"))
        a1 = lam(ab.word("c[0]")) + lam(ab.word("s[0]"))
        a2 = lam(ab.word("d[0]")) + lam(ab.word("s[1]^-1"))
        a3 = one(ab) + lam(ab.word("s[-3]"))
        rows, columns = range(-3, -3 + count), range(4, 4 + count)
        # the walked side of each pairing: the smaller table, the lead on a tie
        # (the lead in every row here, the parts' q_r at every residue)
        parts = [x.finite_orbit_part() for x in (a0, a1, a2, a3)]
        walked = collections.Counter()
        for ops, ms in (((a0, a1, a2, a3), rows), (parts, {m % 6 for m in rows})):
            for m in ms:
                lead, q = ops[0] * ops[1].shifted(m), ops[2] * ops[3].shifted(m)
                walked.update((lead if len(lead) <= len(q) else q)._terms)
        assert len(walked) > 0
        shifted = AlgebraElement.shifted
        shift_traces = ergolab.mixing._shift_traces
        invert_runs = ergolab.dual.invert_runs
        calls = []
        pairings = []
        inverted = collections.Counter()

        def counting_shift(self, n=1):
            calls.append((id(self), n))
            return shifted(self, n)

        def counting_pairing(left, right, shifts, lengths):
            pairings.append(list(shifts))
            return shift_traces(left, right, shifts, lengths)

        def counting_inverse(runs):
            inverted[runs] += 1
            return invert_runs(runs)

        with monkeypatch.context() as patch:
            patch.setattr(AlgebraElement, "shifted", counting_shift)
            patch.setattr(ergolab.mixing, "_shift_traces", counting_pairing)
            patch.setattr(ergolab.dual, "invert_runs", counting_inverse)
            bergelson_average(a0, a1, a2, a3, -4, 3, count)
        # a1 and a3 once per row, a0 and a2 never
        assert sorted(n for i, n in calls if i == id(a1)) == list(rows)
        assert sorted(n for i, n in calls if i == id(a3)) == list(rows)
        assert not [n for i, n in calls if i in (id(a0), id(a2))]
        # one pairing per row over the columns, and one projected pairing per
        # residue of m mod 6 over the residues n mod 6 the columns reach
        reached = list(dict.fromkeys(n % 6 for n in columns))
        assert len(reached) == min(count, 6)
        new_residue = [m % 6 not in {k % 6 for k in rows[:i]} for i, m in enumerate(rows)]
        assert pairings == [
            shifts for new in new_residue for shifts in [list(columns)] + [reached] * new
        ]
        assert sum(new_residue) == min(count, 6)
        # each walked key inverted once per pairing, the other side never
        assert inverted == walked

    @pytest.mark.parametrize("fillers, want", [(5, 0.6000000000000001), (0, 0.6)])
    def test_cell_walks_the_smaller_pruned_side_in_term_order(self, fillers, want):
        """One cell, m = n = 1, with three trace contributions 0.1, 0.2, 0.3:
        summed in the order of lead_1 = a0 shift(a1) they give (0.1 + 0.2) + 0.3,
        in the order of q_1 = a2 shift(a3) (0.3 + 0.2) + 0.1, two different doubles.

        lead_1 has 8 terms once the pair on t[1] cancels to exactly 0, and 9
        unpruned; q_1 has 3 + fillers.  With 5 fillers the sides tie and
        lead_1 is walked, so an unpruned lead, or a tie that walks the right
        side, reads 0.6; with none q_1 is walked."""
        ab = Alphabet({"s": None, "t": None})
        a0 = one(ab) + lam(ab.word("t[0]"))
        a1 = (
            lam(ab.word("s[0]"), 0.1) + lam(ab.word("s[1]"), 0.2) + lam(ab.word("s[2]"), 0.3)
            + lam(ab.word("t[-1]^-1 t[0]")) - lam(ab.word("t[0]"))
        )
        a3 = lam(ab.word("s[1]^-1")) + lam(ab.word("s[0]^-1")) + lam(ab.word("s[-1]^-1"))
        for i in range(fillers):
            a3 = a3 + lam(ab.word(f"t[{3 + i}]"))
        res = bergelson_average(a0, a1, one(ab), a3, 0, 0, 1)
        assert res.values == ((1, 1, want, 0.0),)

    def test_count_validation(self, ab):
        ops = [one(ab)] * 4
        with pytest.raises(ValueError, match="count must be at least 1"):
            bergelson_average(*ops, 0, 0, 0)
        side = math.isqrt(ergolab.mixing.SEQUENCE_LENGTH_CAP)
        # the grid is refused before any product: a cap-sized side would run long
        with pytest.raises(ValueError, match=rf"count\*\*2 {(side + 1) ** 2} exceeds the cap"):
            bergelson_average(*ops, 0, 0, side + 1)

    def test_mixed_alphabets_refused(self, ab):
        # a cycle family that a0's alphabet lacks still reaches the alphabet check
        other = Alphabet({"s": None, "t": None, "c": 3, "d": 2})
        with pytest.raises(AlphabetError):
            bergelson_average(one(ab), one(ab), one(ab), lam(other.word("d[1]")), 0, 0, 3)


class TestDiagonalAverages:
    def test_absolute_average_matches_projected_within_hits(self, ab):
        # diagonal-time averages agree up to the finitely many hit times
        rng = random.Random(5)
        sweep = 500
        phi = split_state(ab, "s[2] c[1]")
        ops = [lam(ab.word("s[0]")), lam(ab.word("c[0] s[1]^-1"))]
        scale = (1, 2)
        total = etotal = 0.0
        hits = []
        for n in range(1, sweep + 1):
            times = [scale[0] * n, scale[1] * n]
            v = abs(correlation(phi, ops, times))
            parts = [op.finite_orbit_part() for op in ops]
            ev = 0.0 if any(not p for p in parts) else abs(correlation(phi, parts, times))
            total += v
            etotal += ev
            if abs(v - ev) > 1e-12:
                hits.append(n)
        bound = len(hits) * 4.0 / sweep  # each term is bounded by the l1 norms
        assert abs(total / sweep - etotal / sweep) <= bound + 1e-12
        assert len(hits) <= 4

    def test_cesaro_means_of_shifted_unitaries_converge(self, ab):
        phi = split_state(ab, "c[1]")
        # finite orbit: the running means settle on the orbit average
        seq = [phi(lam(ab.word("c[0]")).shifted(n)) for n in range(1, 301)]
        m300 = weighted_mean_scalar(seq, uniform(), 300)
        m150 = weighted_mean_scalar(seq[:150], uniform(), 150)
        assert abs(m300 - m150) < 1e-12
        orbit_mean = sum(seq[:3]) / 3.0
        assert abs(m300 - orbit_mean) < 1e-12
        # infinite orbit: the running means vanish
        seq = [phi(lam(ab.word("s[0]")).shifted(n)) for n in range(1, 301)]
        assert abs(weighted_mean_scalar(seq, uniform(), 300)) < 1e-2
        assert sum(1 for v in seq if abs(v) > 1e-13) <= 1
