"""The recurrence sequences against their oracles.

``furstenberg_average`` and ``bergelson_average`` read the trace off two
halves of the product, with ``State.on_product`` and a row's pairing;
``recurrence_oracle`` multiplies the whole product out.  Values must agree
within 1e-12 relative, exact zeros must stay exact, and the summaries must
agree.  A merge count pins the work of the split.

``furstenberg_average`` and ``decay_sequence`` stop evaluating at their
separation horizon; past it they must equal the oracles that evaluate every
n, bit for bit, on sweeps well past the horizon.
"""

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
    decay_sequence,
    furstenberg_average,
)
from conftest import random_element, random_vector_state, random_word
import recurrence_oracle

REL = 1e-12


@pytest.fixture
def ab():
    return Alphabet({"s": None, "t": None, "c": 3})


def lam(word, coeff=1.0):
    return AlgebraElement.unitary(word, coeff)


def rand_coeff(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def assert_close(value, expected):
    if expected == 0:
        assert value == 0, (value, expected)
    else:
        assert abs(value - expected) <= REL * abs(expected), (value, expected)


def furstenberg_cases(ab):
    rng = random.Random(20261018)
    cases = []
    for order in (1, 2, 3, 4):
        for _ in range(8 if order < 4 else 4):
            terms = rng.randint(1, 3 if order < 4 else 2)
            factor = random_element(rng, ab, terms, 3)
            cases.append((factor, order, rng.randint(8, 24), rng.random() < 0.7))
    return cases


def test_furstenberg_matches_oracle(ab):
    nonzero = 0
    for factor, order, sweep, absolute in furstenberg_cases(ab):
        got = furstenberg_average(factor, order, sweep, absolute=absolute)
        want = recurrence_oracle.furstenberg_average(factor, order, sweep, absolute=absolute)
        assert len(got.values) == len(want.values) == sweep
        for v, w in zip(got.values, want.values):
            assert_close(v, w)
            nonzero += w != 0
        assert_close(got.average, want.average)
        assert got.comparison == want.comparison
        assert got.positive == want.positive
    assert nonzero > 0


def test_furstenberg_exact_zero_stays_zero(ab):
    # a = f f* keeps a positive identity coefficient, so only a zero factor
    # makes every Furstenberg value vanish; the split must report exact zeros
    zero = lam(ab.word("s[0]")) - lam(ab.word("s[0]"))
    for order in (1, 2, 3, 4):
        got = furstenberg_average(zero, order, 5)
        want = recurrence_oracle.furstenberg_average(zero, order, 5)
        assert got.values == want.values
        assert all(v == 0 and isinstance(v, complex) for v in got.values)


def bergelson_cases(ab):
    rng = random.Random(20261019)
    cases = []
    for _ in range(24):
        m_base, n_base, count = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(3, 6)
        ops = []
        for _ in range(4):
            op = random_element(rng, ab, rng.randint(0, 2), 3)
            if rng.random() < 0.5:
                op = op + AlgebraElement.one(ab)
            ops.append(op)
        # a word in a0 whose inverse in a3 meets it when m + n = gap, inside the grid
        word = random_word(rng, ab, 3)
        gap = m_base + n_base + rng.randint(2, 2 * count)
        ops[0] = ops[0] + lam(word, rand_coeff(rng))
        ops[3] = ops[3] + lam(word.inverse().shifted(-gap), rand_coeff(rng))
        cases.append((ops, m_base, n_base, count))
    return cases


def test_bergelson_matches_oracle(ab):
    zeros = nonzero = 0
    for ops, m_base, n_base, count in bergelson_cases(ab):
        got = bergelson_average(*ops, m_base, n_base, count)
        want = recurrence_oracle.bergelson_average(*ops, m_base, n_base, count)
        assert len(got.values) == len(want.values) == count * count
        for (m, n, v, ev), (wm, wn, w, wev) in zip(got.values, want.values):
            assert (m, n) == (wm, wn)
            assert_close(v, w)
            assert_close(ev, wev)
            zeros += (w == 0) + (wev == 0)
            nonzero += (w != 0) + (wev != 0)
        assert_close(got.average, want.average)
        assert_close(got.projected_average, want.projected_average)
        assert abs(got.difference - want.difference) <= REL * max(
            abs(want.average), abs(want.projected_average)
        )
    assert zeros > 0 and nonzero > 0


def test_on_product_is_the_state_on_the_product(ab):
    rng = random.Random(20261020)
    vector = random_vector_state(rng, ab, support=3, idx_span=3)
    mixture = State.mixture(
        [
            (0.3, random_vector_state(rng, ab, support=2).vector),
            (0.7, random_vector_state(rng, ab, support=3).vector),
        ]
    )
    for _ in range(60):
        left = random_element(rng, ab, rng.randint(1, 4), 3)
        right = random_element(rng, ab, rng.randint(1, 4), 3)
        if rng.random() < 0.5:
            right = right + left.adjoint()
        assert_close(State.trace().on_product(left, right), (left * right).trace)
        for state in (vector, mixture):
            assert state.on_product(left, right) == state(left * right)


def test_on_product_cancels_exactly_to_zero(ab):
    s0, t0 = lam(ab.word("s[0]")), lam(ab.word("t[0]"))
    left = s0 + t0
    right = lam(ab.word("s[0]^-1")) - lam(ab.word("t[0]^-1"))
    assert (left * right).trace == 0
    value = State.trace().on_product(left, right)
    assert value == 0 and isinstance(value, complex)
    vector = State.vector_state(L2Vector.basis(ab.identity()))
    assert vector.on_product(left, right) == vector(left * right) == 0
    # a total within PRUNE_TOL is dropped, as the product's identity term is
    tiny_left, tiny_right = lam(ab.word("s[0]"), 1e-7), lam(ab.word("s[0]^-1"), 1e-8)
    assert (tiny_left * tiny_right).trace == 0
    assert State.trace().on_product(tiny_left, tiny_right) == 0


def test_on_product_rejects_mixed_alphabets(ab):
    other = Alphabet({"s": None})
    with pytest.raises(AlphabetError):
        State.trace().on_product(lam(ab.word("s[0]")), lam(other.word("s[0]")))


def test_order3_merge_count_is_one_half_product_per_n(ab, monkeypatch):
    factor = lam(ab.word("s[0]")) + lam(ab.word("s[1]")) + lam(ab.word("c[0]"))
    order = 3
    a = factor * factor.adjoint()
    ea = a.finite_orbit_part()
    setup = len(factor) ** 2 + sum(len(ea) ** (j + 1) for j in range(1, order + 1))
    # s[0] and s[1] span R = 1 and the cycle c has L = 3: only n <= R + L
    # is multiplied out, one half product of len(a)**2 term pairs each; only
    # the pairs that meet on one symbol call merge_runs, so this bounds them
    assert separation(a) == (1, 3)

    calls = [0]
    merge_runs = ergolab.dual.merge_runs

    def counted(*parts):
        calls[0] += 1
        return merge_runs(*parts)

    monkeypatch.setattr(ergolab.dual, "merge_runs", counted)
    assert len(a) == 7
    counts = []
    for sweep in (40, 400):
        calls[0] = 0
        furstenberg_average(factor, order, sweep)
        assert 0 < calls[0] <= min(sweep, 1 + 3) * len(a) ** 2 + setup
        counts.append(calls[0])
    # past the horizon values are copied: a longer sweep adds no merge
    assert counts[0] == counts[1]
    calls[0] = 0
    recurrence_oracle.furstenberg_average(factor, order, 40)
    assert calls[0] > 10 * counts[0]


# -- separation horizons ------------------------------------------------------------


@pytest.fixture
def ab5():
    return Alphabet({"s": None, "t": None, "c": 3, "d": 2, "e": 5})


def shift_indices(words):
    """Family -> indices of its shift-family letters over the given words."""
    out = {}
    for word in words:
        for fam, idx, _ in word.runs:
            if word.alphabet.lengths[fam] is None:
                out.setdefault(fam, []).append(idx)
    return out


def separation(a):
    """(R, L): the largest index spread of one shift family over the words of a,
    and the lcm of the cycle lengths occurring in them."""
    words = [w for w, _ in a.items()]
    spread = max((max(ix) - min(ix) for ix in shift_indices(words).values()), default=0)
    lengths = a.alphabet.lengths
    cycles = {lengths[fam] for w in words for fam, _, _ in w.runs if lengths[fam]}
    return spread, math.lcm(*cycles)


def decay_horizon(state, element):
    """H: the largest support max minus deficiency min over shared shift families."""
    if state.kind == "vector":
        vectors = [state.vector]
    elif state.kind == "mixture":
        vectors = [x for _, x in state.components]
    else:
        vectors = []
    support = shift_indices([w for x in vectors for w, _ in x.items()])
    deficiency = element - element.finite_orbit_part()
    spans = shift_indices([w for w, _ in deficiency.items()])
    return max((max(support[f]) - min(ix) for f, ix in spans.items() if f in support), default=0)


def assert_identical(got, want):
    assert len(got) == len(want)
    for v, w in zip(got, want):
        assert v == w and repr(v) == repr(w), (v, w)


def test_furstenberg_equals_unbounded_split_past_horizon(ab5):
    rng = random.Random(20261019)
    periods = set()
    past = 0
    for order in (1, 2, 3, 4):
        for _ in range(14 if order < 3 else 8):
            factor = random_element(rng, ab5, rng.randint(1, 3 if order < 4 else 2), 3)
            spread, period = separation(factor * factor.adjoint())
            periods.add(period)
            sweep = spread + 4 * period + rng.randint(0, 4)
            for absolute in (True, False):
                got = furstenberg_average(factor, order, sweep, absolute=absolute)
                want = recurrence_oracle.split_furstenberg_average(
                    factor, order, sweep, absolute=absolute
                )
                assert_identical(got.values, want.values)
                assert_identical([got.average], [want.average])
                assert got.comparison == want.comparison
            past += any(v != 0 for v in want.values[spread + period :])
    # cycles of length 2, 3 and 5 all occur, and values past the horizon live
    assert any(p % 2 == 0 for p in periods) and any(p % 3 == 0 for p in periods)
    assert any(p % 5 == 0 for p in periods)
    assert past > 0


def test_decay_equals_unbounded_sequence_past_horizon(ab5):
    rng = random.Random(20261021)
    hits_at_horizon = 0
    for case in range(120):
        element = random_element(rng, ab5, rng.randint(1, 4), 4)
        kind = case % 3
        if kind == 0:
            state = random_vector_state(rng, ab5, support=rng.randint(1, 4), idx_span=6)
        elif kind == 1:
            state = State.mixture(
                [
                    (0.4, random_vector_state(rng, ab5, support=2, idx_span=6).vector),
                    (0.6, random_vector_state(rng, ab5, support=3, idx_span=6).vector),
                ]
            )
        else:
            state = State.trace()
        horizon = max(decay_horizon(state, element), 0)
        n_max = horizon + 3 + rng.randint(0, 5)
        got = decay_sequence(state, element, n_max)
        want = recurrence_oracle.decay_sequence(state, element, n_max)
        assert_identical(got, want)
        assert all(v == 0 for v in want[horizon:])
        hits_at_horizon += horizon > 0 and want[horizon - 1] != 0
    assert hits_at_horizon > 0


def test_furstenberg_value_changes_at_the_horizon(ab5):
    # a s[0] from one factor cancels the s[4]^-1 of the next exactly at n = R,
    # a term that no later n repeats
    factor = AlgebraElement.one(ab5) + lam(ab5.word("s[0]")) + lam(ab5.word("s[4]"))
    factor = factor + lam(ab5.word("c[0]"))
    spread, period = separation(factor * factor.adjoint())
    assert (spread, period) == (4, 3)
    for order in (1, 2):
        sweep = spread + 3 * period
        want = recurrence_oracle.split_furstenberg_average(factor, order, sweep).values
        assert want[spread - 1] != want[spread + period - 1]
        assert_identical(furstenberg_average(factor, order, sweep).values, want)


def test_decay_value_lives_at_the_horizon(ab5):
    # the vector (delta_e + delta_s[6]) / sqrt 2 sees s[0] shifted by exactly 6
    x = L2Vector.from_terms(ab5, [(ab5.identity(), 1.0), (ab5.word("s[6]"), 1.0)]).normalized()
    element = lam(ab5.word("s[0]")) + lam(ab5.word("c[1]"))
    for state in (State.vector_state(x), State.mixture([(0.5, x), (0.5, x)])):
        assert decay_horizon(state, element) == 6
        got = decay_sequence(state, element, 9)
        assert_identical(got, recurrence_oracle.decay_sequence(state, element, 9))
        assert got[5] != 0 and all(v == 0 for i, v in enumerate(got) if i != 5)


def test_decay_validation(ab):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        decay_sequence(State.trace(), lam(ab.word("s[0]")), 0)


def test_sequence_length_cap(ab):
    factor = lam(ab.word("s[0]"))
    cap = ergolab.mixing.SEQUENCE_LENGTH_CAP
    with pytest.raises(ValueError, match="exceeds the cap"):
        furstenberg_average(factor, 1, cap + 1)
    with pytest.raises(ValueError, match="exceeds the cap"):
        decay_sequence(State.trace(), factor, cap + 1)
    # a sweep at the cap is filled past its horizon without a product
    assert len(furstenberg_average(factor, 1, cap).values) == cap


# -- Bergelson residues -------------------------------------------------------------


@pytest.fixture
def ab23():
    return Alphabet({"s": None, "t": None, "c": 3, "d": 2})


def projected_period(ops):
    """L of the finite-orbit parts: the lcm of the cycle lengths in their words."""
    return math.lcm(*(separation(op.finite_orbit_part())[1] for op in ops))


def bergelson_residue_cases(ab):
    rng = random.Random(20261022)
    cycles = [(), ("d",), ("c",), ("c", "d")]
    cases = []
    for case in range(120):
        chosen = cycles[case % 4]
        ops = []
        for _ in range(4):
            op = AlgebraElement.zero(ab)
            for _ in range(rng.randint(0, 2)):
                word = random_word(rng, ab, 3, families=["s", "t", *chosen])
                op = op + lam(word, rand_coeff(rng))
            for _ in range(rng.randint(1, 2) if chosen else 0):
                op = op + lam(random_word(rng, ab, 3, families=chosen), rand_coeff(rng))
            if rng.random() < 0.6:
                op = op + AlgebraElement.one(ab)
            ops.append(op)
        m_base, n_base, count = rng.randint(-9, 3), rng.randint(-9, 3), rng.randint(1, 9)
        # a word in a0 whose inverse in a3 meets it when m + n = gap, inside the grid
        word = random_word(rng, ab, 3, families=["s", "t", *chosen])
        gap = m_base + n_base + rng.randint(2, 2 * count)
        ops[0] = ops[0] + lam(word, rand_coeff(rng))
        ops[3] = ops[3] + lam(word.inverse().shifted(-gap), rand_coeff(rng))
        cases.append((ops, m_base, n_base, count))
    return cases


def test_bergelson_equals_unmemoized_split(ab, ab23):
    periods = set()
    short = varying = 0
    for ops, m_base, n_base, count in bergelson_cases(ab) + bergelson_residue_cases(ab23):
        got = bergelson_average(*ops, m_base, n_base, count)
        want = recurrence_oracle.split_bergelson_average(*ops, m_base, n_base, count)
        assert got == want and repr(got) == repr(want)
        period = projected_period(ops)
        periods.add(period)
        short += count < period
        varying += len({ev for _, _, _, ev in want.values}) > 1
    assert periods == {1, 2, 3, 6}
    assert short > 0 and varying > 0


def planted_residue_ops(ab):
    """Projected values 1 at (m, n) = (0, 0) mod (3, 2), 2 at (1, 1) mod (3, 2),
    0 elsewhere: they depend on m and n, and not on m + n alone."""
    a0 = lam(ab.word("d[0]^-1 c[0]^-1")) + lam(ab.word("d[1]^-1 c[1]^-1"), 2.0)
    a1 = lam(ab.word("c[0]")) + lam(ab.word("s[0]"))
    a2 = lam(ab.word("d[0]")) + lam(ab.word("t[1]"))
    a3 = AlgebraElement.one(ab) + lam(ab.word("s[-2]^-1"))
    return a0, a1, a2, a3


def test_bergelson_planted_residues(ab23):
    ops = planted_residue_ops(ab23)
    assert projected_period(ops) == 6
    for m_base, n_base, count in ((0, 0, 9), (-7, 4, 6), (2, -5, 7)):
        got = bergelson_average(*ops, m_base, n_base, count)
        want = recurrence_oracle.split_bergelson_average(*ops, m_base, n_base, count)
        assert got == want and repr(got) == repr(want)
        for m, n, _, ev in got.values:
            assert ev == {(0, 0): 1.0, (1, 1): 2.0}.get((m % 3, n % 2), 0.0)


def test_bergelson_long_cycles_pair_only_the_reached_residues(monkeypatch):
    """Cycles of length 10**9 and 999,983 give L near 10**15: the projected
    side pairs only the residues n mod L that the columns reach, never range(L),
    and the planted values still land on their residues (m, n) mod (10**9, 999,983)."""
    big, prime = 10**9, 999_983
    ops = planted_residue_ops(Alphabet({"s": None, "t": None, "c": big, "d": prime}))
    assert projected_period(ops) == big * prime
    shift_traces = ergolab.mixing._shift_traces
    pairings = []

    def counting_pairing(left, right, shifts, lengths):
        pairings.append(list(shifts))
        return shift_traces(left, right, shifts, lengths)

    monkeypatch.setattr(ergolab.mixing, "_shift_traces", counting_pairing)
    count = 8
    for m_base, n_base in ((-3, -4), (big - 4, 3 * prime - 5)):
        pairings.clear()
        got = bergelson_average(*ops, m_base, n_base, count)
        want = recurrence_oracle.split_bergelson_average(*ops, m_base, n_base, count)
        assert got == want and repr(got) == repr(want)
        planted = {(0, 0): 1.0, (1, 1): 2.0}
        assert [ev for *_, ev in got.values] == [
            planted.get((m % big, n % prime), 0.0) for m, n, _, _ in got.values
        ]
        assert {ev for *_, ev in got.values} == {0.0, 1.0, 2.0}
        # count rows over the columns, then count residues over the reached ones
        assert len(pairings) == 2 * count
        assert all(len(shifts) == count for shifts in pairings)
