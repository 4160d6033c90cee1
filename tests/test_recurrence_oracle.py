"""The split-product recurrence averages against the product-forming oracle.

``furstenberg_average`` and ``bergelson_average`` read the trace off two
halves of the product with ``State.on_product``;
``recurrence_oracle`` multiplies the whole product out.  Values must agree
within 1e-12 relative, exact zeros must stay exact, and the summaries must
agree.  A merge count pins the work of the split.
"""

import random

import pytest

import ergolab.dual
from ergolab import (
    AlgebraElement,
    Alphabet,
    AlphabetError,
    L2Vector,
    State,
    bergelson_average,
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
    order, sweep = 3, 40
    a = factor * factor.adjoint()
    ea = a.finite_orbit_part()
    setup = len(factor) ** 2 + sum(len(ea) ** (j + 1) for j in range(1, order + 1))
    bound = sweep * len(a) ** 2 + setup

    calls = [0]
    merge_runs = ergolab.dual.merge_runs

    def counted(*parts):
        calls[0] += 1
        return merge_runs(*parts)

    monkeypatch.setattr(ergolab.dual, "merge_runs", counted)
    furstenberg_average(factor, order, sweep)
    assert len(a) == 7
    assert 0 < calls[0] <= bound
    split = calls[0]
    calls[0] = 0
    recurrence_oracle.furstenberg_average(factor, order, sweep)
    assert calls[0] > 10 * split
