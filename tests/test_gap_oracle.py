"""The candidate-tuple gap scan against the exhaustive walk it replaced.

``gap_scan`` evaluates only the tuples where some state can see a nonzero
difference; ``gap_oracle.exhaustive_gap_scan`` evaluates the whole lattice.
Both must report the same violations in the same order, the same threshold,
counterexample and lattice size, and magnitudes within 1e-12.
"""

import random

import pytest

from ergolab import AlgebraElement, Alphabet, L2Vector, State, gap_scan
from conftest import mixing_corpus, random_element, random_vector_state, random_word
from gap_oracle import exhaustive_gap_scan

WINDOWS = {1: 30, 2: 12, 3: 8, 4: 5}


@pytest.fixture
def ab():
    return Alphabet({"s": None, "t": None, "c": 3})


def lam(word, coeff=1.0):
    return AlgebraElement.unitary(word, coeff)


def rand_coeff(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def rand_vector(rng, ab):
    return random_vector_state(rng, ab, support=3, idx_span=6).vector


def rand_states(rng, ab):
    states = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.25:
            states.append(State.trace())
        elif kind < 0.65:
            states.append(State.vector_state(rand_vector(rng, ab)))
        else:
            weights = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(2, 3))]
            total = sum(weights)
            states.append(
                State.mixture([(w / total, rand_vector(rng, ab)) for w in weights])
            )
    return states


def rand_case(rng, ab, k):
    """Operators of one of three shapes, drawn so every shape is common."""
    shape = rng.choice(["free", "pair", "live"])
    if shape == "live":
        # every operator keeps a finite-orbit term, so the E-side is live
        ops = [
            lam(ab.letter("c", rng.randint(0, 2)), rand_coeff(rng))
            + random_element(rng, ab, rng.randint(1, 2), 3)
            for _ in range(k)
        ]
    else:
        ops = [random_element(rng, ab, rng.choice([1, 1, 2, 3]), 3) for _ in range(k)]
    if shape == "pair" or (shape == "live" and k > 1 and rng.random() < 0.5):
        # a word against its shifted inverse, so cancellations are reachable
        base = random_word(rng, ab, 3)
        for j in range(1, k - 1):
            if shape == "pair" and rng.random() < 0.6:
                ops[j] = lam(ab.word(f"c[{rng.randint(0, 2)}]"))
        ops[0] = ops[0] + lam(base) if shape == "live" else lam(base)
        ops[-1] = lam(base.inverse().shifted(rng.randint(1, 4)), rand_coeff(rng))
        if shape == "live":
            ops[-1] = ops[-1] + lam(ab.word(f"c[{rng.randint(0, 2)}]"))
    perm = list(range(k))
    rng.shuffle(perm)
    states = rand_states(rng, ab)
    if rng.random() < 0.5:
        # plant a state that sees the last terms' product at one lattice tuple
        times = [rng.randint(1, WINDOWS[k])]
        for _ in range(k - 1):
            times.append(times[-1] + rng.randint(1, WINDOWS[k]))
        word = ab.identity()
        for j, op in enumerate(ops):
            *_, (last, _) = op.items()
            word = word * last.shifted(times[perm[j]])
        if word:
            x = L2Vector.basis(ab.identity()) + rand_coeff(rng) * L2Vector.basis(word)
            states.append(State.vector_state(x.normalized()))
    return states, ops, perm, shape


def assert_same_scan(new, old):
    assert [(v.times, v.state_index) for v in new.violations] == [
        (v.times, v.state_index) for v in old.violations
    ]
    for a, b in zip(new.violations, old.violations):
        assert abs(a.magnitude - b.magnitude) <= 1e-12
    assert new.threshold == old.threshold
    assert new.counterexample == old.counterexample
    assert new.scanned == old.scanned == old.evaluated
    assert (new.scan_window, new.gap_max) == (old.scan_window, old.gap_max)
    assert 0 <= new.evaluated <= new.scanned


def test_random_corpus_matches_exhaustive_walk(ab):
    rng = random.Random(31)
    shapes = {"free": 0, "pair": 0, "live": 0}
    with_violations = {"free": 0, "pair": 0, "live": 0}
    pruned = 0
    for k in (1, 2, 3, 4):
        for _ in range(40 if k < 4 else 25):
            states, ops, perm, shape = rand_case(rng, ab, k)
            window = WINDOWS[k]
            new = gap_scan(states, ops, perm, window, window)
            old = exhaustive_gap_scan(states, ops, perm, window, window)
            assert_same_scan(new, old)
            shapes[shape] += 1
            with_violations[shape] += bool(old.violations)
            pruned += new.evaluated < new.scanned
    # the corpus exercises every shape, real violations and real pruning
    assert min(shapes.values()) >= 30
    assert min(with_violations.values()) >= 5
    assert pruned >= 120


def test_engineered_cases_match_exhaustive_walk(ab):
    x = L2Vector.basis(ab.word("s[3]")) + L2Vector.basis(ab.word("t[5] c[1]"))
    phi = State.vector_state(x.normalized())
    mix = State.mixture([(0.5, x.normalized()), (0.5, L2Vector.basis(ab.identity()))])
    s0 = lam(ab.word("s[0]"))
    cases = [
        # a shifted-inverse pair seen by the trace only when the times match
        ([State.trace()], [s0, lam(ab.word("s[-2]^-1"))], None),
        # an anchored hit on a vector state and on a mixture
        ([phi, mix], [s0, s0.adjoint()], (1, 0)),
        # a live E-side: finite-orbit terms on both sides
        (
            [phi, State.trace()],
            [lam(ab.word("c[0]")) + s0, lam(ab.word("c[2]")) + s0.adjoint()],
            None,
        ),
        # three factors where only the outer two can cancel
        ([State.trace(), phi], [s0, lam(ab.word("c[1]")), lam(ab.word("s[1]^-1"))], (2, 0, 1)),
        # a pair that cancels only at the largest gap, gap_max = 12
        ([State.trace()], [s0, lam(ab.word("s[-12]^-1"))], None),
        # outer factors 9 apart: the middle one sits from 1 to gap_max = 8
        # before the last
        ([State.trace()], [s0, AlgebraElement.one(ab), lam(ab.word("s[-9]^-1"))], None),
    ]
    for states, ops, perm in cases:
        window = WINDOWS[len(ops)]
        assert_same_scan(
            gap_scan(states, ops, perm, window, window),
            exhaustive_gap_scan(states, ops, perm, window, window),
        )


def test_c04_corpus_evaluates_few_tuples():
    scanned = evaluated = 0
    for states, ops, perm in mixing_corpus():
        res = gap_scan(states, ops, perm, scan_window=40, gap_max=40)
        assert res.evaluated <= res.scanned
        if len(ops) == 2:
            assert_same_scan(res, exhaustive_gap_scan(states, ops, perm, 40, 40))
        scanned += res.scanned
        evaluated += res.evaluated
    # a deterministic work count, not a time
    assert evaluated < 0.05 * scanned
