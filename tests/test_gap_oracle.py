"""The candidate-tuple gap scan against the exhaustive walk it replaced.

``gap_scan`` evaluates only the tuples where some state can see a nonzero
difference; ``gap_oracle.exhaustive_gap_scan`` evaluates the whole lattice.
Both must report the same violations in the same order, the same threshold,
counterexample and lattice size, and magnitudes within 1e-12.
"""

import itertools
import random
import tracemalloc

import pytest

import ergolab.mixing
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


def assert_witness_rule(res):
    """Threshold and counterexample as the violations alone determine them."""
    if not res.violations:
        assert (res.threshold, res.counterexample) == (1, None)
        return
    worst = max(v.min_gap for v in res.violations)
    if res.threshold is None:
        first = next(v for v in res.violations if v.min_gap == worst)
        assert res.counterexample == first.times
    else:
        assert (res.threshold, res.counterexample) == (worst + 1, None)


def assert_same_scan(new, old):
    assert_witness_rule(new)
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
    y = L2Vector.basis(ab.identity()) + L2Vector.basis(ab.word("c[0]"))
    psi = State.vector_state(y.normalized())
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
        # 1 + s[0] in the last slot between multi-term neighbours, with a live
        # E-side: in one tuple its identity term takes the merge branch (where
        # s[3]^-1 and s[1] of the neighbours cancel across it) and its s[0]
        # term the concatenation branch
        (
            [phi, State.trace(), psi],
            [
                lam(ab.word("c[1]")) + lam(ab.word("s[3]^-1")),
                AlgebraElement.one(ab) + s0,
                lam(ab.word("c[2]")) + lam(ab.word("s[1]")),
            ],
            (0, 2, 1),
        ),
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


def test_counterexample_is_first_tuple_of_largest_min_gap(ab):
    # the trace sees s[n1] s[n2 - 3]^-1 = 1 at every gap n2 - n1 = 3: the
    # tuples (1, 4) .. (6, 9) violate, and (3, 6) .. (6, 9) all have min gap 3
    ops = [lam(ab.word("s[0]")), lam(ab.word("s[-3]^-1"))]
    res = gap_scan(State.trace(), ops, None, scan_window=6, gap_max=3)
    assert [v.times for v in res.violations] == [(n, n + 3) for n in range(1, 7)]
    assert [v.min_gap for v in res.violations] == [1, 2, 3, 3, 3, 3]
    # min gap 3 = gap_max leaves no certifiable threshold: the first is the witness
    assert (res.threshold, res.counterexample) == (None, (3, 6))
    assert_witness_rule(res)
    # with room for larger gaps the same worst gives the threshold 4
    wider = gap_scan(State.trace(), ops, None, scan_window=6, gap_max=5)
    assert (wider.threshold, wider.counterexample) == (4, None)
    assert_witness_rule(wider)


# -- residue memos: a finite-orbit slot's time counts mod its period ----------


def cycle_operator(rng, ab, period):
    """One or two terms, each with a letter of every cycle family of the period."""
    families = {1: (), 2: ("c",), 3: ("d",), 6: ("c", "d")}[period]
    el = AlgebraElement.zero(ab)
    for _ in range(rng.randint(1, 2)):
        word = ab.identity()
        for fam in families:
            word = word * ab.letter(fam, rng.randrange(ab.lengths[fam]), rng.choice([-1, 1]))
        el = el + lam(word, rand_coeff(rng))
    return el


def shift_word(rng, ab):
    """One or two letters of the shift families, never the identity."""
    while True:
        word = random_word(rng, ab, 2, families=("s", "t"))
        if word.runs:
            return word


def memo_case(rng, ab, k, slot, live):
    """Operators with a finite-orbit one in walk slot `slot` (at k >= 3
    sometimes one in the next slot too), and states that tell its residues
    apart: a planted hit at one lattice tuple, whose residue-equivalent
    tuples hit too and whose other tuples do not."""
    periods = {slot: rng.choice([1, 2, 3, 6] if k < 4 else [1, 2, 3])}
    if k > 2 and rng.random() < 0.4:
        periods[slot + 1 if slot + 1 < k else slot - 1] = rng.choice([1, 2, 3])
    window = max(2 * max(periods.values()), 4)
    gap = window if k < 4 else 4
    perm = list(range(k))
    rng.shuffle(perm)
    ops = []
    for j in range(k):
        if perm[j] in periods:
            ops.append(cycle_operator(rng, ab, periods[perm[j]]))
            continue
        op = lam(shift_word(rng, ab), rand_coeff(rng))
        if live:
            op = op + cycle_operator(rng, ab, rng.choice([1, 2, 3, 6]))
        ops.append(op)
    others = [j for j in range(k) if perm[j] not in periods]
    if len(others) > 1 and rng.random() < 0.5:
        # a word against its shifted inverse, so cancellations are reachable
        base = shift_word(rng, ab)
        ops[others[0]] = ops[others[0]] + lam(base)
        ops[others[-1]] = ops[others[-1]] + lam(base.inverse().shifted(rng.randint(1, 3)))
    times = [rng.randint(1, window)]
    for _ in range(k - 1):
        times.append(times[-1] + rng.randint(1, gap))
    word = ab.identity()
    for j, op in enumerate(ops):
        # a term with a shift letter where there is one, so a live E-side
        # does not cancel the planted hit
        terms = [term for term, _ in op.items()]
        term = next((t for t in terms if not lam(t).finite_orbit_part()), terms[-1])
        word = word * term.shifted(times[perm[j]])
    x = L2Vector.basis(ab.identity()) + rand_coeff(rng) * L2Vector.basis(word)
    states = [State.vector_state(x.normalized())]
    states += [random_vector_state(rng, ab, 3, 2, 4) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        states.append(State.trace())
    return states, ops, perm, window, gap


def planted_memo_cases(ab):
    """Scans in which every tuple is a candidate, and the builds a memo owes.

    A vector state on e and s[0..39] anchors every s letter of the lattice,
    so every prefix is entered.  Where the slot after the first finite-orbit
    one holds a shift operator and gap_max exceeds the period L, a node
    built when the first finite-orbit slot sits at n, and keyed by the next
    slot's time n + L + 1, is hit again at n + L, just after the bucket of
    n + L is dropped.  Yields (states, ops, perm, window, gap, builds), the
    builds being the _instantiate calls owed: one per reduced prefix of the
    slots before the last, each time at or after the first finite-orbit
    slot taken mod its L, per side (the E-side is live when every operator
    keeps a finite-orbit term).
    """
    x = L2Vector.basis(ab.identity())
    for i in range(40):
        x = x + L2Vector.basis(ab.word(f"s[{i}]"))
    states = [State.vector_state(x.normalized())]
    cases = [
        # operators, permutation, window, gap, and each slot's period
        (["d[0]", "s[0]", "s[0]"], None, 8, 4, [3, None, None]),
        (["c[1] d[0]", "s[0]", "s[1]"], None, 8, 7, [6, None, None]),
        (["s[0]", "d[0]", "s[0]", "s[0]"], None, 5, 4, [None, 3, None, None]),
        (["d[0]", "c[1]", "s[0]", "s[0]"], None, 6, 4, [3, 2, None, None]),
        (["d[1]", "s[0] + c[0]", "s[0] + c[1]"], None, 8, 4, [3, None, None]),
        (["s[0]", "s[0]", "d[0]", "s[0]"], [1, 2, 0, 3], 5, 4, [3, None, None, None]),
    ]
    for texts, perm, window, gap, periods in cases:
        ops = [
            sum((lam(ab.word(w)) for w in text.split(" + ")), AlgebraElement.zero(ab))
            for text in texts
        ]
        k = len(ops)
        first = next(r for r, period in enumerate(periods) if period)
        builds = set()
        for steps in itertools.product(range(1, gap + 1), repeat=k - 2):
            for n in range(1, window + 1):
                times = list(itertools.accumulate((n, *steps)))
                for r in range(k - 1):
                    builds.add(tuple(
                        t if s < first or periods[s] is None else t % periods[s]
                        for s, t in enumerate(times[: r + 1])
                    ))
        live = all(op.finite_orbit_part() for op in ops)
        yield states, ops, perm, window, gap, len(builds) * (1 + live)


def test_residue_memo_corpus_matches_exhaustive_walk(monkeypatch):
    # {s, t} shift families and cycles of lengths 2 and 3, so a finite-orbit
    # operator has period 1, 2, 3 or 6; windows are at least twice it
    ab = Alphabet({"s": None, "t": None, "c": 2, "d": 3})
    rng = random.Random(20)
    hit = {}
    for k in (2, 3, 4):
        for slot in sorted({0, k // 2, k - 1}):
            for live in (False, True):
                for _ in range(6 if k < 4 else 3):
                    states, ops, perm, window, gap = memo_case(rng, ab, k, slot, live)
                    new = gap_scan(states, ops, perm, window, gap)
                    old = exhaustive_gap_scan(states, ops, perm, window, gap)
                    assert_same_scan(new, old)
                    hit[k, slot, live] = hit.get((k, slot, live), 0) + bool(old.violations)
    # every (k, slot, E-side) cell has scans with violations to reproduce
    assert len(hit) == 16 and min(hit.values()) >= 2, hit
    # planted: a memo entry dropped one step early is built twice
    for states, ops, perm, window, gap, builds in planted_memo_cases(ab):
        res, calls = counted_instantiate(monkeypatch, states, ops, window, perm, gap)
        assert res.evaluated == res.scanned
        assert calls == builds, (perm, calls, builds)


def counted_instantiate(monkeypatch, states, ops, window, perm=None, gap=None):
    """_instantiate calls of one scan, checked against the oracle."""
    calls = []
    original = ergolab.mixing._instantiate
    gap = gap or window

    def counting(factors, pos, element):
        calls.append(pos)
        return original(factors, pos, element)

    expected = exhaustive_gap_scan(states, ops, perm, window, gap)
    with monkeypatch.context() as patch:
        patch.setattr(ergolab.mixing, "_instantiate", counting)
        res = gap_scan(states, ops, perm, window, gap)
    assert_same_scan(res, expected)
    return res, len(calls)


def test_residue_memo_fires(monkeypatch):
    ab = Alphabet({"s": None, "t": None, "c": 2, "d": 3})
    w = 6
    # slot 0 holds d[0], of period 3, and the state sees d[n1] only at
    # n1 = 3, 6; s[n2] meets s[n3 - 2]^-1 at n3 = n2 + 2, so the walk enters
    # all w slot-0 times and w * w slot-1 prefixes
    x = L2Vector.basis(ab.identity()) + L2Vector.basis(ab.word("d[0]"))
    phi = State.vector_state(x.normalized())
    ops = [lam(ab.word("d[0]")), lam(ab.word("s[0]")), lam(ab.word("s[-2]^-1"))]
    res, calls = counted_instantiate(monkeypatch, [phi], ops, w)
    assert res.evaluated == w * w
    assert [v.times for v in res.violations] == [
        (n1, n2, n2 + 2) for n1 in (3, 6) for n2 in range(n1 + 1, n1 + w + 1)
    ]
    # one build per reduced prefix (n1 mod 3) and (n1 mod 3, n2), not per prefix
    reduced = {(n1 % 3, n2) for n1 in range(1, w + 1) for n2 in range(n1 + 1, n1 + w + 1)}
    assert calls == 3 + len(reduced) < w + w * w
    # no finite-orbit slot: s[n1] t[n2] t[n3 - 2]^-1 s[n3 - 4]^-1 is 1 only at
    # (n, n + 2, n + 4), so the walk enters w slot-0 and w slot-1 prefixes and
    # builds each once, as without a memo
    ops = [lam(ab.word("s[0]")), lam(ab.word("t[0]")), lam(ab.word("t[-2]^-1 s[-4]^-1"))]
    res, calls = counted_instantiate(monkeypatch, [State.trace()], ops, w)
    assert [v.times for v in res.violations] == [(n, n + 2, n + 4) for n in range(1, w + 1)]
    assert calls == 2 * w


def test_residue_memo_bounded_by_gap_window():
    # the memo lives for the whole scan, as c[1] sits in slot 0; a vector
    # state on e and s[0..99] anchors every time, so all window * 25**3
    # tuples are candidates.  An entry keyed by slot 1's time n1 can hit only
    # while slot 0's time is below n1, so the memo holds what one gap window
    # reaches: doubling the scan window at gap_max 25 leaves the scan's peak
    # allocation where it was (a memo that keeps every entry adds 1.4 MiB)
    ab = Alphabet({"s": None, "c": 3})
    x = L2Vector.basis(ab.identity())
    for i in range(100):
        x = x + L2Vector.basis(ab.word(f"s[{i}]"))
    phi = State.vector_state(x.normalized())
    ops = [lam(ab.word(w)) for w in ("c[1]", "s[0]", "s[0]", "s[0]")]
    peaks = []
    for window in (10, 20):
        tracemalloc.start()
        try:
            res = gap_scan([phi], ops, None, window, 25)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.evaluated == res.scanned == window * 25**3
    assert peaks[1] - peaks[0] < 2**20, peaks
