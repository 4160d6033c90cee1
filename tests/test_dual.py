import math
import random

import pytest

import ergolab.dual
from ergolab import AlgebraElement, Alphabet, AlphabetError, L2Vector, State, matrix_element
from ergolab.dual import _trace_of
from ergolab.words import invert_runs, merge_runs
from conftest import random_element, random_vector_state, random_word
from gap_oracle import _mul_terms


@pytest.fixture
def ab():
    return Alphabet({"s": None, "c": 3})


def lam(word, coeff=1.0):
    return AlgebraElement.unitary(word, coeff)


class TestUnitaries:
    def test_identity_word_is_unit(self, ab):
        assert lam(ab.identity()).is_close(AlgebraElement.one(ab))

    def test_homomorphism(self, ab):
        rng = random.Random(1)
        for _ in range(300):
            g, h = random_word(rng, ab), random_word(rng, ab)
            assert (lam(g) * lam(h)).is_close(lam(g * h))

    def test_adjoint_is_inverse(self, ab):
        rng = random.Random(2)
        for _ in range(300):
            g = random_word(rng, ab)
            assert lam(g).adjoint().is_close(lam(g.inverse()))
            assert (lam(g).adjoint() * lam(g)).is_close(AlgebraElement.one(ab))


class TestRing:
    def test_expand_and_cancel(self, ab):
        g = ab.word("s[0]")
        one = AlgebraElement.one(ab)
        lhs = (one + lam(g)) * (one - lam(g))
        assert lhs.is_close(one - lam(g * g))

    def test_unit_neutral(self, ab):
        rng = random.Random(3)
        for _ in range(100):
            a = random_element(rng, ab, terms=3)
            assert (a * AlgebraElement.one(ab)).is_close(a)
            assert (AlgebraElement.one(ab) * a).is_close(a)

    def test_adjoint_antihomomorphism(self, ab):
        rng = random.Random(4)
        for _ in range(200):
            a, b = random_element(rng, ab), random_element(rng, ab)
            assert (a * b).adjoint().is_close(b.adjoint() * a.adjoint())

    def test_associative_distributive(self, ab):
        rng = random.Random(5)
        for _ in range(100):
            a, b, c = (random_element(rng, ab) for _ in range(3))
            assert ((a * b) * c).is_close(a * (b * c))
            assert (a * (b + c)).is_close(a * b + a * c)

    def test_pruning_keeps_maps_small(self, ab):
        a = lam(ab.word("s[0]"), 1e-16)
        assert len(a) == 0

    def test_scalar_ops(self, ab):
        a = lam(ab.word("c[0]"), 2.0)
        assert (0.5 * a).coefficient(ab.word("c[0]")) == 1.0
        assert (-a + a).is_close(AlgebraElement.zero(ab))


class TestShiftAutomorphism:
    def test_single_unitary(self, ab):
        assert lam(ab.word("s[0]")).shifted(3).is_close(lam(ab.word("s[3]")))

    def test_multiplicative(self, ab):
        rng = random.Random(6)
        for _ in range(200):
            a, b = random_element(rng, ab), random_element(rng, ab)
            n = rng.randint(-6, 6)
            assert (a * b).shifted(n).is_close(a.shifted(n) * b.shifted(n))

    def test_zero_shift(self, ab):
        rng = random.Random(7)
        a = random_element(rng, ab)
        assert a.shifted(0).is_close(a)


class TestFiniteOrbitPart:
    def test_cycle_kept(self, ab):
        a = lam(ab.word("c[0]"))
        assert a.finite_orbit_part().is_close(a)

    def test_shift_killed(self, ab):
        assert not lam(ab.word("s[0]")).finite_orbit_part()

    def test_linearity_mixed_word(self, ab):
        a = lam(ab.word("c[0]"), 2.0) + lam(ab.word("s[0] c[1]"), 3.0)
        assert a.finite_orbit_part().is_close(lam(ab.word("c[0]"), 2.0))

    def test_unital_idempotent(self, ab):
        rng = random.Random(8)
        one = AlgebraElement.one(ab)
        assert one.finite_orbit_part().is_close(one)
        for _ in range(200):
            a = random_element(rng, ab, terms=3)
            ea = a.finite_orbit_part()
            assert ea.finite_orbit_part().is_close(ea)

    def test_module_property(self, ab):
        # E(b a c) = b E(a) c for finite-orbit supported b, c
        rng = random.Random(9)
        cycles = Alphabet({"c": 3})
        for _ in range(300):
            a = random_element(rng, ab, terms=3)
            b = random_element(rng, cycles, terms=2)
            c = random_element(rng, cycles, terms=2)
            b = AlgebraElement.from_terms(ab, b.items())
            c = AlgebraElement.from_terms(ab, c.items())
            lhs = (b * a * c).finite_orbit_part()
            rhs = b * a.finite_orbit_part() * c
            assert lhs.distance(rhs) <= 1e-12

    def test_commutes_with_shift(self, ab):
        rng = random.Random(10)
        for _ in range(200):
            a = random_element(rng, ab, terms=3)
            n = rng.randint(-5, 5)
            assert a.shifted(n).finite_orbit_part().is_close(
                a.finite_orbit_part().shifted(n)
            )

    def test_trace_preserved(self, ab):
        rng = random.Random(11)
        mu = State.trace()
        for _ in range(200):
            a = random_element(rng, ab, terms=3)
            assert abs(mu(a.finite_orbit_part()) - mu(a)) <= 1e-12


class TestVectors:
    def test_unitary_moves_basis(self, ab):
        g, h = ab.word("s[0] c[1]"), ab.word("c[2]^-1 s[4]")
        out = lam(g).apply(L2Vector.basis(h))
        assert abs(out.amplitude(g * h) - 1.0) < 1e-15
        assert len(out) == 1

    def test_unit_fixes_vectors(self, ab):
        rng = random.Random(12)
        one = AlgebraElement.one(ab)
        x = L2Vector.basis(ab.word("s[1]")) + 2.0 * L2Vector.basis(ab.word("c[0]"))
        y = one.apply(x)
        assert (y - x).norm() < 1e-15

    def test_l1_bound(self, ab):
        rng = random.Random(13)
        for _ in range(100):
            a = random_element(rng, ab, terms=3)
            x = 0.7 * L2Vector.basis(random_word(rng, ab)) + 0.2 * L2Vector.basis(
                random_word(rng, ab)
            )
            assert a.apply(x).norm() <= a.l1() * x.norm() + 1e-12

    def test_normalize_zero_raises(self, ab):
        with pytest.raises(ValueError):
            L2Vector(ab, {}).normalized()

    def test_norm_overflows_only_with_the_true_norm(self, ab):
        e, s0 = ab.identity(), ab.word("s[0]")

        def vector(*amplitudes):
            return L2Vector.from_terms(ab, zip((e, s0), amplitudes))

        # in range, bit for bit the plain sum of squares
        rng = random.Random(23)
        for _ in range(200):
            amps = [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(2)]
            assert vector(*amps).norm() == math.sqrt(sum(abs(c) ** 2 for c in amps))
        # squares past the float range where the norm is not
        assert vector(1e308, 1e308).norm() == math.hypot(1e308, 1e308)
        assert vector(1e308j, -1e308).norm() == math.hypot(1e308, 1e308)
        assert vector(1e308).normalized().norm() == pytest.approx(1.0, abs=1e-15)
        # a true norm past the float range is infinite, and refused
        for amps in [(1.5e308, 1.5e308), (complex(1.5e308, 1.5e308),)]:
            x = vector(*amps)
            assert x.norm() == math.inf
            with pytest.raises(ValueError, match="norm inf"):
                x.normalized()
            with pytest.raises(ValueError):
                State.vector_state(x)
            with pytest.raises(ValueError):
                State.mixture([(1.0, x)])

    def test_sum_refuses_mixed_alphabets(self, ab):
        other = Alphabet({"s": None, "c": 4})
        x, y = L2Vector.basis(ab.word("s[1]")), L2Vector.basis(other.word("s[1]"))
        with pytest.raises(AlphabetError):
            x + y
        with pytest.raises(AlphabetError):
            x - y


class TestStates:
    def test_trace_values(self, ab):
        mu = State.trace()
        g = ab.word("s[0] c[1]")
        assert mu(lam(g)) == 0.0
        assert mu(AlgebraElement.one(ab)) == 1.0
        assert abs(mu(lam(g) * lam(g).adjoint()) - 1.0) < 1e-15

    def test_trace_property(self, ab):
        rng = random.Random(14)
        mu = State.trace()
        for _ in range(300):
            a, b = random_element(rng, ab), random_element(rng, ab)
            assert abs(mu(a * b) - mu(b * a)) <= 1e-12

    def test_vector_state_example(self, ab):
        x = L2Vector.basis(ab.identity()) + L2Vector.basis(ab.word("s[5]"))
        phi = State.vector_state((1.0 / x.norm()) * x)
        for n in range(1, 12):
            value = phi(lam(ab.word(f"s[{n}]")))
            expected = 0.5 if n == 5 else 0.0
            assert abs(value - expected) < 1e-12

    def test_positivity(self, ab):
        rng = random.Random(15)
        states = [State.trace()] + [random_vector_state(rng, ab) for _ in range(4)]
        for _ in range(100):
            c = random_element(rng, ab, terms=3)
            a = c.adjoint() * c
            for phi in states:
                value = phi(a)
                assert value.real >= -1e-12 and abs(value.imag) <= 1e-12

    def test_unit_maps_to_one(self, ab):
        rng = random.Random(16)
        one = AlgebraElement.one(ab)
        for _ in range(20):
            phi = random_vector_state(rng, ab)
            assert abs(phi(one) - 1.0) <= 1e-12

    def test_mixture_validation(self, ab):
        x = L2Vector.basis(ab.identity())
        with pytest.raises(ValueError):
            State.mixture([])
        with pytest.raises(ValueError):
            State.mixture([(0.5, x), (-0.5, x)])
        with pytest.raises(ValueError):
            State.mixture([(0.7, x)])
        with pytest.raises(ValueError):
            State.vector_state(2.0 * x)

    def test_mixture_evaluates_convexly(self, ab):
        rng = random.Random(17)
        s1 = random_vector_state(rng, ab)
        s2 = random_vector_state(rng, ab)
        mix = State.mixture([(0.3, s1.vector), (0.7, s2.vector)])
        a = random_element(rng, ab, terms=3)
        assert abs(mix(a) - (0.3 * s1(a) + 0.7 * s2(a))) <= 1e-12

    def test_vector_state_is_its_one_component_mixture(self, ab):
        """Bit for bit, signed zeros too, on values and on products; both are
        also the inner product <x, a x> itself."""

        def bits(z):
            return z.real.hex(), z.imag.hex()

        rng = random.Random(24)
        for _ in range(60):
            phi = random_vector_state(rng, ab, support=3)
            x = phi.vector
            mix = State.mixture([(1.0, x)])
            for _ in range(5):
                a, b = random_element(rng, ab, terms=3), random_element(rng, ab, terms=3)
                for element in (a, a.adjoint() * a, 0.0 * a):
                    value = bits(phi(element))
                    assert value == bits(mix(element)) == bits(x.inner(element.apply(x)))
                assert bits(phi.on_product(a, b)) == bits(mix.on_product(a, b))

    def test_profile_matches_direct_evaluation(self, ab):
        rng = random.Random(18)
        phi = random_vector_state(rng, ab, support=3)
        profile = phi.profile(ab)
        for word, value in profile.items():
            assert abs(phi(lam(word)) - value) <= 1e-12


class TestMatrixElements:
    def test_indicator(self, ab):
        rng = random.Random(19)
        for _ in range(200):
            f, g, h = (random_word(rng, ab) for _ in range(3))
            value = matrix_element(f, lam(g), h)
            assert value == (1.0 if f == g * h else 0.0)

    def test_unit_diagonal(self, ab):
        h = ab.word("s[2] c[1]")
        assert matrix_element(h, AlgebraElement.one(ab), h) == 1.0

    def test_agreement_with_state(self, ab):
        rng = random.Random(20)
        for _ in range(100):
            h = random_word(rng, ab)
            a = random_element(rng, ab, terms=3)
            phi = State.vector_state(L2Vector.basis(h))
            assert abs(matrix_element(h, a, h) - phi(a)) <= 1e-12

    def test_one_hit(self, ab):
        rng = random.Random(21)
        for _ in range(40):
            f, h = random_word(rng, ab), random_word(rng, ab)
            g = random_word(rng, ab) * ab.letter("s", rng.randint(-3, 3))
            hits = 0
            for n in range(1, 120):
                if matrix_element(f, lam(g).shifted(n), h) != 0.0:
                    hits += 1
            assert hits <= 1


class TestProductKernel:
    """``__mul__`` and ``apply`` against a product that merges every term pair.

    ``gap_oracle._mul_terms`` reduces each pair with ``merge_runs``; the
    kernel concatenates where the junction cannot reduce.  Term tables must
    agree bit for bit, in insertion order, and ``merge_runs`` must be called
    exactly for the pairs whose junction meets on one symbol.
    """

    @staticmethod
    def corpus():
        ab = Alphabet({"s": None, "t": None, "c": 3})
        rng = random.Random(20261020)

        def coeff():
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        def word():
            return random_word(rng, ab, max_letters=4, idx_span=1)

        for _ in range(150):
            left = [word() for _ in range(rng.randint(1, 4))]
            right = [word() for _ in range(rng.randint(0, 3))]
            # junctions that cancel a left word in full, or down to a tail
            for g in rng.sample(left, rng.randint(1, len(left))):
                right.append(g.inverse() * word())
                right.append(g.inverse())
            if rng.random() < 0.5:
                left.append(ab.identity())
            if rng.random() < 0.5:
                right.append(ab.identity())
            yield (
                AlgebraElement.from_terms(ab, [(w, coeff()) for w in left]),
                AlgebraElement.from_terms(ab, [(w, coeff()) for w in right]),
            )
        # two junctions cancel to one word whose coefficients cancel: pruned
        g, h, x = ab.word("s[0] c[1]"), ab.word("t[1]^-1"), ab.word("c[2] s[1]")
        yield lam(g) + lam(h), lam(g.inverse() * x) - lam(h.inverse() * x)

    @staticmethod
    def bits(terms):
        return [(runs, c.real.hex(), c.imag.hex()) for runs, c in terms.items()]

    def test_matches_merge_every_pair(self, monkeypatch):
        calls = [0]
        merge_runs = ergolab.dual.merge_runs

        def counted(*parts):
            calls[0] += 1
            return merge_runs(*parts)

        monkeypatch.setattr(ergolab.dual, "merge_runs", counted)
        seen = dict.fromkeys(("identity", "cycle", "cancelled", "pruned", "concatenated"), 0)
        for left, right in self.corpus():
            meeting = [
                (u, v) for u in left._terms for v in right._terms
                if u and v and u[-1][:2] == v[0][:2]
            ]
            want = self.bits(_mul_terms(left._terms, right._terms))
            vector = L2Vector(left.alphabet, right._terms)
            calls[0] = 0
            assert self.bits((left * right)._terms) == want
            assert calls[0] == len(meeting)
            calls[0] = 0
            assert self.bits(left.apply(vector)._terms) == want
            assert calls[0] == len(meeting)
            seen["identity"] += () in left._terms or () in right._terms
            seen["cycle"] += any(v[0][0] == "c" for _, v in meeting)
            seen["cancelled"] += any(u[-1][2] == -v[0][2] for u, v in meeting)
            seen["pruned"] += len(want) < len(
                {merge_runs(u, v) for u in left._terms for v in right._terms}
            )
            seen["concatenated"] += len(meeting) < len(left) * len(right)
        assert min(seen.values()) >= 1, seen


def walk_sum(walked, other):
    """sum of walked[u] other[u^-1] in walked's term order."""
    total = 0.0
    for runs, c in walked.items():
        d = other.get(invert_runs(runs))
        if d is not None:
            total += c * d
    return total


def reference_trace(left, right):
    """``State.on_product``'s trace branch before it became ``_trace_of``, on
    raw term tables: the kernel's oracle, a plain copy so as not to be circular."""
    small, big = (left, right) if len(left) <= len(right) else (right, left)
    total = walk_sum(small, big)
    return complex(total) if abs(total) > ergolab.dual.PRUNE_TOL else 0.0 + 0.0j


class TestTraceKernel:
    """``_trace_of``, with and without right's inverted keys, against the old
    branch bit for bit: side choice, walk order, and an exact zero in tolerance."""

    @staticmethod
    def corpus():
        ab = Alphabet({"s": None, "t": None, "c": 3})
        rng = random.Random(20261030)

        def coeff():
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        for case in range(300):
            left = {random_word(rng, ab, 3, 1).runs: coeff() for _ in range(rng.randint(1, 6))}
            # inverses of some left words, in shuffled order, among others
            right = [invert_runs(runs) for runs in left if rng.random() < 0.7]
            right += [random_word(rng, ab, 3, 1).runs for _ in range(rng.randint(0, 5))]
            if case % 5 == 0:
                right.append(())
            rng.shuffle(right)
            right = {runs: coeff() for runs in right}
            yield (left, right) if case % 2 else (right, left)
        # contributions 1 and -(1 + 2**-52) leave a total within PRUNE_TOL
        g, h = ab.word("s[0] c[1]").runs, ab.word("t[1]^-1").runs
        yield {g: 1 + 0j, h: -1 + 0j}, {invert_runs(g): 1 + 0j, invert_runs(h): 1 + 2**-52 + 0j}

    @staticmethod
    def bits(z):
        return z.real.hex(), z.imag.hex()

    def test_matches_old_branch(self):
        sizes = ("left smaller", "equal", "right smaller")
        seen = dict.fromkeys(sizes + ("identity", "zeroed"), 0)
        seen.update(dict.fromkeys([f"order, {size}" for size in sizes], 0))
        for left, right in self.corpus():
            want = reference_trace(left, right)
            inverses = [invert_runs(runs) for runs in right]
            assert self.bits(_trace_of(left, right)) == self.bits(want)
            assert self.bits(_trace_of(left, right, inverses)) == self.bits(want)
            assert type(_trace_of(left, right)) is complex
            size = sizes[(len(left) >= len(right)) + (len(left) > len(right))]
            seen[size] += 1
            seen["identity"] += () in left and () in right
            # walking the other side would give other bits
            small, big = (left, right) if len(left) <= len(right) else (right, left)
            seen[f"order, {size}"] += self.bits(complex(walk_sum(big, small))) != self.bits(want)
            seen["zeroed"] += want == 0 and any(invert_runs(runs) in right for runs in left)
        assert min(seen.values()) >= 1, seen

    def test_on_product_wraps_the_kernel(self):
        ab = Alphabet({"s": None, "c": 3})
        rng = random.Random(20261031)
        for _ in range(50):
            a, b = random_element(rng, ab, 4, 3), random_element(rng, ab, 2, 3)
            want = reference_trace(a._terms, b._terms)
            assert self.bits(State.trace().on_product(a, b)) == self.bits(want)
            assert self.bits(State.trace().on_product(b, a)) == self.bits(
                reference_trace(b._terms, a._terms)
            )


class TestRunsProfile:
    """``State.runs_profile`` against merging every pair (f, h^-1) of a
    component's support: the same table bit for bit, in key order, and
    ``merge_runs`` called once per pair that meets on a symbol."""

    @staticmethod
    def states():
        ab = Alphabet({"s": None, "t": None, "c": 3})
        rng = random.Random(20261101)

        def vector():
            words = [random_word(rng, ab, 3, 1) for _ in range(rng.randint(1, 4))]
            # a pair whose junction cancels down to a head, and the identity
            x = random_word(rng, ab, 2, 1)
            words += [words[0] * x, x] if rng.random() < 0.6 else []
            words += [ab.identity()] if rng.random() < 0.5 else []
            vec = L2Vector.from_terms(
                ab, [(w, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for w in words]
            )
            return vec.normalized()

        for case in range(80):
            if case % 2:
                yield State.vector_state(vector())
            else:
                p = rng.uniform(0.1, 0.9)
                yield State.mixture([(p, vector()), (1 - p, vector())])

    @staticmethod
    def merge_every_pair(state):
        acc = {}
        for p, x in state.components:
            for rf, cf in x._terms.items():
                for rh, ch in x._terms.items():
                    w = merge_runs(rf, invert_runs(rh))
                    acc[w] = acc.get(w, 0.0) + p * cf.conjugate() * ch
        return {w: c for w, c in acc.items() if abs(c) > ergolab.dual.PRUNE_TOL}

    def test_matches_merge_every_pair(self, monkeypatch):
        calls = [0]

        def counted(*parts):
            calls[0] += 1
            return merge_runs(*parts)

        monkeypatch.setattr(ergolab.dual, "merge_runs", counted)
        seen = dict.fromkeys(("identity", "cycle", "cancelled", "concatenated", "mixture"), 0)
        for state in self.states():
            meeting = [
                (f, h) for _, x in state.components for f in x._terms for h in x._terms
                if f and h and f[-1][:2] == h[-1][:2]
            ]
            calls[0] = 0
            got = state.runs_profile()
            assert calls[0] == len(meeting)
            assert TestProductKernel.bits(got) == TestProductKernel.bits(
                self.merge_every_pair(state)
            )
            seen["identity"] += any(() in x._terms for _, x in state.components)
            seen["cycle"] += any(f[-1][0] == "c" for f, _ in meeting)
            seen["cancelled"] += any(f != h for f, h in meeting)
            seen["concatenated"] += len(meeting) < sum(len(x) ** 2 for _, x in state.components)
            seen["mixture"] += len(state.components) > 1
        assert min(seen.values()) >= 1, seen
