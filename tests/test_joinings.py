import random
from fractions import Fraction as F
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from ergolab import (
    Coupling,
    FactorSpec,
    JoiningInfeasibleError,
    PermutationSystem,
    SchemeError,
    coupling_of,
    custom,
    discrete_weights,
    joining_polytope,
    log_family,
    power,
    product_coupling,
    relative_disjointness,
    rotation,
    uniform,
    voronoi,
    weighted_coupling_average,
)
from ergolab import joinings
from ergolab.averaging import WEIGHT_COUNT_CAP
from ergolab.joinings import LOG_WEIGHT_COUNT_CAP, _exact_weight
from vertex_oracle import dense_constraints, dense_residual, joining_vertices


def stepping_coupling_average(left, right, couplings, scheme, count):
    """Oracle: the weighted coupling average stepped one n at a time."""
    family = [couplings] if isinstance(couplings, Coupling) else list(couplings)
    weight = _exact_weight(scheme, count)
    na, nb = left.size, right.size
    inv_a = left.inverse_permutation
    inv_b = right.inverse_permutation
    # back_a[u] = sigma_A^{-n}(u), updated one step per n
    back_a = list(range(na))
    back_b = list(range(nb))
    acc = [[F(0)] * nb for _ in range(na)]
    for n in range(1, count + 1):
        back_a = [back_a[inv_a[u]] for u in range(na)]
        back_b = [back_b[inv_b[v]] for v in range(nb)]
        mat = family[(n - 1) % len(family)].matrix
        w = weight(n)
        for u in range(na):
            for v in range(nb):
                acc[u][v] += w * mat[back_a[u]][back_b[v]]
    total = sum(weight(n) for n in range(1, count + 1))
    return tuple(tuple(entry / total for entry in row) for row in acc)


def random_system(rng, size):
    """A random permutation of 0..size-1 in a few cycles, with an invariant
    measure that puts zero mass on some cycles."""
    points = rng.sample(range(size), size)
    cuts = sorted(rng.sample(range(1, size), rng.randint(0, size - 1)))
    cycles = [points[i:j] for i, j in zip([0] + cuts, cuts + [size])]
    permutation = [0] * size
    for cycle in cycles:
        for i, p in enumerate(cycle):
            permutation[p] = cycle[(i + 1) % len(cycle)]
    weights = [rng.choice([0, 0, 1, 2, 3]) for _ in cycles]
    if not any(weights):
        weights[0] = 1
    total = sum(w * len(c) for w, c in zip(weights, cycles))
    measure = [F(0)] * size
    for w, cycle in zip(weights, cycles):
        for p in cycle:
            measure[p] = F(w, total)
    return PermutationSystem(tuple(permutation), tuple(measure))


def orbit_factor(rng, left, right):
    """A factor whose cells are unions of product orbits, with random masses."""
    na, nb = left.size, right.size
    label = {}
    for start in range(na * nb):
        flat = start
        while flat not in label:
            label[flat] = start
            flat = left.permutation[flat // nb] * nb + right.permutation[flat % nb]
    modulus = rng.randint(1, 3)
    gen = tuple(
        tuple(F(label[x * nb + y] % modulus) for y in range(nb)) for x in range(na)
    )
    cells = len({v for row in gen for v in row})
    weights = [rng.choice([0, 1, 2, 5]) for _ in range(cells)]
    if not any(weights):
        weights[-1] = 1
    return FactorSpec((gen,), tuple(F(w, sum(weights)) for w in weights))


def certificate_corpus():
    """(label, polytope) pairs: random permutation pairs with and without an
    orbit factor, and rotation pairs with and without the (x - y) mod g factor."""
    rng = random.Random(20121)
    corpus = []
    for i in range(40):
        left = random_system(rng, rng.randint(1, 4))
        right = random_system(rng, rng.randint(1, 4))
        factor = orbit_factor(rng, left, right) if i % 2 else None
        corpus.append((f"random-{i}", joining_polytope(left, right, factor)))
    for a in range(2, 6):
        for b in range(2, 6):
            corpus.append((f"rotation-{a}x{b}", joining_polytope(rotation(a), rotation(b))))
            g = gcd(a, b)
            if g > 1:
                weights = [rng.randint(1, 5) for _ in range(g)]
                factor = FactorSpec(
                    ([[F((x - y) % g) for y in range(b)] for x in range(a)],),
                    tuple(F(w, sum(weights)) for w in weights),
                )
                pol = joining_polytope(rotation(a), rotation(b), factor)
                corpus.append((f"rotation-{a}x{b}-factor", pol))
    return corpus


@lru_cache(maxsize=None)
def corpus_vertices():
    """(label, polytope, vertex list) over the certificate corpus."""
    return [(label, pol, joining_vertices(pol)) for label, pol in certificate_corpus()]


def cycle_lengths(system):
    """The cycle lengths of a system's permutation, walked point by point."""
    lengths, seen = [], set()
    for start in range(system.size):
        point, length = start, 0
        while point not in seen:
            seen.add(point)
            point, length = system.permutation[point], length + 1
        if length:
            lengths.append(length)
    return lengths


def orbit_count(left, right):
    """Orbits of sigma_A x sigma_B: gcd(p, q) over each pair of a p-cycle and a q-cycle."""
    return sum(gcd(p, q) for p in cycle_lengths(left) for q in cycle_lengths(right))


def assert_quotient_shape(pol):
    """Distinct (counts | mass) rows, int counts, and each marginal point's
    and factor cell's own cell count appearing as a row sum."""
    rows = [tuple(row) + (mass,) for row, mass in zip(pol.a_eq.tolist(), pol.b_eq)]
    assert len(set(rows)) == len(rows)
    assert pol.a_eq.dtype.kind == "i" and len(pol.b_eq) == pol.a_eq.shape[0]
    na, nb = pol.left.size, pol.right.size
    sizes = {na, nb} | {len(cell) for cell in pol.cells}
    assert set(pol.a_eq.sum(axis=1).tolist()) <= sizes
    assert sorted(set(pol.orbit_of)) == list(range(pol.a_eq.shape[1]))


@pytest.fixture
def simplex_calls(monkeypatch):
    """Counts the simplex solves that certificates make while the test runs."""
    calls = []
    solve = joinings.simplex_minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(joinings, "simplex_minimize", counted)
    return calls


class TestClassicalSystems:
    def test_rotation_is_invariant(self):
        sys3 = rotation(3)
        assert sys3.permutation == (1, 2, 0)
        assert sys3.measure == (F(1, 3),) * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationSystem((0, 0), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            PermutationSystem((1, 0), (F(1, 3), F(2, 3)))  # not invariant
        with pytest.raises(ValueError):
            PermutationSystem((1, 0), (F(1, 2), F(1, 4)))  # not a probability
        with pytest.raises(ValueError):
            PermutationSystem((1, 0), (F(3, 2), F(-1, 2)))

    def test_nonuniform_invariant_measure(self):
        sys_ = PermutationSystem((1, 0, 2), (F(1, 4), F(1, 4), F(1, 2)))
        assert sys_.inverse_permutation == (1, 0, 2)


class TestCouplings:
    def test_product_coupling_valid(self):
        a, b = rotation(2), rotation(3)
        coupling_of(a, b, product_coupling(a, b).matrix)

    def test_marginal_violation(self):
        a, b = rotation(2), rotation(3)
        bad = [[F(1, 2), 0, 0], [0, F(1, 4), F(1, 4)]]
        with pytest.raises(ValueError):
            coupling_of(a, b, bad)

    def test_negative_entries(self):
        with pytest.raises(ValueError):
            Coupling(((F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))))

    def test_string_fractions(self):
        a, b = rotation(2), rotation(3)
        coupling_of(a, b, [["1/3", "1/6", "0"], ["0", "1/6", "1/3"]])


class TestJoiningPolytope:
    def test_trivial_pair(self):
        point = PermutationSystem((0,), (F(1),))
        rep = relative_disjointness(joining_polytope(point, point))
        assert rep.disjoint
        assert np.allclose(rep.unique_joining, [[1.0]])

    def test_self_pair_one_parameter_family(self):
        two = rotation(2)
        pol = joining_polytope(two, two)
        verts = joining_vertices(pol)
        assert len(verts) == 2
        mats = sorted(np.round(v, 9)[0, 0] for v in verts)
        assert mats == [0.0, 0.5]
        rep = relative_disjointness(pol)
        assert not rep.disjoint
        w1, w2 = rep.witnesses
        assert abs(w1[0, 0] - 0.0) < 1e-9 and abs(w2[0, 0] - 0.5) < 1e-9
        for w in rep.witnesses:
            assert pol.residual(w) < 1e-9

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 4), (2, 5)])
    def test_coprime_rotations_disjoint(self, sizes):
        a, b = rotation(sizes[0]), rotation(sizes[1])
        pol = joining_polytope(a, b)
        rep = relative_disjointness(pol)
        assert rep.disjoint and rep.spread < 1e-9
        product = np.full(sizes, 1.0 / (sizes[0] * sizes[1]))
        assert np.max(np.abs(rep.unique_joining - product)) < 1e-9
        verts = joining_vertices(pol)
        assert len(verts) == 1
        assert np.max(np.abs(verts[0] - product)) < 1e-9

    def test_anything_vs_point_disjoint(self):
        a = rotation(4)
        point = PermutationSystem((0,), (F(1),))
        rep = relative_disjointness(joining_polytope(a, point))
        assert rep.disjoint
        assert np.allclose(rep.unique_joining.ravel(), [0.25] * 4)

    @pytest.mark.parametrize(
        "left, right",
        [
            (rotation(2), rotation(2)),
            (rotation(3), rotation(4)),
            (PermutationSystem((0, 2, 1), (F(1, 2), F(1, 4), F(1, 4))), rotation(2)),
            (
                PermutationSystem((0,), (F(1),)),
                PermutationSystem((1, 0, 2), ("1/4", "1/4", "1/2")),
            ),
        ],
    )
    def test_quotient_rows_distinct_one_column_per_orbit(self, left, right):
        pol = joining_polytope(left, right)
        assert_quotient_shape(pol)
        assert pol.a_eq.shape[1] == orbit_count(left, right)

    def test_quotient_columns_over_rotations_and_the_corpus(self):
        for a in range(1, 9):
            for b in range(1, 9):
                pol = joining_polytope(rotation(a), rotation(b))
                assert_quotient_shape(pol)
                assert pol.a_eq.shape[1] == gcd(a, b)
        for label, pol in certificate_corpus():
            assert_quotient_shape(pol)
            assert pol.a_eq.shape[1] == orbit_count(pol.left, pol.right), label

    def test_vertices_closed_under_product_shift(self):
        two = rotation(2)
        pol = joining_polytope(two, two)
        for v in joining_vertices(pol):
            pushed = np.empty_like(v)
            for x in range(2):
                for y in range(2):
                    pushed[two.permutation[x], two.permutation[y]] = v[x, y]
            assert pol.residual(pushed) < 1e-12


class TestQuotientCertificate:
    def test_agrees_with_vertex_enumeration(self):
        # the independent oracle decides every case: one vertex iff disjoint,
        # and no vertex iff the prescription is infeasible; a witness pair is
        # two vertices spanning the oracle's range of the first cell where
        # they differ (the smallest flat index of the first unpinned orbit)
        cases = set()
        for label, pol, vertices in corpus_vertices():
            if not vertices:
                with pytest.raises(JoiningInfeasibleError):
                    relative_disjointness(pol)
                cases.add("infeasible")
                continue
            rep = relative_disjointness(pol)
            assert rep.disjoint == (len(vertices) == 1), label
            cases.add(rep.disjoint)
            if rep.disjoint:
                assert rep.spread == 0.0 and rep.witnesses is None, label
                assert np.max(np.abs(rep.unique_joining - vertices[0])) < 1e-12, label
                continue
            low, high = rep.witnesses
            for w in (low, high):
                assert min(np.max(np.abs(w - v)) for v in vertices) < 1e-12, label
            cell = np.unravel_index(np.flatnonzero(low != high)[0], low.shape)
            values = [v[cell] for v in vertices]
            assert abs(low[cell] - min(values)) < 1e-12, label
            assert abs(high[cell] - max(values)) < 1e-12, label
            assert abs(rep.spread - (max(values) - min(values))) < 1e-12, label
        assert cases == {True, False, "infeasible"}

    def test_exact_point_is_correctly_rounded(self):
        rep = relative_disjointness(joining_polytope(rotation(9), rotation(10)))
        assert rep.disjoint and rep.spread == 0.0 and rep.witnesses is None
        assert np.all(rep.unique_joining == float(F(1, 90)))

    def test_coprime_pair_ranges_its_one_orbit(self, simplex_calls):
        # one orbit, one unknown: a minimization and a maximization certify it
        rep = relative_disjointness(joining_polytope(rotation(7), rotation(8)))
        assert rep.disjoint
        assert len(simplex_calls) == 2

    def test_rank_deficient_single_point_is_exact(self, simplex_calls):
        # a zero-mass 2-cycle leaves the quotient three orbits and rank two,
        # yet nonnegativity pins the two orbits it cannot tell apart to 0
        left = PermutationSystem((0, 2, 1), (1, 0, 0))
        rep = relative_disjointness(joining_polytope(left, rotation(2)))
        assert rep.disjoint and rep.spread == 0.0 and rep.witnesses is None
        assert len(simplex_calls) == 6
        assert np.array_equal(rep.unique_joining, [[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]])


class TestMembership:
    """``residual`` and ``contains`` read the gaps off the matrix; the
    oracle's dense max|Ax - b| over its own constraints is their reference."""

    def test_residual_matches_dense_constraints(self):
        rng = np.random.default_rng(24)
        for label, pol, vertices in corpus_vertices():
            shape = (pol.left.size, pol.right.size)
            # on a random orbit-constant matrix only the invariance gap is 0
            invariant = rng.random(max(pol.orbit_of) + 1)[list(pol.orbit_of)].reshape(shape)
            randoms = [invariant / invariant.sum(), rng.random(shape), rng.random(shape) / invariant.size]
            for m in vertices + randoms:
                assert abs(pol.residual(m) - dense_residual(pol, m)) <= 1e-12, label
            for v in vertices:
                assert pol.contains(v), label

    def test_contains_at_the_dense_residual(self):
        rng = np.random.default_rng(25)
        for label, pol in certificate_corpus():
            m = rng.random((pol.left.size, pol.right.size))
            gap = dense_residual(pol, m)
            assert gap > 1e-3, label
            assert pol.contains(m, tol=2 * gap) and not pol.contains(m, tol=gap / 2), label

    def test_negative_entry_is_outside(self):
        # invariant with both marginals exact, but below zero on the diagonal
        pol = joining_polytope(rotation(2), rotation(2))
        m = np.array([[-0.125, 0.625], [0.625, -0.125]])
        assert pol.residual(m) == dense_residual(pol, m) == 0.0
        assert not pol.contains(m) and pol.contains(m, tol=0.125)

    @staticmethod
    def one_gap_cases():
        """(kind, polytope, matrix) whose only nonzero dense gap is of that kind."""
        point = PermutationSystem((0,), (F(1),))
        still = PermutationSystem((0, 1), (F(1, 4), F(3, 4)))
        two, three = rotation(2), rotation(3)
        # the product coupling with a 2 x 2 bump keeps every row and column sum
        bumped = np.full((2, 3), 1 / 6) + np.array([[1, -1, 0], [-1, 1, 0]]) / 8
        diagonal = FactorSpec(((("1", "0"), ("0", "1")),), (F(1, 4), F(3, 4)))
        return [
            ("rows", joining_polytope(still, point), np.array([[0.5], [0.5]])),
            ("columns", joining_polytope(point, still), np.array([[0.5, 0.5]])),
            ("invariance", joining_polytope(two, three), bumped),
            ("cells", joining_polytope(two, two, diagonal), np.full((2, 2), 0.25)),
        ]

    def test_each_gap_alone(self):
        kinds = []
        for kind, pol, m in self.one_gap_cases():
            a, b = dense_constraints(pol)
            na, nb, cells = pol.left.size, pol.right.size, len(pol.cells)
            blocks = {
                "rows": range(na),
                "columns": range(na, na + nb),
                "invariance": range(na + nb, len(b) - cells),
                "cells": range(len(b) - cells, len(b)),
            }
            gaps = np.abs(a @ m.reshape(-1) - b)
            assert set(np.flatnonzero(gaps > 1e-12)) <= set(blocks[kind]), kind
            assert gaps.max() >= 0.1, kind
            assert pol.residual(m) == pytest.approx(gaps.max(), rel=0.0, abs=1e-15), kind
            assert not pol.contains(m, tol=0.05), kind
            kinds.append(kind)
        assert kinds == ["rows", "columns", "invariance", "cells"]


class TestFactors:
    def make_diag_factor(self, masses):
        # level sets of the diagonal indicator on the 2x2 product
        gen = ((F(1), F(0)), (F(0), F(1)))
        return FactorSpec(generators=(gen,), cell_masses=tuple(masses))

    def test_factor_pins_the_joining(self):
        two = rotation(2)
        # cells ordered by smallest flat index: diagonal {0,3} first, then {1,2}
        factor = self.make_diag_factor([F(1, 4), F(3, 4)])
        pol = joining_polytope(two, two, factor)
        rep = relative_disjointness(pol)
        assert rep.disjoint
        assert abs(rep.unique_joining[0, 0] - 0.125) < 1e-9
        assert abs(rep.unique_joining[0, 1] - 0.375) < 1e-9

    def test_masses_must_be_a_probability(self):
        two = rotation(2)
        for masses in ([F(3, 2), F(-1, 2)], [F(3, 4), F(1, 2)]):
            with pytest.raises(ValueError):
                joining_polytope(two, two, self.make_diag_factor(masses))

    def test_infeasible_prescription_reported(self):
        two, three = rotation(2), rotation(3)
        # the row partition is invariant, but a 0.9 row mass contradicts the
        # marginal measure of the first point
        gen = ((F(1), F(1), F(1)), (F(0), F(0), F(0)))
        factor = FactorSpec(generators=(gen,), cell_masses=(F(9, 10), F(1, 10)))
        with pytest.raises(JoiningInfeasibleError):
            relative_disjointness(joining_polytope(two, three, factor))

    def test_noninvariant_partition_rejected(self):
        two = rotation(2)
        three = rotation(3)
        gen = tuple(tuple(F(1) if (x, y) == (0, 0) else F(0) for y in range(3)) for x in range(2))
        factor = FactorSpec(generators=(gen,), cell_masses=(F(1, 6), F(5, 6)))
        with pytest.raises(ValueError):
            joining_polytope(two, three, factor)

    def test_mass_count_mismatch(self):
        two = rotation(2)
        factor = self.make_diag_factor([F(1)])
        with pytest.raises(ValueError):
            joining_polytope(two, two, factor)


class TestCouplingAverages:
    def test_fixed_point_is_exact(self):
        a, b = rotation(2), rotation(3)
        product = product_coupling(a, b)
        avg = weighted_coupling_average(a, b, product, uniform(), 7)
        assert avg.matrix == product.matrix

    def test_period_six_average_exact(self):
        a, b = rotation(2), rotation(3)
        kappa = coupling_of(a, b, [["1/3", "1/6", "0"], ["0", "1/6", "1/3"]])
        avg = weighted_coupling_average(a, b, kappa, uniform(), 6)
        assert avg.matrix == product_coupling(a, b).matrix

    def test_linear_weights_near_product(self):
        a, b = rotation(2), rotation(3)
        kappa = coupling_of(a, b, [["1/3", "1/6", "0"], ["0", "1/6", "1/3"]])
        avg = weighted_coupling_average(a, b, kappa, power(1.0), 6000)
        dist = max(abs(float(v) - 1.0 / 6.0) for row in avg.matrix for v in row)
        assert dist < 1e-3

    def test_disjoint_pairs_average_to_unique_joining(self):
        # every starting coupling in the corpus is pulled to the unique
        # joining at index 1000 * (product size), under both weight families
        import itertools
        for na, nb in ((2, 3), (3, 4)):
            a, b = rotation(na), rotation(nb)
            rep = relative_disjointness(joining_polytope(a, b))
            assert rep.disjoint
            sweep = 1000 * na * nb
            corpus = [product_coupling(a, b)]
            # perturb the product in a 2x2 corner: row and column sums survive
            base = F(1, na * nb)
            bump = base / 2
            lopsided = [[base for _ in range(nb)] for _ in range(na)]
            lopsided[0][0] += bump
            lopsided[0][1] -= bump
            lopsided[1][0] -= bump
            lopsided[1][1] += bump
            corpus.append(coupling_of(a, b, lopsided))
            for kappa in corpus:
                for scheme in (uniform(), power(1.0)):
                    avg = weighted_coupling_average(a, b, kappa, scheme, sweep)
                    dist = float(
                        np.max(np.abs(avg.as_array() - rep.unique_joining))
                    )
                    assert dist < 1e-3

    def test_self_pair_averages_settle_in_polytope(self):
        # every coupling of the 2-cycle self-pair is already invariant, so the
        # plain average reproduces it; membership in the polytope is exact
        two = rotation(2)
        kappa = coupling_of(two, two, [["1/2", "0"], ["0", "1/2"]])
        pol = joining_polytope(two, two)
        avg = weighted_coupling_average(two, two, kappa, uniform(), 5)
        assert pol.residual(avg.as_array()) < 1e-12
        assert avg.matrix == kappa.matrix

    def test_moving_orbit_averages_to_unique_joining(self):
        # against the identity system the diagonal coupling has a period-2
        # orbit whose even-length averages land exactly on the unique joining
        two = rotation(2)
        still = PermutationSystem((0, 1), (F(1, 2), F(1, 2)))
        kappa = coupling_of(two, still, [["1/2", "0"], ["0", "1/2"]])
        rep = relative_disjointness(joining_polytope(two, still))
        assert rep.disjoint
        avg = weighted_coupling_average(two, still, kappa, uniform(), 4)
        assert avg.matrix == tuple((F(1, 4), F(1, 4)) for _ in range(2))
        assert np.max(np.abs(avg.as_array() - rep.unique_joining)) < 1e-9

    @pytest.mark.parametrize(
        "scheme",
        [uniform(), power(1.0), log_family(), custom([0.25, 2.0, 0.3, 0.0, 1.0] * 8)],
        ids=["uniform", "power", "log", "custom"],
    )
    def test_residue_sums_equal_stepping_oracle(self, scheme):
        a = PermutationSystem((1, 0, 3, 4, 2), (F(1, 4), F(1, 4), F(1, 6), F(1, 6), F(1, 6)))
        b = rotation(4)
        k1 = product_coupling(a, b)
        k2 = coupling_of(a, b, [
            ["1/4", "0", "0", "0"],
            ["0", "1/4", "0", "0"],
            ["0", "0", "1/12", "1/12"],
            ["0", "0", "1/6", "0"],
            ["0", "0", "0", "1/6"],
        ])
        for family, count in (([k2], 37), ([k1, k2], 40), ([k2, k1, k2], 7), ([k2], 1)):
            avg = weighted_coupling_average(a, b, family, scheme, count)
            assert avg.matrix == stepping_coupling_average(a, b, family, scheme, count)

    def test_short_custom_scheme_refused(self):
        # the stepping loop ran out of weights; summing residues must not
        # quietly average fewer steps than asked
        a, b = rotation(2), rotation(3)
        k = product_coupling(a, b)
        with pytest.raises(ValueError, match="custom scheme has 2 samples, needs 5"):
            weighted_coupling_average(a, b, k, custom([1.0, 1.0]), 5)
        avg = weighted_coupling_average(a, b, k, custom([1.0, 1.0]), 2)
        assert avg.matrix == stepping_coupling_average(a, b, k, custom([1.0, 1.0]), 2)

    @pytest.mark.parametrize(
        "scheme, count, message",
        [
            (uniform(), WEIGHT_COUNT_CAP + 1, "discrete weights exceed the cap"),
            (log_family(), 10**12, "discrete weights exceed the cap"),
            (custom([0.0, 0.0, 1.0]), 2, "weight normalizer must be positive"),
            (log_family(), LOG_WEIGHT_COUNT_CAP + 1, "exact log weights exceed the cap"),
        ],
        ids=["cap-plus-one", "huge", "zero-total", "log-cap-plus-one"],
    )
    def test_weights_refused_before_allocation(self, scheme, count, message):
        # the exact weights share the float weights' checks, which run before
        # any weight list is built
        a, b = rotation(2), rotation(3)
        with pytest.raises(SchemeError, match=message):
            weighted_coupling_average(a, b, product_coupling(a, b), scheme, count)

    def test_tiny_custom_sample_is_not_zero(self):
        # 1e-13 rounds to 0 on the 10**-12 grid; a positive weight is read
        # exactly instead, so a lone tiny sample weighs like any other
        assert _exact_weight(custom([1e-13]), 1)(1) == F(1e-13)
        weight = _exact_weight(custom([0.5, 1e-13, 0.0]), 3)
        assert [weight(n) for n in (1, 2, 3)] == [F(1, 2), F(1e-13), F(0)]
        a, b = rotation(2), rotation(3)
        k = coupling_of(a, b, [["1/3", "1/6", "0"], ["0", "1/6", "1/3"]])
        tiny = weighted_coupling_average(a, b, k, custom([1e-13]), 1)
        assert tiny.matrix == weighted_coupling_average(a, b, k, custom([1.0]), 1).matrix

    def test_rational_weights_round_to_discrete_weights(self):
        # drift guard: the exact formulas and the float ones are one family
        schemes = [uniform(), log_family(), custom([0.5, 0.0, 3.0, 0.125, 2.75] * 12)]
        for e in range(5):
            schemes += [power(e), voronoi(e)]
        for scheme in schemes:
            for count in range(1, 61):
                weight = _exact_weight(scheme, count)
                exact = [float(weight(n)) for n in range(1, count + 1)]
                assert exact == discrete_weights(scheme, count).tolist(), (scheme, count)

    def test_cycled_family(self):
        a, b = rotation(2), rotation(3)
        k1 = product_coupling(a, b)
        k2 = coupling_of(a, b, [["1/3", "1/6", "0"], ["0", "1/6", "1/3"]])
        avg = weighted_coupling_average(a, b, [k1, k2], uniform(), 12)
        assert pytest.approx(float(sum(sum(r) for r in avg.matrix))) == 1.0

    def test_marginal_violation_rejected(self):
        a, b = rotation(2), rotation(3)
        with pytest.raises(ValueError):
            weighted_coupling_average(
                a, b, Coupling(((F(1), F(0), F(0)), (F(0), F(0), F(0)))), uniform(), 3
            )

    def test_irrational_weights_rejected(self):
        a, b = rotation(2), rotation(3)
        with pytest.raises(ValueError):
            weighted_coupling_average(
                a, b, product_coupling(a, b), power(0.5), 5
            )
