import random
from fractions import Fraction as F

import numpy as np
import pytest

from ergolab.lp import OPTIMAL, UNBOUNDED, feasible_tableau, simplex_minimize
from vertex_oracle import polytope_vertices


def minimize(objective, a, b):
    start = feasible_tableau(a, b)
    assert start is not None
    return simplex_minimize(objective, start)


def coordinate_range(a, b, coordinate):
    """Minimize and maximize one coordinate from a single phase one."""
    start = feasible_tableau(a, b)
    unit = [0] * len(a[0])
    unit[coordinate] = 1
    return simplex_minimize(unit, start), simplex_minimize([-u for u in unit], start)


class TestSimplex:
    def test_probability_simplex(self):
        # min x0 + 2 x1 + 3 x2 over the standard simplex
        res = minimize([1, 2, 3], [[1, 1, 1]], [1])
        assert res.status == OPTIMAL
        assert res.x == (1, 0, 0)
        assert res.objective == 1

    def test_maximize_by_negation(self):
        res = minimize([-1, -2, -3], [[1, 1, 1]], [1])
        assert res.x == (0, 0, 1)
        assert res.objective == -3

    def test_infeasible(self):
        assert feasible_tableau([[1, 1], [1, 1]], [1, 2]) is None

    def test_negative_rhs_infeasible(self):
        assert feasible_tableau([[1, 1]], [-1]) is None

    def test_negative_rhs_feasible(self):
        # the row is negated for phase one; the solution is unchanged
        res = minimize([1, 0], [[-1, -1]], [F(-1, 3)])
        assert res.x == (0, F(1, 3))

    def test_redundant_rows(self):
        a = [[1, 1], [2, 2], [1, 0]]
        start = feasible_tableau(a, [1, 2, F(1, 4)])
        assert len(start.rows) == 2
        res = simplex_minimize([0, 1], start)
        assert res.status == OPTIMAL
        assert res.x == (F(1, 4), F(3, 4))

    def test_unbounded(self):
        res = minimize([-1], [[0]], [0])
        assert res.status == UNBOUNDED
        assert res.x is None

    def test_degenerate_transportation(self):
        # 2x2 transportation polytope with a forced unique solution
        a = [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ]
        res = minimize([0, 0, 0, 0], a, [1, 0, 1, 0])
        assert res.status == OPTIMAL
        assert res.x == (1, 0, 0, 0)

    def test_floats_are_read_exactly(self):
        # 0.1 is the binary rational it stores, not 1/10
        res = minimize([-1, 0], [[1, 1]], [0.1])
        assert res.x[0] == F(0.1) != F(1, 10)

    def test_start_is_reused_unchanged(self):
        start = feasible_tableau([[1, 1, 1]], [1])
        first = simplex_minimize([-1, 0, 0], start)
        assert simplex_minimize([0, 0, -1], start).x == (0, 0, 1)
        assert simplex_minimize([-1, 0, 0], start) == first

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feasible_tableau([[1, 1], [1]], [1, 1])
        with pytest.raises(ValueError):
            simplex_minimize([1], feasible_tableau([[1, 1]], [1]))


class TestCoordinateRange:
    def test_interval(self):
        # x0 + x1 = 1: each coordinate spans [0, 1]
        low, high = coordinate_range([[1, 1]], [1], 0)
        assert low.x[0] == 0
        assert high.x[0] == 1


class TestVertexEnumeration:
    def test_simplex_vertices(self):
        a = np.ones((1, 3))
        b = np.array([1.0])
        verts = {tuple(np.round(v, 9)) for v in polytope_vertices(a, b)}
        assert verts == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_budget_guard(self):
        a = np.ones((18, 40))
        with pytest.raises(ValueError):
            polytope_vertices(a, np.ones(18), max_bases=10)

    def test_agrees_with_simplex_on_random_transportation(self):
        rng = random.Random(7)
        for _ in range(15):
            na, nb = rng.randint(2, 3), rng.randint(2, 3)
            mu = [rng.randint(1, 4) for _ in range(na)]
            nu_total = sum(mu)
            # split the same total across the columns
            cuts = sorted(rng.randint(0, nu_total) for _ in range(nb - 1))
            nu = [b - a for a, b in zip([0] + cuts, cuts + [nu_total])]
            if min(nu) == 0:
                continue
            rows = []
            for i in range(na):
                rows.append([int(i * nb <= k < (i + 1) * nb) for k in range(na * nb)])
            for j in range(nb):
                rows.append([int(k % nb == j) for k in range(na * nb)])
            rhs = mu + nu
            verts = polytope_vertices(np.array(rows, dtype=float), np.array(rhs, dtype=float))
            assert verts
            for c in range(na * nb):
                low, high = coordinate_range(rows, rhs, c)
                assert low.status == OPTIMAL and high.status == OPTIMAL
                # integer margins make every vertex integral, so the oracle's
                # floats round to the exact range
                vlow = min(v[c] for v in verts)
                vhigh = max(v[c] for v in verts)
                assert abs(vlow - round(vlow)) < 1e-9 and abs(vhigh - round(vhigh)) < 1e-9
                assert (low.x[c], high.x[c]) == (round(vlow), round(vhigh))
