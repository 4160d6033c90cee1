"""Brute-force vertex enumeration, kept as an independent oracle for the simplex.

It shares no code with ``ergolab.lp`` or with the library's constraint
assembly: ``dense_constraints`` writes the joining equalities out over all
na·nb cells, as floats, from the two systems and the factor cells, and
``polytope_vertices`` solves every square subsystem by least squares and
keeps the feasible basic solutions.  So it checks the exact certificates of
``joinings.relative_disjointness`` from outside, within ``FEASIBILITY_TOL``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import List, Tuple

import numpy as np

FEASIBILITY_TOL = 1e-9


def polytope_vertices(a_eq, b_eq, max_bases: int = 200000) -> List[np.ndarray]:
    """All vertices of {A x = b, x >= 0} by brute-force basis enumeration.

    Enumerates every column subset of size rank(A), solves the square
    subsystem and keeps feasible basic solutions.  Exponential by nature;
    guarded by ``max_bases`` and meant for small cross-checks only.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    m, n = a.shape
    svals = np.linalg.svd(a, compute_uv=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    rank = int(np.sum(svals > 1e-11 * scale))
    if rank == 0:
        return [np.zeros(n)] if np.max(np.abs(b)) <= FEASIBILITY_TOL else []
    if comb(n, rank) > max_bases:
        raise ValueError(
            f"vertex enumeration over C({n},{rank}) bases exceeds the budget"
        )
    seen = {}
    for cols in combinations(range(n), rank):
        sub = a[:, cols]
        x_sub, _, rk, _ = np.linalg.lstsq(sub, b, rcond=None)
        if rk < rank:
            continue
        if np.max(np.abs(sub @ x_sub - b)) > FEASIBILITY_TOL:
            continue
        if np.min(x_sub) < -FEASIBILITY_TOL:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(x_sub, 0.0, None)
        key = tuple(np.round(x / FEASIBILITY_TOL).astype(np.int64))
        seen.setdefault(key, x)
    return list(seen.values())


def dense_constraints(polytope) -> Tuple[np.ndarray, np.ndarray]:
    """(A, b) over the flat (row-major) cells of a ``JoiningPolytope``: one row
    per marginal point, one e_dst - e_src per point that the product
    permutation moves, and one per factor cell."""
    left, right = polytope.left, polytope.right
    na, nb = left.size, right.size
    rows, rhs = [], []
    for x in range(na):
        row = np.zeros(na * nb)
        row[x * nb : (x + 1) * nb] = 1.0
        rows.append(row)
        rhs.append(float(left.measure[x]))
    for y in range(nb):
        row = np.zeros(na * nb)
        row[y::nb] = 1.0
        rows.append(row)
        rhs.append(float(right.measure[y]))
    for x in range(na):
        for y in range(nb):
            src, dst = x * nb + y, left.permutation[x] * nb + right.permutation[y]
            if src != dst:
                row = np.zeros(na * nb)
                row[dst], row[src] = 1.0, -1.0
                rows.append(row)
                rhs.append(0.0)
    for cell, mass in zip(polytope.cells, polytope.cell_masses):
        row = np.zeros(na * nb)
        row[list(cell)] = 1.0
        rows.append(row)
        rhs.append(float(mass))
    return np.array(rows), np.array(rhs)


def dense_residual(polytope, matrix) -> float:
    """max|Ax - b| of a matrix over ``dense_constraints``."""
    a, b = dense_constraints(polytope)
    return float(np.max(np.abs(a @ np.asarray(matrix, dtype=float).reshape(-1) - b)))


def joining_vertices(polytope) -> List[np.ndarray]:
    """Vertex list of a ``JoiningPolytope``, each as an na x nb matrix."""
    na, nb = polytope.left.size, polytope.right.size
    return [v.reshape(na, nb) for v in polytope_vertices(*dense_constraints(polytope))]
