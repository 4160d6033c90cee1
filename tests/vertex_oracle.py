"""Brute-force vertex enumeration, kept as an independent oracle for the simplex.

It shares no code with ``ergolab.lp``: it solves every square subsystem of
the float constraints by least squares and keeps the feasible basic
solutions, so it checks the exact certificates of
``joinings.relative_disjointness`` from outside, within ``FEASIBILITY_TOL``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import List

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


def joining_vertices(polytope) -> List[np.ndarray]:
    """Vertex list of a ``JoiningPolytope``, each as an na x nb matrix."""
    na, nb = polytope.left.size, polytope.right.size
    return [v.reshape(na, nb) for v in polytope_vertices(polytope.a_eq, polytope.b_eq)]
