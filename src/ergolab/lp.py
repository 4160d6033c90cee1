"""A small dense simplex solver for equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0 by the classic two-phase tableau
method.  Pivots follow Bland's rule (smallest eligible index enters, ties on
the ratio test break toward the smallest basic index), which cannot cycle, so
the solver is deterministic and terminating.  Redundant equality rows are
detected and dropped at the end of phase one.

Problem sizes here are tiny (tens of variables), so clarity and determinism
beat sparse cleverness.  A brute-force vertex enumerator over basis column
subsets doubles as an independent cross-check for uniqueness certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import List, Optional, Tuple

import numpy as np

FEASIBILITY_TOL = 1e-9
MAX_ITER = 20000  # iterations per phase; Bland's rule terminates, so reaching it is a bug

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    """Internal failure (iteration cap) that Bland's rule should preclude."""


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tableau: np.ndarray, basis: List[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _bland_iterate(
    tableau: np.ndarray,
    basis: List[int],
    cost: np.ndarray,
    ncols: int,
) -> str:
    """Run simplex iterations on the m x (ncols+1) tableau for the given cost.

    ``cost`` is the reduced-cost row (updated in place); the last tableau
    column is the right-hand side.
    """
    for _ in range(MAX_ITER):
        entering = -1
        for j in range(ncols):
            if cost[j] < -FEASIBILITY_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best = np.inf
        for i in range(tableau.shape[0]):
            a = tableau[i, entering]
            if a > FEASIBILITY_TOL:
                ratio = tableau[i, -1] / a
                if (
                    leaving < 0
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)
        cost -= cost[entering] * tableau[leaving]
    raise SimplexError("iteration cap exceeded")


def simplex_minimize(objective, a_eq, b_eq) -> LPResult:
    """Minimize objective . x over {A x = b, x >= 0}, to within ``FEASIBILITY_TOL``."""
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    c = np.asarray(objective, dtype=float)
    if a.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # phase one: minimize the sum of artificial variables
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    cost = np.zeros(n + m)
    cost[:n] = -a.sum(axis=0)
    phase1_value = -b.sum()
    # track the objective value alongside the cost row
    full = np.hstack([cost, [phase1_value]])
    status = _bland_iterate(tableau, basis, full, n + m)
    if status != OPTIMAL:
        raise SimplexError("phase one cannot be unbounded")
    if -full[-1] > FEASIBILITY_TOL:
        return LPResult(INFEASIBLE, None, None)

    # drive artificial variables out of the basis; drop redundant rows
    keep = []
    for i in range(len(basis)):
        if basis[i] < n:
            keep.append(i)
            continue
        pivot_col = -1
        for j in range(n):
            if abs(tableau[i, j]) > FEASIBILITY_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            _pivot(tableau, basis, i, pivot_col)
            keep.append(i)
        # else: the row is redundant and dropped below
    tableau = np.hstack([tableau[keep][:, :n], tableau[keep][:, -1:]])
    basis = [basis[i] for i in keep]

    # phase two
    cost_row = np.hstack([c, [0.0]]).astype(float)
    for i, var in enumerate(basis):
        if cost_row[var] != 0.0:
            cost_row -= cost_row[var] * tableau[i]
    status = _bland_iterate(tableau, basis, cost_row, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    x[np.abs(x) < FEASIBILITY_TOL] = 0.0
    return LPResult(OPTIMAL, x, float(c @ x))


def coordinate_range(a_eq, b_eq, coordinate: int) -> Tuple[LPResult, LPResult]:
    """Minimize and maximize one coordinate over the feasible polytope."""
    a = np.asarray(a_eq, dtype=float)
    n = a.shape[1]
    c = np.zeros(n)
    c[coordinate] = 1.0
    low = simplex_minimize(c, a_eq, b_eq)
    high = simplex_minimize(-c, a_eq, b_eq)
    return low, high


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
