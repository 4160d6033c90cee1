"""An exact simplex solver for equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0 over ``Fraction`` by the two-phase
tableau method, with no tolerance anywhere.  Phase one (``feasible_tableau``)
finds a feasible basis or proves that none exists; phase two
(``simplex_minimize``) starts from a copy of it, so several objectives over
one polytope share one phase one.  Pivots follow Bland's rule (smallest
eligible index enters, ratio ties leave toward the smallest basic index),
which cannot cycle in exact arithmetic: the solver is deterministic and
terminates.  The programs here are orbit quotients of a few unknowns, so a
dense tableau of Python rows is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Tableau:
    """A feasible basis of {A x = b, x >= 0}: the rows of B^-1 [A | b] and
    the basic column of each row."""

    rows: Tuple[Tuple[Fraction, ...], ...]
    basis: Tuple[int, ...]
    columns: int


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Optional[Tuple[Fraction, ...]]
    objective: Optional[Fraction]


def _pivot(rows: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    lead = rows[row]
    scale = lead[col]
    lead[:] = [v / scale for v in lead]
    for r, other in enumerate(rows):
        factor = other[col]
        if r != row and factor:
            other[:] = [a - factor * b for a, b in zip(other, lead)]
    basis[row] = col


def _bland_iterate(
    rows: List[List[Fraction]], basis: List[int], cost: List[Fraction], ncols: int
) -> str:
    """Pivot until no reduced cost among the first ``ncols`` is negative.

    ``cost`` is the reduced-cost row, updated in place; the last entry of
    every row is its right-hand side.
    """
    while True:
        entering = next((j for j in range(ncols) if cost[j] < 0), None)
        if entering is None:
            return OPTIMAL
        leaving, best = None, None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if leaving is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving, best = i, ratio
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, basis, leaving, entering)
        factor = cost[entering]
        cost[:] = [a - factor * b for a, b in zip(cost, rows[leaving])]


def feasible_tableau(a_eq: Sequence[Sequence], b_eq: Sequence) -> Optional[Tableau]:
    """Phase one: a feasible basis of {A x = b, x >= 0}, or None when it is empty.

    Entries are read as exact ``Fraction``s (a float as the binary rational
    it stores).  The sum of one artificial variable per row is minimized;
    the system is feasible exactly when that minimum is 0.  Artificials left
    basic at value 0 are pivoted out, and a row with nothing left to pivot
    on is redundant and dropped.
    """
    a = [[Fraction(v) for v in row] for row in a_eq]
    b = [Fraction(v) for v in b_eq]
    m, n = len(a), len(a[0]) if a else 0
    if not m or len(b) != m or any(len(row) != n for row in a):
        raise ValueError("inconsistent LP dimensions")
    rows = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        sign = -1 if rhs < 0 else 1
        rows.append([sign * v for v in row] + [Fraction(k == i) for k in range(m)] + [sign * rhs])
    basis = list(range(n, n + m))
    cost = [-sum(column) for column in zip(*rows)]
    cost[n:-1] = [Fraction(0)] * m
    _bland_iterate(rows, basis, cost, n + m)  # bounded below by 0
    if cost[-1]:
        return None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                continue
            _pivot(rows, basis, i, col)
        keep.append(i)
    return Tableau(tuple(tuple(rows[i][:n] + rows[i][-1:]) for i in keep),
                   tuple(basis[i] for i in keep), n)


def simplex_minimize(objective: Sequence, start: Tableau) -> LPResult:
    """Phase two: minimize objective . x over the polytope of ``start``,
    which is left unchanged for the next objective."""
    n = start.columns
    c = [Fraction(v) for v in objective]
    if len(c) != n:
        raise ValueError("inconsistent LP dimensions")
    rows = [list(row) for row in start.rows]
    basis = list(start.basis)
    cost = c + [Fraction(0)]
    for row, var in zip(rows, basis):
        factor = cost[var]
        cost = [a - factor * b for a, b in zip(cost, row)]
    if _bland_iterate(rows, basis, cost, n) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for row, var in zip(rows, basis):
        x[var] = row[-1]
    return LPResult(OPTIMAL, tuple(x), sum(ci * xi for ci, xi in zip(c, x)))
