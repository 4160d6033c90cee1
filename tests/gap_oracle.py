"""The exhaustive gap walk, kept as an independent oracle for ``gap_scan``.

This is the gap scan as it was before candidate-tuple pruning: it evaluates
every tuple of the lattice with the same leaf arithmetic, so the pruned scan
must reproduce its violations, thresholds and counterexamples exactly.  Its
``evaluated`` count is the lattice size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ergolab.dual import AlgebraElement
from ergolab.mixing import (
    GapScanResult,
    StateOrStates,
    Violation,
    _as_states,
    _check_permutation,
)
from ergolab.words import merge_runs


def _mul_terms(t1: Dict[tuple, complex], t2: Dict[tuple, complex]) -> Dict[tuple, complex]:
    acc: Dict[tuple, complex] = {}
    for ru, cu in t1.items():
        for rv, cv in t2.items():
            w = merge_runs(ru, rv)
            c = acc.get(w, 0.0) + cu * cv
            acc[w] = c
    return {w: c for w, c in acc.items() if abs(c) > 1e-14}


def _instantiate(factors: list, pos: int, terms: Dict[tuple, complex]) -> list:
    out = list(factors)
    idx = out.index(pos)
    out[idx] = terms
    if idx > 0 and isinstance(out[idx - 1], dict):
        out[idx - 1 : idx + 1] = [_mul_terms(out[idx - 1], out[idx])]
        idx -= 1
    if idx + 1 < len(out) and isinstance(out[idx + 1], dict):
        out[idx : idx + 2] = [_mul_terms(out[idx], out[idx + 1])]
    return out


def exhaustive_gap_scan(
    states: StateOrStates,
    operators: Sequence[AlgebraElement],
    permutation: Optional[Sequence[int]] = None,
    scan_window: int = 40,
    gap_max: int = 40,
    zero_tol: float = 1e-12,
) -> GapScanResult:
    """Exhaustively locate correlation-difference violations on a gap lattice.

    Scans every tuple n_1 < ... < n_k with n_1 <= scan_window and consecutive
    gaps <= gap_max (all gaps at least 1).  Operator j is shifted by
    n_{permutation[j]}.
    """
    ops = list(operators)
    state_list = _as_states(states)
    k = len(ops)
    if not 1 <= k <= 5:
        raise ValueError("gap scan supports 1..5 operators")
    if scan_window < 1 or gap_max < 1:
        raise ValueError("scan window and gap bound must be positive")
    perm = _check_permutation(permutation, k)

    horizon = scan_window + (k - 1) * gap_max
    shift_tables = [
        [None] + [op.shifted(n)._terms for n in range(1, horizon + 1)] for op in ops
    ]
    e_parts = [op.finite_orbit_part() for op in ops]
    e_dead = any(not part for part in e_parts)
    e_tables = (
        None
        if e_dead
        else [
            [None] + [part.shifted(n)._terms for n in range(1, horizon + 1)]
            for part in e_parts
        ]
    )

    profiles = [s.runs_profile() for s in state_list]
    pooled: Dict[tuple, list] = {}
    for si, prof in enumerate(profiles):
        for runs, value in prof.items():
            pooled.setdefault(runs, []).append((si, value))
    target_lens = frozenset(len(runs) for runs in pooled)

    slot_pos = [perm.index(r) for r in range(k)]
    single = [len(op._terms) == 1 for op in ops]
    violations: List[Violation] = []
    times = [0] * k
    n_states = len(state_list)

    unit = {(): 1.0 + 0.0j}
    fast_tables = [None] * k
    for pos in range(k):
        if single[pos]:
            rows = [None]
            for n in range(1, horizon + 1):
                ((m_runs, m_c),) = shift_tables[pos][n].items()
                rows.append(
                    (
                        m_runs,
                        m_c,
                        m_runs[0][:2] if m_runs else None,
                        m_runs[-1][:2] if m_runs else None,
                        len(m_runs),
                    )
                )
            fast_tables[pos] = rows

    def leaf_general(base_n: int, lo_width: int, pos: int, fq: list, fe) -> None:
        idx = fq.index(pos)
        left = fq[idx - 1] if idx > 0 else unit
        right = fq[idx + 1] if idx + 1 < len(fq) else unit
        q_dead = not left or not right
        if fe is not None:
            eidx = fe.index(pos)
            eleft = fe[eidx - 1] if eidx > 0 else unit
            eright = fe[eidx + 1] if eidx + 1 < len(fe) else unit
            e_live = bool(eleft) and bool(eright)
        else:
            e_live = False
        table = shift_tables[pos]
        for g in range(1, lo_width + 1):
            n = base_n + g
            times[k - 1] = n
            diff = [0.0 + 0.0j] * n_states
            if not q_dead:
                for la, ca in left.items():
                    for lm, cm in table[n].items():
                        am = merge_runs(la, lm)
                        cam = ca * cm
                        for lb, cb in right.items():
                            hits = pooled.get(merge_runs(am, lb))
                            if hits:
                                c = cam * cb
                                for si, v in hits:
                                    diff[si] += c * v
            if e_live:
                etable = e_tables[pos]
                for la, ca in eleft.items():
                    for lm, cm in etable[n].items():
                        am = merge_runs(la, lm)
                        cam = ca * cm
                        for lb, cb in eright.items():
                            hits = pooled.get(merge_runs(am, lb))
                            if hits:
                                c = cam * cb
                                for si, v in hits:
                                    diff[si] -= c * v
            snapshot = None
            for si in range(n_states):
                mag = abs(diff[si])
                if mag > zero_tol:
                    if snapshot is None:
                        snapshot = tuple(times)
                    violations.append(Violation(snapshot, si, mag))

    def leaf_fast(base_n: int, lo_width: int, pos: int, fq: list) -> None:
        idx = fq.index(pos)
        left = fq[idx - 1] if idx > 0 else None
        right = fq[idx + 1] if idx + 1 < len(fq) else None
        ((a_runs, a_c),) = left.items() if left else (((), 1.0),)
        ((b_runs, b_c),) = right.items() if right else (((), 1.0),)
        a_last = a_runs[-1][:2] if a_runs else None
        b_first = b_runs[0][:2] if b_runs else None
        len_ab = len(a_runs) + len(b_runs)
        base_c = a_c * b_c
        fast = fast_tables[pos]
        pooled_get = pooled.get
        lens = target_lens
        last = k - 1
        for g in range(1, lo_width + 1):
            n = base_n + g
            m_runs, m_c, m_first, m_last, m_len = fast[n]
            if m_len and a_last != m_first and m_last != b_first:
                if len_ab + m_len not in lens:
                    continue
                w = a_runs + m_runs + b_runs
            else:
                w = merge_runs(a_runs, m_runs, b_runs)
            hits = pooled_get(w)
            if hits:
                times[last] = n
                snapshot = tuple(times)
                c = base_c * m_c
                for si, v in hits:
                    mag = abs(c * v)
                    if mag > zero_tol:
                        violations.append(Violation(snapshot, si, mag))

    def walk(r: int, n_prev: int, fq: list, fe) -> None:
        pos = slot_pos[r]
        width = scan_window if r == 0 else gap_max
        if r == k - 1:
            fast_ok = (
                e_dead
                and single[pos]
                and all(
                    isinstance(f, dict) and len(f) == 1 for f in fq if not isinstance(f, int)
                )
            )
            if fast_ok:
                leaf_fast(n_prev, width, pos, fq)
            else:
                leaf_general(n_prev, width, pos, fq, fe)
            return
        table = shift_tables[pos]
        etable = e_tables[pos] if fe is not None else None
        for g in range(1, width + 1):
            n = n_prev + g
            times[r] = n
            walk(
                r + 1,
                n,
                _instantiate(fq, pos, table[n]),
                _instantiate(fe, pos, etable[n]) if fe is not None else None,
            )

    initial = list(range(k))
    walk(0, 0, initial, None if e_dead else list(range(k)))

    scanned = scan_window * gap_max ** (k - 1)
    # a threshold G is certifiable only if tuples with all gaps >= G were
    # scanned at all; for k = 1 the only gap is the first time itself
    widest = scan_window if k == 1 else min(scan_window, gap_max)
    if not violations:
        return GapScanResult(1, None, (), scanned, scan_window, gap_max, scanned)
    worst = max(v.min_gap for v in violations)
    if worst + 1 <= widest:
        return GapScanResult(
            worst + 1, None, tuple(violations), scanned, scan_window, gap_max, scanned
        )
    witness = next(v for v in violations if v.min_gap == worst)
    return GapScanResult(
        None, witness.times, tuple(violations), scanned, scan_window, gap_max, scanned
    )
