"""Mixing diagnostics for the dual system.

Everything here evaluates states on products of shifted algebra elements:
decay of a single shifted element toward its finite-orbit part, multitime
correlations, an exhaustive gap scan certifying where a correlation
difference vanishes, and the diagonal / double recurrence averages against
the canonical trace.

The gap scan certifies its whole window: every time tuple with bounded first
time and bounded consecutive gaps is accounted for, and every tuple where
some state separates the product from its finite-orbit image is recorded.
Only the candidate tuples are evaluated, those where some term choice can
land every infinite-orbit letter on the pooled state support or cancel it
against another factor; on every other tuple each value is exactly zero.  A
fast path covers the dominant case (single-term operators whose finite-orbit
image vanishes) by looking words up in the pooled support table of the
states; the general path multiplies term maps directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .dual import AlgebraElement, State
from .words import merge_runs

StateOrStates = Union[State, Sequence[State]]


def _as_states(states: StateOrStates) -> List[State]:
    if isinstance(states, State):
        return [states]
    out = list(states)
    if not out:
        raise ValueError("need at least one state")
    return out


def decay_sequence(state: State, element: AlgebraElement, n_max: int) -> List[complex]:
    """Values of the state on shifts of (element - finite-orbit part), n = 1..n_max."""
    deficiency = element - element.finite_orbit_part()
    return [state(deficiency.shifted(n)) for n in range(1, n_max + 1)]


def _ordered_product(
    operators: Sequence[AlgebraElement],
    times: Sequence[int],
    permutation: Sequence[int],
) -> AlgebraElement:
    result = None
    for j, op in enumerate(operators):
        factor = op.shifted(times[permutation[j]])
        result = factor if result is None else result * factor
    return result


def _check_permutation(permutation: Optional[Sequence[int]], k: int) -> Tuple[int, ...]:
    if permutation is None:
        return tuple(range(k))
    perm = tuple(permutation)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"permutation must reorder 0..{k - 1}, got {perm}")
    return perm


def correlation(
    state: State,
    operators: Sequence[AlgebraElement],
    times: Sequence[int],
    permutation: Optional[Sequence[int]] = None,
) -> complex:
    """State value of the product of operators at permuted times.

    Operator j is shifted by times[permutation[j]]; with the identity
    permutation this is the plain multitime correlation.
    """
    ops = list(operators)
    if len(ops) != len(times):
        raise ValueError("operators and times must have equal length")
    if not ops:
        raise ValueError("need at least one operator")
    perm = _check_permutation(permutation, len(ops))
    return state(_ordered_product(ops, list(times), perm))


def correlation_difference(
    state: State,
    operators: Sequence[AlgebraElement],
    times: Sequence[int],
    permutation: Optional[Sequence[int]] = None,
) -> complex:
    """Correlation minus the same correlation of the finite-orbit images."""
    ops = list(operators)
    if len(ops) != len(times):
        raise ValueError("operators and times must have equal length")
    perm = _check_permutation(permutation, len(ops))
    plain = state(_ordered_product(ops, list(times), perm))
    parts = [op.finite_orbit_part() for op in ops]
    if any(not part for part in parts):
        return plain
    return plain - state(_ordered_product(parts, list(times), perm))


# -- gap scan -------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A scanned time tuple where some state sees a nonzero difference."""

    times: Tuple[int, ...]
    state_index: int
    magnitude: float

    @property
    def min_gap(self) -> int:
        gaps = [self.times[0]]
        gaps.extend(b - a for a, b in zip(self.times, self.times[1:]))
        return min(gaps)


@dataclass(frozen=True)
class GapScanResult:
    """Outcome of an exhaustive scan over a bounded time-tuple window.

    ``threshold`` is the least G such that every scanned tuple whose first
    time and consecutive gaps are all >= G has difference exactly zero; it is
    None when even the largest scanned gap admits a violation, in which case
    ``counterexample`` holds one such tuple.  ``scanned`` is the size of the
    certified lattice and ``evaluated`` the number of its tuples whose
    difference was actually computed (the candidate tuples).
    """

    threshold: Optional[int]
    counterexample: Optional[Tuple[int, ...]]
    violations: Tuple[Violation, ...]
    scanned: int
    scan_window: int
    gap_max: int
    evaluated: int


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


def gap_scan(
    states: StateOrStates,
    operators: Sequence[AlgebraElement],
    permutation: Optional[Sequence[int]] = None,
    scan_window: int = 40,
    gap_max: int = 40,
    zero_tol: float = 1e-12,
) -> GapScanResult:
    """Exhaustively locate correlation-difference violations on a gap lattice.

    Certifies every tuple n_1 < ... < n_k with n_1 <= scan_window and
    consecutive gaps <= gap_max (all gaps at least 1); operator j is shifted
    by n_{permutation[j]}.  The walk evaluates only the candidate tuples,
    where some term choice can put every infinite-orbit letter on the pooled
    state support or cancel it against another factor; every other tuple has
    difference exactly zero.  ``scanned`` reports the lattice size and
    ``evaluated`` the candidate tuples computed.
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

    # Candidate tuples rest on two facts.  In a product of reduced words a
    # cancelled letter always pairs with a letter of a *different* factor
    # (each shifted factor stays reduced, the shift being a bijection on
    # symbols).  And a shift-family run f[i]^e of operator j lands at index
    # i + n_j.  So each infinite-orbit run of a chosen term either survives,
    # and then the word can be in a state's support only if f[i + n_j] occurs
    # in the pooled support (an anchor), or it meets an opposite-sign run
    # f[i']^e' of another operator q, which needs n_j - n_q = i' - i.  When
    # no term choice covers all its infinite runs that way, every product
    # word is outside every support and every value is exactly 0.  Slots
    # advance by 1..gap_max, so a partner whose slot lies s slots away must
    # have 1*s <= |n_j - n_q| <= gap_max*s in the right direction.  A run is
    # kept as (times of its operator that anchor it, partners (q, i' - i)).
    def reachable(slots: int, lead: int) -> bool:
        """Can the time `slots` slots later (or earlier, if < 0) be `lead` later?"""
        return slots * lead > 0 and abs(slots) <= abs(lead) <= abs(slots) * gap_max

    anchors: Dict[str, set] = {}
    for runs in pooled:
        for fam, idx, _ in runs:
            anchors.setdefault(fam, set()).add(idx)
    infinite_runs = [
        [
            [run for run in runs if op.alphabet._lengths[run[0]] is None]
            for runs in op._terms
        ]
        for op in ops
    ]
    covers = []
    for j, op_runs in enumerate(infinite_runs):
        terms = []
        for runs in op_runs:
            term = []
            for fam, idx, exp in runs:
                partners = {
                    (q, idx2 - idx)
                    for q in range(k)
                    if q != j
                    for runs2 in infinite_runs[q]
                    for fam2, idx2, exp2 in runs2
                    if fam2 == fam
                    and (exp2 > 0) != (exp > 0)
                    and reachable(perm[q] - perm[j], idx - idx2)
                }
                atimes = frozenset(a - idx for a in anchors.get(fam, ()))
                term.append((atimes, tuple(sorted(partners))))
            terms.append(tuple(term))
        covers.append(terms)
    # with a live E-side, choices of finite-orbit terms only contribute the
    # same to both sides, so only the infinite-orbit terms need covering
    infinite_covers = [[term for term in terms if term] for terms in covers]

    def run_times(run, j: int, pos: int, r: int):
        """Times of operator pos, in slot r, at which a run of operator j is covered.

        Operators in slots before r are fixed.  None means any time: the run
        is covered already, or it is a run of pos that a partner in a later
        slot can still cover.
        """
        atimes, partners = run
        if j == pos:
            out = set(atimes)
            for q, d in partners:
                if perm[q] > r:
                    return None
                out.add(times[perm[q]] + d)
            return out
        n_j = times[perm[j]]
        if n_j in atimes:
            return None
        out = set()
        for q, d in partners:
            s = perm[q]
            if q == pos:
                out.add(n_j - d)
            elif s > r:
                # the partner must come at n_j - d, s - r slots after this one
                n_q = n_j - d
                out.update(range(n_q - (s - r) * gap_max, n_q - (s - r) + 1))
            elif n_j - times[s] == d:
                return None
        return out

    def op_times(terms: list, j: int, pos: int, r: int):
        """Times of operator pos at which some term of operator j is covered."""
        out: set = set()
        for term in terms:
            common = None
            for run in term:
                allowed = run_times(run, j, pos, r)
                if allowed is not None:
                    common = allowed if common is None else common & allowed
                    if not common:
                        break
            if common is None:
                return None
            out |= common
        return out

    def candidate_times(r: int, lo: int, hi: int):
        """Increasing times in lo..hi for slot r that can still reach a support."""
        pos = slot_pos[r]
        if e_dead:
            # the slot's operator and every fixed one must keep a covered term
            allowed = op_times(covers[pos], pos, pos, r)
            for j in slot_pos[:r]:
                if allowed is not None and not allowed:
                    break
                more = op_times(covers[j], j, pos, r)
                if more is not None:
                    allowed = more if allowed is None else allowed & more
        elif r == k - 1:
            # some infinite-orbit term, of any operator, must be covered
            allowed = set()
            for j in range(k):
                more = op_times(infinite_covers[j], j, pos, r)
                if more is None:
                    allowed = None
                    break
                allowed |= more
        else:
            allowed = None
        if allowed is None:
            return range(lo, hi + 1)
        return sorted(n for n in allowed if lo <= n <= hi)

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

    def leaf_general(domain, pos: int, fq: list, fe) -> None:
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
        for n in domain:
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

    def leaf_fast(domain, pos: int, fq: list) -> None:
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
        for n in domain:
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

    evaluated = 0

    def walk(r: int, n_prev: int, fq: list, fe) -> None:
        nonlocal evaluated
        pos = slot_pos[r]
        width = scan_window if r == 0 else gap_max
        domain = candidate_times(r, n_prev + 1, n_prev + width)
        if r == k - 1:
            evaluated += len(domain)
            fast_ok = (
                e_dead
                and single[pos]
                and all(
                    isinstance(f, dict) and len(f) == 1 for f in fq if not isinstance(f, int)
                )
            )
            if fast_ok:
                leaf_fast(domain, pos, fq)
            else:
                leaf_general(domain, pos, fq, fe)
            return
        table = shift_tables[pos]
        etable = e_tables[pos] if fe is not None else None
        for n in domain:
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
        return GapScanResult(1, None, (), scanned, scan_window, gap_max, evaluated)
    worst = max(v.min_gap for v in violations)
    if worst + 1 <= widest:
        return GapScanResult(
            worst + 1, None, tuple(violations), scanned, scan_window, gap_max, evaluated
        )
    witness = next(v for v in violations if v.min_gap == worst)
    return GapScanResult(
        None, witness.times, tuple(violations), scanned, scan_window, gap_max, evaluated
    )


# -- recurrence averages -----------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceAverage:
    """Diagonal recurrence average of a positive element against the trace."""

    average: complex
    comparison: float
    values: Tuple[complex, ...]

    @property
    def positive(self) -> bool:
        return abs(self.average.imag) < 1e-12 and self.average.real > 0


def furstenberg_average(
    factor: AlgebraElement, order: int, sweep: int, absolute: bool = True
) -> RecurrenceAverage:
    """Trace average of a * shift^n(a) * ... * shift^{kn}(a) for a = factor factor*.

    Positivity of a holds by construction from the supplied factor.  Returns
    the running data and the trace of the (order+1)-th power of the
    finite-orbit part, which the average should dominate for large sweeps.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if sweep < 1:
        raise ValueError("sweep must be at least 1")
    a = factor * factor.adjoint()
    values: List[complex] = []
    for n in range(1, sweep + 1):
        prod = a
        for j in range(1, order + 1):
            prod = prod * a.shifted(j * n)
        values.append(prod.trace)
    if absolute:
        avg = sum(abs(v) for v in values) / sweep
    else:
        avg = sum(values) / sweep
    ea = a.finite_orbit_part()
    power = ea
    for _ in range(order):
        power = power * ea
    return RecurrenceAverage(avg, power.trace.real, tuple(values))


@dataclass(frozen=True)
class DoubleAverage:
    """Double recurrence average over a square grid of shift pairs."""

    average: float
    projected_average: float
    values: Tuple[Tuple[int, int, float, float], ...]

    @property
    def difference(self) -> float:
        return abs(self.average - self.projected_average)


def bergelson_average(
    a0: AlgebraElement,
    a1: AlgebraElement,
    a2: AlgebraElement,
    a3: AlgebraElement,
    m_base: int,
    n_base: int,
    count: int,
) -> DoubleAverage:
    """Both double averages of |trace(a0 shift^m(a1) shift^n(a2) shift^{m+n}(a3))|.

    The grid runs m in m_base+1..m_base+count, n likewise from n_base; the
    projected average replaces every operator by its finite-orbit part.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    parts = [x.finite_orbit_part() for x in (a0, a1, a2, a3)]
    values = []
    total = 0.0
    etotal = 0.0
    for m in range(m_base + 1, m_base + count + 1):
        lead = a0 * a1.shifted(m)
        elead = parts[0] * parts[1].shifted(m)
        for n in range(n_base + 1, n_base + count + 1):
            v = abs((lead * a2.shifted(n) * a3.shifted(m + n)).trace)
            ev = abs((elead * parts[2].shifted(n) * parts[3].shifted(m + n)).trace)
            total += v
            etotal += ev
            values.append((m, n, v, ev))
    sq = float(count) ** 2
    return DoubleAverage(total / sq, etotal / sq, tuple(values))
