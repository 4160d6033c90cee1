"""Mixing diagnostics for the dual system.

Everything here evaluates states on products of shifted algebra elements:
decay of a single shifted element toward its finite-orbit part, multitime
correlations, an exhaustive gap scan certifying where a correlation
difference vanishes, and the diagonal / double recurrence averages against
the canonical trace.  A double average reads a whole row of cells off one
pairing of two products, since the trace is shift invariant, and builds no
algebra element per cell.

Every shortcut rests on one separation lemma, proved in ``_separation``.
By it decay sequences stop at a horizon H, Furstenberg sweeps at R + L,
double averages compute each projected row once per residue m mod L, and
the gap scan evaluates only its candidate tuples, where some term choice
can put every infinite-orbit letter on the pooled state support or cancel
it against another factor.  The scan builds only
what its walk reaches, computes each residue class of a finite-orbit
operator's time once while it can recur, with memory bounded by the window,
and its last slot looks each word up in the pooled support table of the
states instead of forming the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .dual import AlgebraElement, State, _shift_traces, _term_rows
from .words import merge_runs

StateOrStates = Union[State, Sequence[State]]

# Refuse a Furstenberg average whose half product can hold more terms than
# this: the bound len(a)**h on P_h is checked before any product is built.
HALF_PRODUCT_TERM_CAP = 100_000

# Refuse a Furstenberg sweep or a decay n_max longer than this before any value
# is computed.  Past its separation horizon a sequence is filled by copying, so
# its length, not its products, is what a huge config would exhaust.
SEQUENCE_LENGTH_CAP = 1_000_000

# Refuse a gap scan whose lattice, scan_window * gap_max**(k - 1) tuples, is
# larger than this before any shifted copy is built.
GAP_LATTICE_CAP = 100_000_000


def _as_states(states: StateOrStates) -> List[State]:
    if isinstance(states, State):
        return [states]
    out = list(states)
    if not out:
        raise ValueError("need at least one state")
    return out


def _check_length(count: int, name: str) -> None:
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    if count > SEQUENCE_LENGTH_CAP:
        raise ValueError(f"{name} {count} exceeds the cap {SEQUENCE_LENGTH_CAP}")


def _separation(tables: Iterable[dict], lengths: dict) -> Tuple[Dict[str, set], int]:
    """Shift family -> its set of indices, and L, over the words of term tables.

    L is the lcm of the cycle lengths occurring (1 if none); a family outside
    ``lengths`` counts as a shift family.  The separation lemma: in a product
    of shifted reduced words a cancelled or merged letter pairs with a letter
    of another factor, as the shift (a bijection on symbols) keeps each
    factor reduced; the n-th shift moves a shift letter f[i] to f[i + n];
    and a cycle letter depends on n mod L alone.  So factors shifted by n
    and n' meet on a letter of family f only if n - n' is a difference of
    f's indices, and a word of cycle letters shifted by n equals its shift
    by n mod L, down to its run tuples and the order of its term table.

    The gap scan reads it per slot, as Furstenberg and Bergelson read their
    horizons and residues: a slot whose operator has only cycle letters gets
    their L.  Two time tuples that agree on every other slot's time and on
    each such slot's time mod L multiply identical tables in the same order,
    through the same products, pruning and sums, so their values are
    bit-identical; a candidate domain reads only infinite-orbit runs, so
    only shift slots' times and the bounds the previous slot sets.  Each
    reduced prefix, leaf value and candidate domain is thus computed once
    while it can recur, with memory bounded by the window, and every tuple
    is still reported, in walk order, with its own value.
    """
    indices: Dict[str, set] = {}
    cycles = set()
    for terms in tables:
        for runs in terms:
            for fam, idx, _ in runs:
                if lengths.get(fam) is None:
                    indices.setdefault(fam, set()).add(idx)
                else:
                    cycles.add(lengths[fam])
    return indices, math.lcm(*cycles)


def decay_sequence(state: State, element: AlgebraElement, n_max: int) -> List[complex]:
    """Values of the state on shifts of (element - finite-orbit part), n = 1..n_max.

    Every word of the deficiency has a shift letter, and a vector state sees
    a word w only through products w h = g with g, h in its vector supports.
    By ``_separation`` no such product exists once n exceeds H, the largest
    (support max - deficiency min) index over the shift families of both
    sides (0 for the trace or when no family is shared), and the state then
    returns an exact ``0j``; so only n <= H is evaluated.  Raises
    ``ValueError`` when n_max is below 1 or above ``SEQUENCE_LENGTH_CAP``.
    """
    _check_length(n_max, "n_max")
    deficiency = element - element.finite_orbit_part()
    lengths = element.alphabet._lengths
    support = _separation((x._terms for _, x in state.components or ()), lengths)[0]
    horizon = max(
        (
            max(support[fam]) - min(idx)
            for fam, idx in _separation([deficiency._terms], lengths)[0].items()
            if fam in support
        ),
        default=0,
    )
    computed = min(n_max, max(horizon, 0))
    values = [state(deficiency.shifted(n)) for n in range(1, computed + 1)]
    return values + [0j] * (n_max - computed)


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
    plain = correlation(state, ops, times, permutation)
    parts = [op.finite_orbit_part() for op in ops]
    if any(not part for part in parts):
        return plain
    return plain - correlation(state, parts, times, permutation)


# -- gap scan -------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A scanned time tuple where some state sees a nonzero difference."""

    times: Tuple[int, ...]
    state_index: int
    magnitude: float

    @property
    def min_gap(self) -> int:
        return _min_gap(self.times)


def _min_gap(times: Sequence[int]) -> int:
    """The least of the first time and the consecutive gaps of a tuple."""
    return min(b - a for a, b in zip((0, *times), times))


@dataclass(frozen=True)
class GapScanResult:
    """Outcome of an exhaustive scan over a bounded time-tuple window.

    ``threshold`` is the least G such that every scanned tuple whose first
    time and consecutive gaps are all >= G has difference exactly zero; it is
    None when even the largest scanned gap admits a violation, in which case
    ``counterexample`` holds one such tuple.  ``scanned`` is the size of the
    certified lattice and ``evaluated`` the number of candidate tuples
    visited, whose difference was computed or read from a residue memo.
    """

    threshold: Optional[int]
    counterexample: Optional[Tuple[int, ...]]
    violations: Tuple[Violation, ...]
    scanned: int
    scan_window: int
    gap_max: int
    evaluated: int


class _ShiftMemo(dict):
    """Time n -> element.shifted(n), or build(its term table), built the first
    time n is looked up."""

    def __init__(self, element: AlgebraElement, build=None):
        super().__init__()
        self.element = element
        self.build = build

    def __missing__(self, n: int):
        value = self.element.shifted(n)
        if self.build is not None:
            value = self.build(value._terms)
        self[n] = value
        return value


def _instantiate(factors: list, pos: int, element: AlgebraElement) -> list:
    out = list(factors)
    idx = out.index(pos)
    out[idx] = element
    if idx > 0 and isinstance(out[idx - 1], AlgebraElement):
        out[idx - 1 : idx + 1] = [out[idx - 1] * element]
        idx -= 1
    if idx + 1 < len(out) and isinstance(out[idx + 1], AlgebraElement):
        out[idx : idx + 2] = [out[idx] * out[idx + 1]]
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
    difference exactly zero.  Shifted copies and the last slot's term rows
    are built per visited time, and a slot is entered only when its
    candidate domain is non-empty.  A finite-orbit operator's time counts
    only mod its period (``_separation``), so prefixes, candidate domains
    and leaf values that agree on the reduced times are computed once while
    they can recur, with memory bounded by the window.  ``scanned`` reports
    the lattice size and ``evaluated`` the candidate tuples visited, memo
    hits included.  Raises ``ValueError`` when the lattice exceeds
    ``GAP_LATTICE_CAP`` tuples or zero_tol is negative or NaN, and when a
    difference is NaN (coefficients that overflow), which no tolerance
    could certify as zero.
    """
    ops = list(operators)
    state_list = _as_states(states)
    k = len(ops)
    if not 1 <= k <= 5:
        raise ValueError("gap scan supports 1..5 operators")
    if scan_window < 1 or gap_max < 1:
        raise ValueError("scan window and gap bound must be positive")
    if not zero_tol >= 0:  # NaN too: no magnitude would exceed it
        raise ValueError(f"zero_tol must be nonnegative, got {zero_tol}")
    perm = _check_permutation(permutation, k)
    scanned = scan_window * gap_max ** (k - 1)
    if scanned > GAP_LATTICE_CAP:
        raise ValueError(f"gap lattice {scanned} exceeds the cap {GAP_LATTICE_CAP}")

    e_parts = [op.finite_orbit_part() for op in ops]
    e_dead = any(not part for part in e_parts)

    pooled: Dict[tuple, list] = {}
    for si, state in enumerate(state_list):
        for runs, value in state.runs_profile().items():
            pooled.setdefault(runs, []).append((si, value))

    slot_pos = [perm.index(r) for r in range(k)]

    # Candidate tuples rest on ``_separation``: a shift-family run f[i]^e of
    # operator j, at index i + n_j, either survives, and the word can then be
    # in a state's support only if f[i + n_j] occurs in the pooled support (an
    # anchor), or it meets an opposite-sign run f[i']^e' of another operator q,
    # which needs n_j - n_q = i' - i.  With no term choice covering all its
    # infinite runs that way, every value is exactly 0.  Slots advance by
    # 1..gap_max, so a partner s slots away must have 1*s <= |n_j - n_q| <=
    # gap_max*s in the right direction.  A run is kept as (times of its
    # operator that anchor it, partners (q, i' - i)).
    def reachable(slots: int, lead: int) -> bool:
        """Can the time `slots` slots later (or earlier, if < 0) be `lead` later?"""
        return slots * lead > 0 and abs(slots) <= abs(lead) <= abs(slots) * gap_max

    anchors = _separation([pooled], ops[0].alphabet._lengths)[0]
    infinite_runs = [
        [[run for run in runs if op.alphabet._lengths[run[0]] is None] for runs in op._terms]
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

    violations: List[Violation] = []
    times = [0] * k
    # the largest min gap of a violating tuple, and the first such tuple
    worst = 0
    witness: Optional[Tuple[int, ...]] = None

    shifts = [_ShiftMemo(op) for op in ops]
    e_shifts = None if e_dead else [_ShiftMemo(part) for part in e_parts]
    # one operator ever sits in the last slot: only its shifts get term rows
    last = slot_pos[k - 1]
    q_rows = _ShiftMemo(ops[last], _term_rows)
    e_rows = None if e_dead else _ShiftMemo(e_parts[last], _term_rows)
    unit = [((), 1.0 + 0.0j, None, None)]

    def side(factors: list, rows: _ShiftMemo, negate: bool):
        """(left, middle, right) term rows around the last slot."""
        idx = factors.index(last)
        left = _term_rows(factors[idx - 1]._terms) if idx > 0 else unit
        if negate:
            left = [(runs, -c, *ends) for runs, c, *ends in left]
        right = _term_rows(factors[idx + 1]._terms) if idx + 1 < len(factors) else unit
        return left, rows, right

    def leaf_sides(fq: list, fe) -> tuple:
        """The leaf's node: its (left, middle, right) rows, Q-side first, then a
        live E-side, and a memo of its totals if a reduced last time can recur."""
        sides = [side(fq, q_rows, False)] + ([] if fe is None else [side(fe, e_rows, True)])
        return sides, {} if first < k else None

    def extend(r: int, n: int, fq: list, fe):
        """What slot r + 1 needs once slot r sits at n: factor lists, or the leaf's sides."""
        pos = slot_pos[r]
        fq = _instantiate(fq, pos, shifts[pos][n])
        fe = None if fe is None else _instantiate(fe, pos, e_shifts[pos][n])
        return (fq, fe) if r + 2 < k else leaf_sides(fq, fe)

    # Residue memo (``_separation``): a slot whose operator has only cycle
    # letters gets their period L, any other None, and maps its time n to a
    # reduced time, n mod L or n.  From the first finite-orbit slot on, the
    # memo maps a prefix's reduced times to its node (factor lists, or the
    # leaf's sides and totals per reduced last time), and (slot, time, shift
    # slots' times) to the next candidate domain.  Keys recur only below the
    # node where that slot is entered, which empties the memo.  Times grow
    # along a tuple, so a key that holds a later slot's time t as is cannot
    # recur once that slot's loop has passed t: its entry goes in the bucket
    # of its earliest such time, and the loop drops each bucket it passes.
    # Leaf totals live in their node, at most one per last-slot time.
    periods = []
    for pos in slot_pos:
        spread, period = _separation([ops[pos]._terms], ops[pos].alphabet._lengths)
        periods.append(None if spread else period)
    first = next((r for r in range(k) if periods[r] is not None), k)
    opener = next((r for r in range(first + 1, k) if periods[r] is None), k)
    memo: dict = {}
    buckets: Dict[int, list] = {}

    def recall(r: int, since: int, key: tuple, build, *args):
        """build(*args), kept under key; in the bucket of times[since] if since <= r."""
        value = memo.get(key)
        if value is None:
            value = memo[key] = build(*args)
            if since <= r:
                buckets.setdefault(times[since], []).append(key)
        return value

    def leaf(domain, node) -> None:
        """Differences at the last slot, summed over (left, middle, right) term triples.

        The node is the leaf's sides and its totals per reduced last time.
        The E-side runs through the same loop with its left coefficients
        negated.  A triple whose two junctions cannot reduce is the plain
        concatenation; only the others go through ``merge_runs``.
        A tuple with a violation updates (worst, witness) only on a strictly
        larger min gap, so the witness is the first such tuple in walk order.
        """
        nonlocal worst, witness
        sides, seen = node
        period = periods[k - 1]
        pooled_get = pooled.get
        for n in domain:
            reduced = n if period is None else n % period
            total = None if seen is None else seen.get(reduced)
            if total is None:
                total = {}
                for left, rows, right in sides:
                    for a_runs, a_c, _, a_last in left:
                        for m_runs, m_c, m_first, m_last in rows[n]:
                            am_c = a_c * m_c
                            open_left = m_runs and a_last != m_first
                            for b_runs, b_c, b_first, _ in right:
                                if open_left and m_last != b_first:
                                    w = a_runs + m_runs + b_runs
                                else:
                                    w = merge_runs(a_runs, m_runs, b_runs)
                                hits = pooled_get(w)
                                if hits:
                                    c = am_c * b_c
                                    for si, v in hits:
                                        total[si] = total.get(si, 0.0 + 0.0j) + c * v
                # most totals are empty: they share one ()
                total = total or ()
                if seen is not None:
                    seen[reduced] = total
            if total:
                times[k - 1] = n
                snapshot = tuple(times)
                found = len(violations)
                for si in sorted(total):
                    mag = abs(total[si])
                    if mag > zero_tol:
                        violations.append(Violation(snapshot, si, mag))
                    elif mag != mag:
                        raise ValueError(
                            f"difference at times {snapshot} on state {si} is NaN; "
                            "the input overflows floating point"
                        )
                if len(violations) > found:
                    gap = _min_gap(snapshot)
                    if gap > worst:
                        worst, witness = gap, snapshot

    evaluated = 0

    def walk(r: int, domain, node, key: tuple, held: tuple) -> None:
        """Visit slot r's non-empty candidate domain, given by the caller.

        From the first finite-orbit slot on, key is the reduced times of the
        slots before r and held the shift slots' times among them.
        """
        nonlocal evaluated
        if r == first:
            memo.clear()
            buckets.clear()
        if r == k - 1:
            evaluated += len(domain)
            leaf(domain, node)
            return
        period = periods[r]
        since = r if r < opener else opener
        for n in domain:
            times[r] = n
            if r == first and buckets:
                for t in [t for t in buckets if t <= n]:
                    for stale in buckets.pop(t):
                        del memo[stale]
            # a domain reads only shift slots' times and the bounds n sets, so
            # its key recurs only past the first finite-orbit slot
            if r > first:
                inner = recall(r, since, (r, n, held), candidate_times, r + 1, n + 1, n + gap_max)
            else:
                inner = candidate_times(r + 1, n + 1, n + gap_max)
            if not inner:
                continue
            if r < first:
                # nor does a prefix key before that slot
                walk(r + 1, inner, extend(r, n, *node), key, held)
                continue
            sub = key + (n if period is None else n % period,)
            below = held + (n,) if period is None else held
            walk(r + 1, inner, recall(r, opener, sub, extend, r, n, *node), sub, below)

    domain = candidate_times(0, 1, scan_window)
    if domain:
        root = (list(range(k)), None if e_dead else list(range(k)))
        walk(0, domain, root if k > 1 else leaf_sides(*root), (), ())
    # walk reaches itself through its closure; breaking that cycle frees the
    # memos on return instead of at the next cyclic garbage collection
    walk = None

    # a threshold G is certifiable only if tuples with all gaps >= G were
    # scanned at all; for k = 1 the only gap is the first time itself
    widest = scan_window if k == 1 else min(scan_window, gap_max)
    threshold = worst + 1 if worst + 1 <= widest else None
    if threshold is not None:
        witness = None
    return GapScanResult(
        threshold, witness, tuple(violations), scanned, scan_window, gap_max, evaluated
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
    the running data and ``comparison`` = τ(E(a)^(order+1)), the trace of the
    (order+1)-th power of the finite-orbit part, reported as is: no inequality
    between it and the average is claimed.  Once E(a) holds cycle letters the
    average can lie below it at every sweep: for the factor 1 + c[0] with c a
    3-cycle, the average at sweep 300 is 14/3 against 6 at order 1, 12
    against 20 at order 2, and 39.3 against 70 at order 3.

    The product is split and never formed: with h = (order+2)//2 and the
    prefixes P_1 = a, P_j = P_{j-1} shift^{(j-1)n}(a), each value is the trace
    on P_h times shift^{hn}(P_{order+1-h}), a shift of a prefix already built
    since the shift is an automorphism.  Raises ``ValueError`` before the
    sweep when len(a)**h exceeds ``HALF_PRODUCT_TERM_CAP`` or the order or
    the sweep exceeds ``SEQUENCE_LENGTH_CAP``.

    Only n <= R + L is computed, with R the largest index spread of one shift
    family over the words of a and L the lcm of their cycle lengths
    (``_separation``); every later value is v_{n-L}.  Once n > R, factors
    j != j' put letters f[i], f[i'] at the distinct i + jn and i' + j'n, so
    every word table of the loop, down to its keys, collisions, pruning and
    insertion order, and hence the float sums, repeats with period L.
    """
    _check_length(order, "order")
    _check_length(sweep, "sweep")
    a = factor * factor.adjoint()
    half = (order + 2) // 2
    # len(a) >= 2 already exceeds the cap at this exponent, so clamping it
    # keeps the comparison exact without forming a huge integer
    if len(a) ** min(half, HALF_PRODUCT_TERM_CAP.bit_length()) > HALF_PRODUCT_TERM_CAP:
        raise ValueError(
            f"half product bound {len(a)}^{half} terms exceeds the cap "
            f"{HALF_PRODUCT_TERM_CAP}"
        )
    indices, period = _separation([a._terms], a.alphabet._lengths)
    spread = max((max(ix) - min(ix) for ix in indices.values()), default=0)
    trace = State.trace()
    values: List[complex] = []
    for n in range(1, min(sweep, spread + period) + 1):
        previous, left = None, a
        for j in range(1, half):
            previous, left = left, left * a.shifted(j * n)
        # order + 1 - h is h for odd orders and h - 1 for even ones
        right = (left if order % 2 else previous).shifted(half * n)
        values.append(trace.on_product(left, right))
    for i in range(len(values), sweep):
        values.append(values[i - period])
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
    projected average replaces every operator by its finite-orbit part.  The
    four-fold product is never formed.  The trace is shift invariant and
    shift^n(a2) shift^{m+n}(a3) = shift^n(a2 shift^m(a3)), so a cell is
    trace(lead_m shift^n(q_m)) with lead_m = a0 shift^m(a1) and
    q_m = a2 shift^m(a3): each row m forms these two products, and one
    pairing pass (``dual._shift_traces``) reads all count cells of the row
    off them, as ``State.on_product``'s trace kernel would read each.  The
    cost is thus count products per table and one pairing pass per row, not
    count**2 convolutions.  The parts hold only cycle letters, so by
    ``_separation`` a projected value depends on (m mod L, n mod L) alone,
    and the parts' row is paired once per residue r = m mod L over the
    residues n mod L that the columns reach, at most min(count, L) of each,
    so a long cycle costs no more than a short one.  A count**2 above
    ``SEQUENCE_LENGTH_CAP`` is refused.
    """
    _check_length(count, "count")
    _check_length(count * count, "count**2")
    for x in (a1, a2, a3):
        a0._check_compatible(x)
    lengths = a0.alphabet._lengths
    parts = [x.finite_orbit_part() for x in (a0, a1, a2, a3)]
    period = _separation([x._terms for x in parts], lengths)[1]
    columns = range(n_base + 1, n_base + count + 1)
    # the residues n mod L the columns reach: at most min(count, L) of them
    reached = dict.fromkeys(n % period for n in columns)
    projected: Dict[int, Dict[int, float]] = {}
    values = []
    total = 0.0
    etotal = 0.0
    for m in range(m_base + 1, m_base + count + 1):
        row = _shift_traces((a0 * a1.shifted(m))._terms, (a2 * a3.shifted(m))._terms,
                            columns, lengths)
        r = m % period
        erow = projected.get(r)
        if erow is None:
            erow = projected[r] = {s: abs(t) for s, t in _shift_traces(
                (parts[0] * parts[1].shifted(r))._terms,
                (parts[2] * parts[3].shifted(r))._terms, reached, lengths).items()}
        for n in columns:
            v = abs(row[n])
            ev = erow[n % period]
            total += v
            etotal += ev
            values.append((m, n, v, ev))
    sq = float(count) ** 2
    return DoubleAverage(total / sq, etotal / sq, tuple(values))
