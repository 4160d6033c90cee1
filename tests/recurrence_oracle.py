"""The recurrence sequences computed for every n, kept as oracles.

``furstenberg_average`` and ``bergelson_average`` are the averages as they
were before the trace was read off a split product: every n multiplies out
the whole product and reads its identity coefficient.  The split kernels
must reproduce their values to roundoff and their exact zeros exactly.

``split_furstenberg_average`` and ``decay_sequence`` are the split average
and the decay sequence as they were before they stopped at their separation
horizon: every n of the sweep is evaluated.  ``split_bergelson_average`` is
the split double average as it was before it memoized the shifts of a2 and
a3 and computed each projected value once per residue pair
(m mod L, n mod L): every cell shifts and multiplies afresh on both sides.
The library must reproduce their values bit for bit.
"""

from __future__ import annotations

from typing import List

from ergolab.dual import AlgebraElement, State
from ergolab.mixing import DoubleAverage, RecurrenceAverage


def furstenberg_average(
    factor: AlgebraElement, order: int, sweep: int, absolute: bool = True
) -> RecurrenceAverage:
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


def split_furstenberg_average(
    factor: AlgebraElement, order: int, sweep: int, absolute: bool = True
) -> RecurrenceAverage:
    if order < 1:
        raise ValueError("order must be at least 1")
    if sweep < 1:
        raise ValueError("sweep must be at least 1")
    a = factor * factor.adjoint()
    half = (order + 2) // 2
    trace = State.trace()
    values: List[complex] = []
    for n in range(1, sweep + 1):
        previous, left = None, a
        for j in range(1, half):
            previous, left = left, left * a.shifted(j * n)
        right = (left if order % 2 else previous).shifted(half * n)
        values.append(trace.on_product(left, right))
    if absolute:
        avg = sum(abs(v) for v in values) / sweep
    else:
        avg = sum(values) / sweep
    ea = a.finite_orbit_part()
    power = ea
    for _ in range(order):
        power = power * ea
    return RecurrenceAverage(avg, power.trace.real, tuple(values))


def decay_sequence(state: State, element: AlgebraElement, n_max: int) -> List[complex]:
    deficiency = element - element.finite_orbit_part()
    return [state(deficiency.shifted(n)) for n in range(1, n_max + 1)]


def bergelson_average(
    a0: AlgebraElement,
    a1: AlgebraElement,
    a2: AlgebraElement,
    a3: AlgebraElement,
    m_base: int,
    n_base: int,
    count: int,
) -> DoubleAverage:
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


def split_bergelson_average(
    a0: AlgebraElement,
    a1: AlgebraElement,
    a2: AlgebraElement,
    a3: AlgebraElement,
    m_base: int,
    n_base: int,
    count: int,
) -> DoubleAverage:
    if count < 1:
        raise ValueError("count must be at least 1")
    parts = [x.finite_orbit_part() for x in (a0, a1, a2, a3)]
    trace = State.trace()
    values = []
    total = 0.0
    etotal = 0.0
    for m in range(m_base + 1, m_base + count + 1):
        lead = a0 * a1.shifted(m)
        elead = parts[0] * parts[1].shifted(m)
        for n in range(n_base + 1, n_base + count + 1):
            v = abs(trace.on_product(lead * a2.shifted(n), a3.shifted(m + n)))
            ev = abs(
                trace.on_product(elead * parts[2].shifted(n), parts[3].shifted(m + n))
            )
            total += v
            etotal += ev
            values.append((m, n, v, ev))
    sq = float(count) ** 2
    return DoubleAverage(total / sq, etotal / sq, tuple(values))
