"""Host speed, sampled beside the program so that its times can be put on one scale.

The host this benchmark was tuned on (a 2-vCPU VM) runs the same code up to
about 1.7x slower for stretches of seconds to minutes, and CPU time slows
with wall time, so neither clock alone repeats between runs.  A fixed kernel
that never touches ``ergolab`` is timed beside every item; an item's time is
scaled by ``REFERENCE_S`` over the kernel's time near it.  The kernel mixes
the kinds of work the program does: dict and tuple handling, ``Fraction``
arithmetic and small complex matrix products.

The host slows interpreted code more than it slows BLAS, so each workload
weighs the three parts by the work it does itself (``SIZES``), and set-up,
which is imports and config generation, uses the interpreted mix.  With the
interpreted mix, ``matrix``'s numpy-bound d = 64 tensor checks read up to
15 % slower in fast stretches than in slow ones; with the ``matrix`` mix,
the pure-Python ``gap-scan`` and ``recurrence`` spread 7-11 % between runs,
and set-up reads up to 20 % slower in slow stretches.
The kernel's code and sizes are part of the benchmark's definition:
changing them changes every timed metric.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

import numpy

# the kernel's time at the reference speed: a round figure near its median
# over many runs on the host this was tuned on (Intel Xeon VM, 2 vCPUs at
# 2.0 GHz, one thread)
REFERENCE_S = 3.0e-3

# a time is scaled by the median of this many kernel samples on each side of it
WINDOW = 8

# kernel sizes: dict and tuple steps, Fraction terms, matrix products
INTERPRETED = (2000, 150, 6)  # the products take about a quarter of the time
NUMPY_BOUND = (1000, 75, 12)  # the products take about 60 % of the time

# the kernel each workload's items are scaled by; set-up (imports and config
# generation) is interpreted work in every workload, and uses INTERPRETED
SIZES = {"gap-scan": INTERPRETED, "recurrence": INTERPRETED, "matrix": NUMPY_BOUND}

_N = 64
_rng = numpy.random.default_rng(0)
_MATRIX = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N))


def _kernel(steps: int, terms: int, products: int):
    table = {}
    acc = 0
    for i in range(steps):
        key = (i % 13, i % 7, -(i % 5))
        table[key] = table.get(key, 0) + 1
        acc ^= len(table) + i
    ordered = sorted(table.items(), key=lambda kv: (kv[0][2], kv[1]))
    total = Fraction(0)
    for i in range(1, terms):
        total += Fraction(i % 7 + 1, i)
    product = _MATRIX
    for _ in range(products):
        product = (product @ _MATRIX) / _N
    return acc, ordered, total, product


def sample(sizes) -> float:
    """Seconds of one kernel run of the given sizes."""
    start = perf_counter()
    _kernel(*sizes)
    return perf_counter() - start


def local_scales(samples: List[float]) -> List[float]:
    """Per sample, REFERENCE_S over the median of the samples around it."""
    return [
        REFERENCE_S / statistics.median(samples[max(0, k - WINDOW): k + WINDOW + 1])
        for k in range(len(samples))
    ]


for _sizes in (INTERPRETED, NUMPY_BOUND):
    _kernel(*_sizes)  # first-call costs stay out of every sample
