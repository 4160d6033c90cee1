"""Oracle for weighted power means: the stepped loop, and the roundoff bound
within which ``averaging.weighted_power_means``' doubled sums must meet it."""

from __future__ import annotations

import numpy as np


def stepped_power_mean(matrix, start, weights):
    """Oracle: sum_n w_n M^n start / sum w, one pass for one weight vector."""
    acc = np.zeros(start.shape, dtype=complex)
    cur = start
    for w in weights:
        cur = matrix @ cur
        acc += w * cur
    return acc / weights.sum()


def doubling_tolerance(matrix, start, weights, degree):
    """Entrywise bound on |doubled - stepped| mean: the doubled sum's bound in
    the ``weighted_power_means`` docstring plus the loop's, both times
    sum_n w_n |M|^n |start| / sum w.  The unit roundoff counts three times
    over in complex arithmetic, whose product rounds up to 2·sqrt(2)·u."""
    n, d = len(weights), matrix.shape[0]
    bits = n.bit_length()
    u = np.finfo(float).eps / 2
    if np.iscomplexobj(matrix) or np.iscomplexobj(start):
        u *= 3
    doubled = (n + 2 * bits) * d + (degree + 5) * bits
    loop = n * d + 2 * n
    scale = stepped_power_mean(np.abs(matrix), np.abs(start), weights).real
    return (doubled + loop) * u * scale
