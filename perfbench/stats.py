"""Order statistics for benchmark samples.

Timings are reported as the mean, the median and the 90th percentile.
The gated figures are built from the mean: on a shared host the CPU
speed drifts in phases of seconds to minutes, and a run's mean moves in
proportion to the time it spends in each phase, while its median jumps
to whichever phase holds more than half the samples. A tail
percentile is only meaningful when enough samples lie beyond it, so
``tail`` refuses to report one that leaves fewer than ``MIN_BEYOND``
samples above its rank; the harness keeps measuring until it has
``min_samples(TAIL_Q)`` of them.
"""

from __future__ import annotations

import math
import statistics

TAIL_Q = 90
MIN_BEYOND = 10


def min_samples(q: int = TAIL_Q) -> int:
    """Smallest sample count whose q-th percentile leaves MIN_BEYOND samples above it."""
    n = 1
    while n - _rank(n, q) < MIN_BEYOND:
        n += 1
    return n


def _rank(n: int, q: int) -> int:
    """Nearest-rank position (1-based) of the q-th percentile of n samples."""
    return max(1, math.ceil(q * n / 100))


def tail(samples, q: int = TAIL_Q) -> float:
    """Nearest-rank q-th percentile; raises if fewer than MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = _rank(n, q)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {n} samples leaves {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def median(samples) -> float:
    return statistics.median(samples)


def mean(samples) -> float:
    return statistics.fmean(samples)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
