"""A fixed numpy kernel, timed after every operation as a yardstick for the host's speed.

On a shared host the speed of the CPU this process gets steps up and
down by a quarter or more, in phases that last seconds to minutes and
that no statistic over one run averages away: in one set of ten 55-s
``infer-224`` runs on a 2-vCPU Xeon guest the mean latency went from
about 150 ms in the first five runs to about 190 ms in the last five,
and set-up time with it.

The kernel does the kinds of work the model does (BLAS matmuls, the
exact erf that ``gelu`` uses, elementwise passes over fresh multi-MB
temporaries, a row softmax) and uses no metavit code, so it slows with
the host but not with a change to the program. An operation's time in
multiples of the kernel's time, both measured in the same run, is
steadier than its time in ms: over one seven-minute ``infer-224`` loop
on that host, 35-s means varied by 4.1 % in ms and by 1.0 % in kernel
runs (relative standard deviation).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import erf

TOKENS, WIDTH, HIDDEN = 3136, 64, 256  # a stage-1 token grid of one 224 px image


class Reference:
    def __init__(self):
        # fixed inputs, not drawn from the run's seed: the yardstick is the same in every run
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((TOKENS, WIDTH)).astype(np.float32)
        self.w = (0.1 * rng.standard_normal((WIDTH, HIDDEN))).astype(np.float32)

    def run(self) -> np.ndarray:
        h = 0.5 * (1.0 + erf(self.x @ self.w))
        for _ in range(3):
            h = h * 1.01 + 0.5
        h = erf(h) * h
        s = h @ self.w.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def time_ns(self) -> int:
        t0 = time.perf_counter_ns()
        self.run()
        return time.perf_counter_ns() - t0
