"""Wall-clock micro-benchmarks for attention blocks and whole models.

Timing uses the monotonic high-resolution clock only. Runs are warmed up,
then every measured iteration is recorded individually; the median is the
headline number for comparisons (robust to scheduler jitter), with mean
and standard deviation reported alongside. Every OpenBLAS loaded into
the process (numpy and scipy ship one each) is pinned to one thread during
measurement, through its own ``*_set_num_threads`` entry point, so latency
ratios track arithmetic cost and not thread scheduling; each library's
previous count is restored afterwards. Where no OpenBLAS is found (another
BLAS, or no ``/proc/self/maps``) nothing is pinned.
"""

from __future__ import annotations

import ctypes
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import DCABlock, ParamStore, SABlock, TokenGrid
from .errors import UsageError
from .model import Model, VariantSpec
from .tensor import Tensor

# (get, set) thread-count entry points of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")
)

MIN_ITERS = 30
MIN_WARMUP = 10
MAX_HIDDEN = (1 << 28) // 4  # (n + m) * d * e: 256 MiB of float32 FFN hidden values
MAX_INPUT = 1024  # pixels per side; at 1024 the tiny stage-1 FFN hidden array is 64 MiB


@dataclass
class BenchResult:
    case: str
    n: int
    m: int
    d: int
    warmup: int
    iters: int
    median_s: float
    mean_s: float
    stddev_s: float
    throughput: float  # items per second, iters / total measured time

    def row(self) -> dict:
        return {
            "case": self.case, "n": self.n, "m": self.m, "d": self.d,
            "warmup": self.warmup, "iters": self.iters,
            "median_s": f"{self.median_s:.6g}", "mean_s": f"{self.mean_s:.6g}",
            "stddev_s": f"{self.stddev_s:.6g}", "throughput": f"{self.throughput:.6g}",
        }


def _openblas_thread_controls() -> list[tuple]:
    """(get_num_threads, set_num_threads) of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split()[-1] for line in maps)
    except OSError:
        return []
    controls = []
    for path in paths:
        name = os.path.basename(path).lower()
        if "openblas" not in name or ".so" not in name:
            continue
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread inside the context."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, previous):
            set_(n)


def _time_loop(fn, warmup: int, iters: int) -> list[float]:
    with _one_blas_thread():
        for _ in range(warmup):
            fn()
        samples = []
        for _ in range(iters):
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            samples.append(t1 - t0)
    return samples


def _result(case: str, n: int, m: int, d: int, warmup: int, samples: list[float]) -> BenchResult:
    total = sum(samples)
    return BenchResult(
        case=case, n=n, m=m, d=d, warmup=warmup, iters=len(samples),
        median_s=statistics.median(samples),
        mean_s=statistics.fmean(samples),
        stddev_s=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        throughput=len(samples) / total,
    )


def _check_loop(iters: int, warmup: int) -> None:
    if iters < MIN_ITERS:
        raise UsageError(f"need at least {MIN_ITERS} measured iterations, got {iters}")
    if warmup < 0:
        raise UsageError(f"warmup iterations must be >= 0, got {warmup}")


def bench_block_pair(
    n: int, m: int, d: int, e: int = 4, iters: int = MIN_ITERS,
    warmup: int = MIN_WARMUP, seed: int = 0,
) -> tuple[BenchResult, BenchResult]:
    """Forward-only latency of one dual cross-attention vs one standard block.

    Both blocks are freshly built from the same seed and fed the same random
    token grid. Heads are 32 wide when 32 divides ``d``, and otherwise as
    wide as the largest divisor of ``d`` below 32. Speedup is
    sa.median_s / dca.median_s.
    """
    _check_loop(iters, warmup)
    if e < 1:
        raise UsageError(f"feed-forward expansion must be >= 1, got {e}")
    side = math.isqrt(max(n, 0))
    if n < 4 or side * side != n:
        raise UsageError(f"n={n} must be a perfect square >= 4 to form a token grid")
    if m < 2 or d < 1:
        raise UsageError(f"need m >= 2 meta tokens and token width d >= 1, got m={m}, d={d}")
    if (n + m) * d * e > MAX_HIDDEN:
        raise UsageError(f"(n + m) * d * e = {(n + m) * d * e} feed-forward hidden values "
                         f"exceed {MAX_HIDDEN}")
    head_dim = max(h for h in range(1, min(32, d) + 1) if d % h == 0)
    store = ParamStore(seed)
    dca = DCABlock(store, "bench.dca", d, head_dim=head_dim, expansion=e)
    sa = SABlock(store, "bench.sa", d, head_dim=head_dim, expansion=e)
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal((n, d)).astype(np.float32)
    meta = rng.standard_normal((m, d)).astype(np.float32)

    def run(block):
        def fn():
            with T.no_grad():
                block(TokenGrid(Tensor(tokens), side, side), Tensor(meta))
        return fn

    # Warm both blocks before timing either. The first block timed in a
    # process otherwise runs about 25% slower than in later calls, until the
    # other block's larger buffers have grown the allocator's pools.
    for fn in (run(dca), run(sa)) * 2:
        fn()
    dca_samples = _time_loop(run(dca), warmup, iters)
    sa_samples = _time_loop(run(sa), warmup, iters)
    return (
        _result("dca", n, m, d, warmup, dca_samples),
        _result("sa", n, m, d, warmup, sa_samples),
    )


def speedup(sa: BenchResult, dca: BenchResult) -> float:
    return sa.median_s / dca.median_s


def bench_model(
    spec: VariantSpec, input_px: int, iters: int = MIN_ITERS,
    warmup: int = MIN_WARMUP, seed: int = 0,
) -> BenchResult:
    """Images per second over the full classification forward pass of one
    square ``input_px`` x ``input_px`` image."""
    _check_loop(iters, warmup)
    if input_px % 32 or not 64 <= input_px <= MAX_INPUT:
        raise UsageError(f"input extent must be a multiple of 32 in [64, {MAX_INPUT}], "
                         f"got {input_px}")
    model = Model(spec, seed)
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((3, input_px, input_px)).astype(np.float32)

    def fn():
        with T.no_grad():
            model.forward_classify(Tensor(img))

    samples = _time_loop(fn, warmup, iters)
    return _result(f"model:{spec.name}@{input_px}", (input_px // 4) ** 2, spec.meta_len,
                   spec.dims[0], warmup, samples)
