"""Measurement: set-up, the timed closed loop, tracing, and the per-layer table.

Import this only after the BLAS thread count is pinned (``run.py`` does
that); importing it imports numpy.
"""

from __future__ import annotations

import json
import resource
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import envinfo
import spans
import stats
from metavit import tensor as T
from reference import Reference
from workloads import WORKLOADS, Check, group_of

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WARMUP_OPS = 3
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 400, 2.5
MAX_LOOP_S = 110.0  # keeps a run inside 180 s when the sample floor stretches it
TRACE_MIN_OPS = 10

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class Metrics:
    """Named values with units and sample counts, in report order."""

    def __init__(self):
        self.rows: dict[str, tuple[float, str, int]] = {}

    def add(self, name: str, value: float, unit: str, n: int) -> None:
        self.rows[name] = (float(value), unit, n)

    def json(self, declared: list[dict]) -> dict:
        """The declared metrics (BENCHMARK.json entries); raises on a unit that differs."""
        out = {}
        for m in declared:
            value, unit, _ = self.rows[m["name"]]
            if unit != m["unit"]:
                raise RuntimeError(f"{m['name']} is measured in {unit}, declared in {m['unit']}")
            out[m["name"]] = {"value": value, "unit": unit}
        return out

    def lines(self) -> list[str]:
        return [f"  {k:<32} {v:>16.6f} {u:<9} n={n}" for k, (v, u, n) in self.rows.items()]


def repeat_setup(wl) -> list[float]:
    """Set the workload up several times; the last set-up is the one measured."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN or (
        len(times) < SETUP_MAX and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


class Loop:
    """Runs operations back to back, timing each and checking its output."""

    def __init__(self, wl):
        self.wl = wl
        self.next_op = 0
        self.failed: set[int] = set()

    def step(self, tracer=None) -> int:
        """Run, time and check the next operation; its latency in ns."""
        i = self.next_op
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        out = self.wl.op(i)
        latency = time.perf_counter_ns() - t0
        if not self.wl.check(i, out):
            self.failed.add(i)
        self.next_op += 1
        return latency

    def run_for(self, seconds: float, min_ops: int, reference: Reference, tracer=None):
        """Latencies of operations run until ``seconds`` have passed and ``min_ops`` are done,
        and of the ``reference`` kernel, run after each of them."""
        latencies: list[int] = []
        yardstick: list[int] = []
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < seconds or len(latencies) < min_ops:
            if elapsed >= MAX_LOOP_S:
                raise RuntimeError(f"{len(latencies)} operations in {MAX_LOOP_S} s; need {min_ops}")
            latencies.append(self.step(tracer))
            yardstick.append(reference.time_ns())
        return latencies, yardstick


def per_op_kind_ns(recorded, kinds: dict[str, str], kind: str, ops) -> list[int]:
    """Per operation, the summed duration of block spans of one kind."""
    acc = defaultdict(int)
    for s in recorded:
        if kinds.get(s.name.removeprefix("block.")) == kind:
            acc[s.op] += s.end - s.start
    return [acc[i] for i in ops]


def add_timing(metrics: Metrics, name: str, samples_ns: list[int], yardstick_ns: list[int]) -> None:
    """``<name>_ms`` mean, median and tail, and ``<name>_ref``: the mean in reference-kernel runs."""
    ms = [s / 1e6 for s in samples_ns]
    metrics.add(f"{name}_ref.mean", stats.mean(samples_ns) / stats.mean(yardstick_ns), "ref", len(ms))
    metrics.add(f"{name}_ms.mean", stats.mean(ms), "ms", len(ms))
    metrics.add(f"{name}_ms.p50", stats.median(ms), "ms", len(ms))
    metrics.add(f"{name}_ms.p{stats.TAIL_Q}", stats.tail(ms), "ms", len(ms))


def plain_run(wl, loop: Loop, seconds: float) -> Metrics:
    metrics = Metrics()
    setup = repeat_setup(wl)
    metrics.add("setup_s", stats.median(setup), "s", len(setup))
    reference = Reference()
    for _ in range(WARMUP_OPS):
        loop.step()
        reference.run()
    first = loop.next_op
    with spans.Tracer() as timers:
        spans.patch_block_timers(timers, wl.block_names())
        lat, yardstick = loop.run_for(seconds, stats.min_samples(), reference, timers)
    ops = range(first, loop.next_op)
    add_timing(metrics, "latency", lat, yardstick)
    metrics.add("throughput_per_s", wl.images_per_op * len(lat) / (sum(lat) / 1e9),
                "images/s", len(lat))
    kinds = wl.block_kinds()
    for kind in ("dca", "sa"):
        add_timing(metrics, kind, per_op_kind_ns(timers.spans, kinds, kind, ops), yardstick)
    metrics.add("reference_ms.mean", stats.mean(yardstick) / 1e6, "ms", len(yardstick))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics.add("peak_rss_mib", peak_kib / 1024, "MiB", 1)
    return metrics


def traced_run(wl, loop: Loop, seconds: float) -> tuple[Metrics, list]:
    """Alternate untraced and traced operations, so both see the same machine state."""
    names: dict[int, str] = {}
    with spans.Tracer() as setup_tracer:
        spans.patch_all(setup_tracer, names)
        wl.setup()
    names.update(wl.block_names())
    for _ in range(WARMUP_OPS):
        loop.step()

    timers, meter = spans.Tracer(), T.MacCounter()
    tracer = spans.Tracer(meter)
    plain: list[int] = []
    traced: list[int] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < TRACE_MIN_OPS:
        with timers:
            spans.patch_block_timers(timers, names)
            plain.append(loop.step(timers))
        with meter, tracer:
            spans.patch_all(tracer, names)
            traced.append(loop.step(tracer))
    n = len(traced)

    layers = Metrics()
    table, checks = layer_table(wl, setup_tracer.spans, tracer.spans, meter.total, n)
    for name, (value, unit) in table.items():
        layers.add(name, value, unit, n)
    untraced_ms, traced_ms = stats.median(plain) / 1e6, stats.median(traced) / 1e6
    layers.add("trace.overhead_pct", 100.0 * (traced_ms / untraced_ms - 1.0), "%", n)
    layers.add("trace.untraced_latency_ms.p50", untraced_ms, "ms", len(plain))
    layers.add("trace.traced_latency_ms.p50", traced_ms, "ms", n)
    return layers, checks


def layer_table(wl, setup_spans, op_spans, macs_total: int, n: int):
    """Per-layer values (per operation unless named ``_s``) and the MAC checks."""
    tot = spans.totals(op_spans)
    zero = spans.Totals(0, 0, 0, 0, 0)
    get = lambda name: tot.get(name, zero)  # noqa: E731
    per_op_ms = lambda ns: ns / 1e6 / n  # noqa: E731
    table: dict[str, tuple[float, str]] = {}

    for op in spans.tensor_ops():
        t = get(f"tensor.{op}")
        table[f"tensor.{op}.self_ms"] = (per_op_ms(t.self_ns), "ms")
        table[f"tensor.{op}.calls"] = (t.calls / n, "count")
        table[f"tensor.{op}.out_mib"] = (t.size / 2**20 / n, "MiB")
    table["tensor.backward_ms"] = (per_op_ms(get("tensor.backward").total_ns), "ms")
    table["tensor.graph_nodes"] = (get("tensor.graph").size / n, "count")
    table["tensor.macs"] = (macs_total / n, "count")

    cross, self_ = get("attention.cross"), get("attention.self")
    table["attention.cross_ms"] = (per_op_ms(cross.total_ns), "ms")
    table["attention.self_ms"] = (per_op_ms(self_.total_ns), "ms")
    table["attention.calls"] = ((cross.calls + self_.calls) / n, "count")

    # blocks: join traced instances to count_model rows, then report per group and per kind
    blocks = {k.removeprefix("block."): v for k, v in tot.items() if k.startswith("block.")}
    kinds = wl.block_kinds()
    rows = wl.rows()
    if rows and set(blocks) != set(rows):
        raise RuntimeError(
            f"traced blocks and count_model rows disagree: only traced "
            f"{sorted(set(blocks) - set(rows))}, only in count_model "
            f"{sorted(set(rows) - set(blocks))}"
        )
    checks = []
    for name, (kind, row_macs) in rows.items():
        if kind != "downsample":  # the model runs the meta projection outside Downsample
            measured = blocks[name].macs // n
            checks.append(Check(f"{name} MACs {measured} == count_model {row_macs}",
                                blocks[name].macs == row_macs * n))
    by_group = defaultdict(lambda: [0, 0])
    by_kind = defaultdict(lambda: [0, 0])
    for name, t in blocks.items():
        for key, acc in ((group_of(name), by_group), (kinds[name], by_kind)):
            acc[key][0] += t.total_ns
            acc[key][1] += t.macs
    for acc in (by_group, by_kind):
        for key, (ns, macs) in sorted(acc.items()):
            table[f"blocks.{key}.ms"] = (per_op_ms(ns), "ms")
            table[f"blocks.{key}.gmac_s"] = (macs / ns if ns else 0.0, "GMAC/s")

    table["model.forward_ms"] = (per_op_ms(get("model.forward").total_ns), "ms")
    table["trainer.optimizer_ms"] = (per_op_ms(get("trainer.optimizer").total_ns), "ms")
    table["fileio.read_ms"] = (per_op_ms(get("fileio.read").total_ns), "ms")
    setup_tot = spans.totals(setup_spans)
    for key, name in (("trainer.synth_s", "trainer.synth"), ("checkpoint.load_s", "checkpoint.load")):
        table[key] = (setup_tot.get(name, zero).total_ns / 1e9, "s")

    expected = wl.expected_macs()
    if expected is not None:
        checks.append(Check(f"traced MACs per op {macs_total / n:.0f} == count_model {expected}",
                            macs_total == expected * n))
    return table, checks


def run_one(args, blas_threads: int) -> int:
    """Run one workload, print its report and, last, its JSON result line."""
    env = envinfo.stamp(blas_threads)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(wl)
        if args.trace:
            metrics, checks = traced_run(wl, loop, args.seconds)
            declared = BENCHMARK["per_layer"]
        else:
            metrics, checks = plain_run(wl, loop, args.seconds), []
            declared = BENCHMARK["end_to_end"]
        mismatched, finish_checks = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks += finish_checks
    failed_ops = loop.failed | mismatched
    attempted = loop.next_op + len(checks)
    failed = len(failed_ops) + sum(not c.passed for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.json(declared),
    }

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(metrics.lines()))
    for c in checks:
        print(f"  check {'PASS' if c.passed else 'FAIL'}: {c.what}")
    print(f"  operations attempted {attempted} failed {failed}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env,
                  table={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.rows.items()},
                  checks=[{"what": c.what, "passed": c.passed} for c in checks])
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0
