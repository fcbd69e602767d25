"""Tests of the benchmark's own statistics, spans and input generation.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from metavit import tensor as T  # noqa: E402
from metavit.model import build_variant, variant  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    assert stats.min_samples(90) == 100
    rng = random.Random(0)
    for n in range(stats.min_samples(90), 400):
        samples = rng.sample(range(10 * n), n)
        value = stats.tail(samples, 90)
        assert sum(s > value for s in samples) >= stats.MIN_BEYOND


@pytest.mark.parametrize("n", [1, 10, 50, 99])
def test_tail_refuses_too_few_samples(n):
    with pytest.raises(ValueError):
        stats.tail(list(range(n)), 90)


def test_quartile_spread_is_share_of_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([9, 9, 9, 10, 10, 10, 10, 11, 11, 11]) == pytest.approx(0.2)


def test_gated_timing_is_mean_in_reference_runs():
    metrics = harness.Metrics()
    samples = [10_000_000 * k for k in range(1, 111)]  # 10 ms .. 1.1 s
    harness.add_timing(metrics, "latency", samples, [5_000_000] * 110)
    assert metrics.rows["latency_ref.mean"][:2] == (pytest.approx(111.0), "ref")
    assert metrics.rows["latency_ms.mean"][0] == pytest.approx(555.0)


def _traced_train_step():
    model = build_variant(variant("tiny-narrow", num_classes=3), 0)
    names = workloads.model_block_names(model)
    images = np.random.default_rng(0).standard_normal((2, 3, 64, 64)).astype(np.float32)
    with T.MacCounter() as meter, spans.Tracer(meter) as tracer:
        spans.patch_all(tracer, names)
        loss = T.cross_entropy(model.forward_classify(T.Tensor(images)), [0, 1])
        T.backward(loss)
    return tracer.spans


def test_self_time_never_negative():
    recorded = _traced_train_step()
    own = spans.self_times(recorded)
    assert len(own) > 100
    assert min(own) >= 0
    # self times of a tree add up to the duration of its roots
    roots = sum(s.end - s.start for s in recorded if s.parent < 0)
    assert sum(own) == roots


def test_linear_span_contains_matmul_and_add():
    recorded = _traced_train_step()
    children = {
        recorded[i].name for i, s in enumerate(recorded)
        if s.parent >= 0 and recorded[s.parent].name == "tensor.linear"
    }
    assert {"tensor.matmul", "tensor.add"} <= children


def test_tracer_restores_patched_callables():
    originals = {op: getattr(T, op) for op in spans.tensor_ops()}
    call = workloads.DCABlock.__call__
    with spans.Tracer() as tracer:
        spans.patch_all(tracer, {})
        assert T.matmul is not originals["matmul"]
    assert {op: getattr(T, op) for op in originals} == originals
    assert workloads.DCABlock.__call__ is call


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    return _same(a.images, b.images) and _same(a.labels, b.labels)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_repeated_seed_reproduces_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path).inputs()
    assert _same(first, cls(7, tmp_path).inputs())
    assert not _same(first, cls(8, tmp_path).inputs())


class _FakeModelWorkload:
    def rows(self):
        return {"s1.b0": ("dca", 10), "s1.b1": ("dca", 10)}

    def block_kinds(self):
        return {"s1.b0": "dca", "s1.b1": "dca"}

    def expected_macs(self):
        return 20


def test_block_join_fails_loudly_on_a_missing_name():
    traced = [spans.Span("block.s1.b0", 0, 5, -1, 0, 0, 10)]
    with pytest.raises(RuntimeError, match="s1.b1"):
        harness.layer_table(_FakeModelWorkload(), [], traced, 10, 1)

