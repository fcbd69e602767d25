"""The package names the benchmark hooks into, checked without timing anything.

``perfbench`` traces the package from outside: it wraps public callables
by name and reports per-op metrics that ``BENCHMARK.json`` declares by
name. A package change that drops one of those names makes every traced
benchmark run raise, which these tests catch first. They also keep the
tensor module free of ops that neither the model runs nor the benchmark
declares, and pin the self/cross label the benchmark reads off the
arguments of each attention call.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from metavit import tensor as T  # noqa: E402
from metavit.model import build_variant, variant  # noqa: E402
from metavit.tensor import Tensor  # noqa: E402
from metavit.trainer import make_synth  # noqa: E402

PER_OP = ("self_ms", "calls", "out_mib")  # the per-op columns of the layer table


def _declared_ops() -> set[str]:
    """The tensor ops that ``BENCHMARK.json`` reports per-op columns for."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {
        m["name"].removeprefix("tensor.").rsplit(".", 1)[0]
        for m in declared
        if m["name"].startswith("tensor.") and m["name"].rsplit(".", 1)[1] in PER_OP
    }


def test_declared_tensor_ops_exist():
    ops = _declared_ops()
    assert ops and ops <= set(spans.tensor_ops())


def test_every_tensor_op_is_run_or_declared():
    # an op that one recorded training step never calls and the benchmark does not name is dead
    model = build_variant(variant("tiny-narrow", num_classes=3), 0)
    data = make_synth(3, seed=0)
    with spans.Tracer() as tracer:
        for op in spans.tensor_ops():
            tracer.patch(T, op, op)
        logits = model.forward_classify(Tensor(data.images[:2]))
        T.backward(T.cross_entropy(logits, data.labels[:2]))
    called = {span.name for span in tracer.spans}
    assert set(spans.tensor_ops()) - called - _declared_ops() == set()


def test_patch_all_is_undone_by_close():
    tracer = spans.Tracer()
    try:
        spans.patch_all(tracer, {})
        patched = list(tracer._patches)
        assert patched
        for owner, attr, raw in patched:
            assert vars(owner)[attr] is not raw, (owner, attr)
    finally:
        tracer.close()
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw, (owner, attr)


def test_attention_labels_match_the_block_kind():
    # SA blocks (s3, s4) attend each stream to itself; CA and DCA blocks (s0-s2) cross streams
    model = build_variant(variant("tiny-narrow", num_classes=3), 0)
    with spans.Tracer() as tracer:
        spans.patch_all(tracer, workloads.model_block_names(model))
        model.forward_classify(Tensor(make_synth(3, seed=0).images[:2]))
    groups = {"attention.self": [], "attention.cross": []}
    for span in tracer.spans:
        if span.name.startswith("attention."):
            block = tracer.spans[span.parent].name
            groups[span.name].append(block.removeprefix("block.").split(".")[0])
    assert sorted(groups["attention.self"]) == ["s3"] * 4 + ["s4"] * 2
    assert sorted(groups["attention.cross"]) == ["s0"] + ["s1"] * 2 + ["s2"] * 2
