"""The package names the benchmark hooks into, checked without timing anything.

``perfbench`` traces the package from outside: it wraps public callables
by name and reports per-op metrics that ``BENCHMARK.json`` declares by
name. A package change that drops one of those names makes every traced
benchmark run raise, which these tests catch first.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

PER_OP = ("self_ms", "calls", "out_mib")  # the per-op columns of the layer table


def test_declared_tensor_ops_exist():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    ops = {
        m["name"].removeprefix("tensor.").rsplit(".", 1)[0]
        for m in declared
        if m["name"].startswith("tensor.") and m["name"].rsplit(".", 1)[1] in PER_OP
    }
    assert ops and ops <= set(spans.tensor_ops())


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
