"""Outside-in spans around metavit's public callables.

The benchmark never edits the package. It records spans by replacing
public callables (module functions, class methods) with wrappers for the
duration of a run and restoring them afterwards. Calls that the package
makes through a module attribute (``T.matmul`` inside ``blocks``) or a
module global (``matmul`` inside ``tensor.linear``) both go through the
wrapper, so nested ops nest as spans.

Spans live in memory as plain records. A span's self time is its
duration minus the durations of its direct children; children run inside
their parent and one after another, so with an integer clock self time is
never negative.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple

from metavit import blocks, checkpoint, fileio, model, trainer
from metavit import tensor as T

# tensor-module functions that are not ops, or are traced under another name
_NOT_OPS = {"no_grad", "backward", "zero_grads"}

BLOCK_CLASSES = (
    blocks.ImageStem, blocks.MetaStem, blocks.CABlock,
    blocks.DCABlock, blocks.SABlock, blocks.Downsample,
)


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # workload operation the span belongs to, -1 during set-up
    size: int  # bytes of a returned tensor, nodes of a returned graph
    macs: int  # multiply-accumulates counted while the span was open


def _size(out) -> int:
    if isinstance(out, T.Tensor):
        return out.data.nbytes
    if isinstance(out, T.Graph):
        return len(out)
    return 0


class Tracer:
    """Records spans around the callables it patches until ``close``."""

    def __init__(self, mac_counter: T.MacCounter | None = None):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._macs = mac_counter
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, name) -> None:
        """Wrap ``owner.attr``; ``name`` is a label or a function of the call's arguments."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def close(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, self._macs
        label_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(*args) if label_of else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            macs0 = counter.total if counter else 0
            out = None
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                macs = counter.total - macs0 if counter else 0
                spans[index] = Span(label, start, end, parent, self.op, _size(out), macs)

        return traced


def tensor_ops() -> list[str]:
    """Public op functions of ``metavit.tensor``, discovered at run time."""
    return sorted(
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__
        and not name.startswith("_") and name not in _NOT_OPS
    )


def block_label(names: dict[int, str]):
    """Span label of a block instance: its name in the model, or ``unnamed``."""
    return lambda self, *args: "block." + names.get(id(self), "unnamed")


def patch_block_timers(tracer: Tracer, names: dict[int, str]) -> None:
    """The light hooks kept on in untraced runs: DCA and SA block calls only."""
    for cls in (blocks.DCABlock, blocks.SABlock):
        tracer.patch(cls, "__call__", block_label(names))


def patch_all(tracer: Tracer, names: dict[int, str]) -> None:
    """Every layer boundary the per-layer table reports."""
    for op in tensor_ops():
        tracer.patch(T, op, f"tensor.{op}")
    tracer.patch(T, "backward", "tensor.backward")
    tracer.patch(T.Graph, "trace", "tensor.graph")
    # blocks imports multi_head_attention by name; self-attention passes one tensor as q and k
    tracer.patch(
        blocks, "multi_head_attention",
        lambda q, k, *args: "attention.self" if q is k else "attention.cross",
    )
    for cls in BLOCK_CLASSES:
        tracer.patch(cls, "__call__", block_label(names))
    tracer.patch(model.Model, "forward_classify", "model.forward")
    tracer.patch(trainer.AdamWLite, "step", "trainer.optimizer")
    tracer.patch(trainer, "make_synth", "trainer.synth")
    tracer.patch(checkpoint, "load_checkpoint", "checkpoint.load")
    tracer.patch(fileio, "read_tensor_file", "fileio.read")


class Totals(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int
    size: int
    macs: int


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child_ns)]


def totals(spans: list[Span], keep=lambda span: True) -> dict[str, Totals]:
    """Per-name sums over the spans that ``keep`` selects."""
    acc = defaultdict(lambda: [0, 0, 0, 0, 0])
    for span, own in zip(spans, self_times(spans)):
        if keep(span):
            row = acc[span.name]
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += own
            row[3] += span.size
            row[4] += span.macs
    return {name: Totals(*row) for name, row in acc.items()}
