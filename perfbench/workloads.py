"""The three closed-loop workloads, each driven through metavit's public API.

Every workload builds its inputs from the run's seed alone, exposes one
operation that the harness times, a cheap per-operation output check, and
whole-run checks that run after timing. The harness calls metavit's
modules through their attributes (``checkpoint.load_checkpoint``) so the
span hooks in ``spans`` see the calls.

Why these three:

* ``train-step`` is the only workload that records a graph and runs
  backward; with 256 tokens per image, conv, GELU, layer norm and autograd
  dominate, not attention.
* ``infer-224`` is forward-only at the paper's resolution through the
  ``metavit infer`` path (checkpoint load, tensor-file read, classify);
  stage-1 dual cross-attention at N=3136 is elementwise and memory bound.
* ``block-pair`` is the paper's headline comparison: one dual
  cross-attention and one standard attention block at N=3136, where only
  standard attention builds the 3136x3136 attention matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metavit import checkpoint, fileio, trainer
from metavit import tensor as T
from metavit.blocks import DCABlock, ParamStore, SABlock, TokenGrid
from metavit.complexity import count_model
from metavit.model import Model, build_variant, variant
from metavit.tensor import Tensor

@dataclass
class Check:
    """A whole-run check; it counts as one attempted operation."""

    what: str
    passed: bool


def model_block_names(model: Model) -> dict[int, str]:
    """Instance id -> row name, in the scheme ``count_model`` uses."""
    names = {id(model.stem): "stem"}
    if model.meta_stem is not None:
        names[id(model.meta_stem)] = "meta_stem"
    for g, group in enumerate(model.groups):
        for b, blk in enumerate(group):
            names[id(blk)] = f"s{g}.b{b}"
    for i, ds in enumerate(model.downsamples, start=1):
        names[id(ds)] = f"ds{i}"
    return names


def group_of(name: str) -> str:
    """``s1.b0`` -> ``s1``; stems and downsamples are their own group."""
    return name.split(".")[0]


def mac_check(model: Model, batch: np.ndarray, expected: int) -> Check:
    """One untimed forward under MacCounter must equal count_model exactly."""
    with T.MacCounter() as meter, T.no_grad():
        model.forward_classify(Tensor(batch))
    return Check(f"forward MACs {meter.total} == count_model {expected}",
                 meter.total == expected)


class ModelWorkload:
    """Shared bookkeeping for the two workloads that run a whole model."""

    spec = None
    input_px = 0
    images_per_op = 1

    def rows(self) -> dict[str, tuple[str, int]]:
        """count_model rows that a block instance runs: name -> (kind, macs per op)."""
        report = count_model(self.spec, self.input_px)
        return {
            e.name: ("meta_stem" if e.name == "meta_stem" else e.kind,
                     (e.macs + e.attn_macs) * self.images_per_op)
            for e in report.entries if e.kind not in ("param", "head")
        }

    def expected_macs(self) -> int:
        report = count_model(self.spec, self.input_px)
        return (report.total_macs + report.total_attn_macs) * self.images_per_op

    def block_names(self) -> dict[int, str]:
        return model_block_names(self.model)

    def block_kinds(self) -> dict[str, str]:
        return {name: kind for name, (kind, _) in self.rows().items()}


class TrainStep(ModelWorkload):
    """One AdamW training step of ``tiny-narrow`` on a batch of 32 synthetic 64 px images."""

    name = "train-step"
    spec = variant("tiny-narrow", num_classes=3)
    input_px = 64
    images_per_op = 32
    samples = 96
    # 1e-2 sits on the ln(3) plateau for 100+ steps; 1e-4 lowers the loss within ~10 steps,
    # so "last loss below the first" is a real check on any seed
    lr = 1e-4
    weight_decay = 0.01
    replay_steps = 3
    max_steps = 1200  # batch order repeats after this many steps

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self):
        data = trainer.make_synth(self.samples, noise_sigma=0.1, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        epochs = -(-self.max_steps * self.images_per_op // self.samples)
        order = np.concatenate([rng.permutation(self.samples) for _ in range(epochs)])
        return data, order.reshape(-1, self.images_per_op)

    def setup(self) -> None:
        self.model = self.opt = self.data = None  # a repeated set-up holds one model at a time
        self.model = build_variant(self.spec, self.seed)
        self.data, self.batches = self.inputs()
        self.opt = trainer.AdamWLite(
            list(self.model.parameters().values()), self.lr, weight_decay=self.weight_decay
        )
        self.losses: list[float] = []

    def op(self, i: int) -> float:
        idx = self.batches[i % len(self.batches)]
        self.model.zero_grads()
        logits = self.model.forward_classify(Tensor(self.data.images[idx]))
        loss = T.cross_entropy(logits, self.data.labels[idx])
        T.backward(loss)
        self.opt.step()
        return loss.item()

    def check(self, i: int, loss: float) -> bool:
        self.losses.append(loss)
        return math.isfinite(loss)

    def finish(self) -> tuple[set[int], list[Check]]:
        losses = self.losses
        fresh = TrainStep(self.seed, None)
        fresh.setup()
        replay = [fresh.op(i) for i in range(self.replay_steps)]
        return set(), [
            Check(f"last loss {losses[-1]:.6g} < first {losses[0]:.6g}", losses[-1] < losses[0]),
            Check(f"replayed losses {replay} == {losses[:self.replay_steps]}",
                  replay == losses[:self.replay_steps]),
            mac_check(self.model, self.data.images[self.batches[0]], self.expected_macs()),
        ]


class Infer224(ModelWorkload):
    """``metavit infer``: load a ``tiny`` checkpoint, read a 224 px tensor file, classify."""

    name = "infer-224"
    spec = variant("tiny")
    input_px = 224
    images = 4
    # float32 logits against a float64 build of the same seed; observed error is below 1e-6
    rtol = 1e-5
    atol = 1e-5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        shape = (self.images, 3, self.input_px, self.input_px)
        return rng.uniform(-1.0, 1.0, shape).astype(np.float32)

    def setup(self) -> None:
        self.model = None  # a repeated set-up holds one model at a time
        ckpt = str(self.workdir / "tiny.lmvt")
        checkpoint.save_checkpoint(build_variant(self.spec, self.seed), ckpt)
        self.paths = []
        for k, img in enumerate(self.inputs()):
            path = str(self.workdir / f"image{k}.ten")
            fileio.write_tensor_file(path, img, name=f"image{k}")
            self.paths.append(path)
        self.model = checkpoint.load_checkpoint(ckpt)
        self.logits: dict[int, np.ndarray] = {}

    def op(self, i: int) -> np.ndarray:
        _, img = fileio.read_tensor_file(self.paths[i % self.images])
        with T.no_grad():
            return self.model.forward_classify(Tensor(img)).data

    def check(self, i: int, logits: np.ndarray) -> bool:
        self.logits[i] = logits
        return logits.shape == (self.spec.num_classes,) and bool(np.isfinite(logits).all())

    def finish(self) -> tuple[set[int], list[Check]]:
        images = self.inputs()
        ref_model = build_variant(self.spec, self.seed, dtype=np.float64)
        with T.no_grad():
            refs = [ref_model.forward_classify(Tensor(img.astype(np.float64))).data
                    for img in images]
        mismatched = {
            i for i, logits in self.logits.items()
            if not np.allclose(logits, refs[i % self.images], rtol=self.rtol, atol=self.atol)
        }
        return mismatched, [mac_check(self.model, images[0], self.expected_macs())]


class BlockPair:
    """One DCABlock and one SABlock forward at N=3136, M=16, D=64, as in ``bench_block_pair``."""

    name = "block-pair"
    images_per_op = 1  # one 56x56 grid: the stride-4 grid of one 224 px image
    side, m, d, e = 56, 16, 64, 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        tokens = rng.standard_normal((self.side * self.side, self.d)).astype(np.float32)
        meta = rng.standard_normal((self.m, self.d)).astype(np.float32)
        return tokens, meta

    def setup(self) -> None:
        self.dca = self.sa = None  # a repeated set-up holds one pair at a time
        store = ParamStore(self.seed)
        head_dim = min(32, self.d)
        self.dca = DCABlock(store, "bench.dca", self.d, head_dim=head_dim, expansion=self.e)
        self.sa = SABlock(store, "bench.sa", self.d, head_dim=head_dim, expansion=self.e)
        self.tokens, self.meta = self.inputs()

    def op(self, i: int):
        outs = []
        with T.no_grad():
            for block in (self.dca, self.sa):
                grid, meta = block(TokenGrid(Tensor(self.tokens), self.side, self.side),
                                   Tensor(self.meta))
                outs += [grid.tokens.data, meta.data]
        return outs

    def check(self, i: int, outs) -> bool:
        shapes = [(self.side * self.side, self.d), (self.m, self.d)] * 2
        return ([o.shape for o in outs] == shapes
                and all(bool(np.isfinite(o).all()) for o in outs))

    def finish(self) -> tuple[set[int], list[Check]]:
        return set(), []

    def block_names(self) -> dict[int, str]:
        return {id(self.dca): "dca", id(self.sa): "sa"}

    def block_kinds(self) -> dict[str, str]:
        return {"dca": "dca", "sa": "sa"}

    def rows(self) -> dict[str, tuple[str, int]]:
        return {}

    def expected_macs(self) -> None:
        return None


WORKLOADS = {w.name: w for w in (TrainStep, Infer224, BlockPair)}
