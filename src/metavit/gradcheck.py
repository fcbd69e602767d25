"""Finite-difference verification of the reverse-mode gradients.

Every differentiable kernel and block is checked in float64 against
central differences with step 1e-5. The reported number per case is

    max |analytic - numeric| / max(1, max |analytic|, max |numeric|)

over the sampled coordinates, i.e. the worst deviation normalized by the
gradient scale (with a floor of one so exactly-zero gradients compare by
absolute error).

Each case draws all of its random inputs (leaves, weights, labels and
probed coordinates) from its own generator, seeded by the suite seed and
the case's name, ``np.random.default_rng([seed, *name.encode()])``.
Adding, removing or reordering cases changes no other case's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import MhaParams, multi_head_attention
from .blocks import BLOCKS, ParamStore, TokenGrid
from .model import Model, variant
from .tensor import Tensor

FD_STEP = 1e-5
TOLERANCE = 1e-4


@dataclass
class CheckCase:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def fd_check(loss_fn, leaves: list[Tensor], sample: int | None = None,
             rng: np.random.Generator | None = None) -> float:
    """Compare backward() gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild its graph from the current leaf data on every
    call. When ``sample`` is given, at most that many coordinates per leaf,
    chosen uniformly by ``rng``, are probed; otherwise all coordinates are.
    """
    T.zero_grads(leaves)
    loss = loss_fn()
    T.backward(loss)
    analytic = [np.array(p.grad, copy=True) if p.grad is not None
                else np.zeros_like(p.data) for p in leaves]

    worst_abs = 0.0
    scale = max(1.0, max((np.abs(a).max() if a.size else 0.0) for a in analytic))
    for leaf, grads in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        coords = (np.arange(flat.size) if sample is None
                  else rng.choice(flat.size, size=min(sample, flat.size), replace=False))
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + FD_STEP
            above = loss_fn().item()
            flat[idx] = original - FD_STEP
            below = loss_fn().item()
            flat[idx] = original
            numeric = (above - below) / (2.0 * FD_STEP)
            scale = max(scale, abs(numeric))
            worst_abs = max(worst_abs, abs(grads.reshape(-1)[idx] - numeric))
    return worst_abs / scale


def _weighted_sum(*outputs) -> Tensor:
    """sum(out * w) over ``outputs`` with fixed random weights, each term one
    ``linear`` of the flattened output against a (size, 1) weight column."""
    rng = np.random.default_rng(7)
    total = None
    for out in outputs:
        w = Tensor(rng.standard_normal((out.size, 1)))
        term = T.linear(T.reshape(out, (1, out.size)), w, Tensor(np.zeros(1)))
        total = term if total is None else T.add(total, term)
    return total


def _case_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, *name.encode()])


def _fan_in(x, w):
    # one non-leaf read by three ops; backward reaches the consumer of the first
    # output first, so global_avg_pool's read-only broadcast view is h's first gradient
    h = T.gelu(x)
    return _weighted_sum(T.global_avg_pool(h), T.linear(h, w, Tensor(np.zeros(2))), h)


def _shared_first_key(q, k, v):
    # logits near 900, past exp's float64 range, so the row max is subtracted;
    # the keys share their first coordinate, so each row's logits differ by O(1)
    q.data[..., 0] += 30.0
    k.data[..., 0] = 30.0


def _halve(*leaves):
    for leaf in leaves:
        leaf.data *= 0.5


_DEPTHWISE = [(2, 5, 5, 4), (4, 1, 3, 3), (4,)]

# (name, loss of the leaves, leaf shapes[, edit applied to the drawn leaves])
_KERNEL_ROWS = [
    ("matmul", lambda a, b: _weighted_sum(T.matmul(a, b)), [(4, 5), (5, 3)]),
    ("matmul-batched", lambda a, b: _weighted_sum(T.matmul(a, b)), [(2, 4, 5), (2, 5, 3)]),
    ("softmax_rows", lambda x: _weighted_sum(T.softmax_rows(x)), [(4, 6)]),
    ("layer_norm", lambda x, g, b: _weighted_sum(T.layer_norm(x, g, b)), [(3, 8), (8,), (8,)]),
    ("gelu", lambda x: _weighted_sum(T.gelu(x)), [(5, 7)]),
    # conv inputs are channels-last (B, H, W, C)
    ("conv2d", lambda x, w, b: _weighted_sum(T.conv2d(x, w, b, stride=2)),
     [(2, 6, 6, 3), (4, 3, 3, 3), (4,)]),
    ("conv2d-depthwise", lambda x, w, b: _weighted_sum(T.conv2d(x, w, b)), _DEPTHWISE),
    ("conv2d-depthwise-stride2", lambda x, w, b: _weighted_sum(T.conv2d(x, w, b, stride=2)),
     _DEPTHWISE),
    ("global_avg_pool", lambda x: _weighted_sum(T.global_avg_pool(x)), [(6, 5)]),
    ("cross_entropy", lambda x: T.cross_entropy(x, np.array([3, 0, 4, 1])), [(4, 5)]),
    ("linear-rank3", lambda x, w, b: _weighted_sum(T.linear(x, w, b)),
     [(2, 3, 4), (4, 5), (5,)]),
    ("fan-in", _fan_in, [(3, 4), (4, 2)]),
    # batch 2, 4 keys, 7 query rows: a 24-logit tile budget gives tiles of 3, 3 and 1 rows
    ("attention-tiled",
     lambda q, k, v: _weighted_sum(T.attention(q, k, v, 0.6, tile_elements=2 * 4 * 3)),
     [(2, 7, 3), (2, 4, 3), (2, 4, 5)]),
    # 2 heads in the merged layout: a 32-logit budget gives tiles of 2, 2 and 1 rows
    ("attention-heads",
     lambda q, k, v: _weighted_sum(T.attention(q, k, v, 0.6, heads=2,
                                               tile_elements=2 * 2 * 4 * 2)),
     [(2, 5, 6), (2, 4, 6), (2, 4, 4)]),
    ("attention-unbounded", lambda q, k, v: _weighted_sum(T.attention(q, k, v, 1.0)),
     [(2, 5, 4), (2, 4, 4), (2, 4, 3)], _shared_first_key),
    # a depthwise kernel wider than the CPE's blocks.CPE_KERNEL = 3
    ("conv2d-depthwise-5x5", lambda x, w, b: _weighted_sum(T.conv2d(x, w, b)),
     [(2, 6, 7, 4), (4, 1, 5, 5), (4,)]),
    # queries (5, 8) and key/values (3, 8), then MhaParams' eight weights in field order
    ("multi_head_attention",
     lambda q, kv, *w: _weighted_sum(multi_head_attention(q, kv, MhaParams(*w), 2)),
     [(5, 8), (3, 8)] + [(8, 8), (8,)] * 4, _halve),
]


def _kernel_case(seed: int, name: str, loss, shapes, edit=None) -> CheckCase:
    rng = _case_rng(seed, name)
    leaves = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    if edit is not None:
        edit(*leaves)
    return CheckCase(name, fd_check(lambda: loss(*leaves), leaves))


def _block_case(kind: str, seed: int, sequential: bool = False) -> CheckCase:
    name = f"block-{'dca-sequential' if sequential else kind}"
    rng = _case_rng(seed, name)
    dim, head_dim, expansion = 8, 4, 2
    n_side, m = 4, 4  # 16 image tokens, 4 meta tokens
    store = ParamStore(seed, dtype=np.float64)
    block = BLOCKS[kind](store, "blk", dim, head_dim, expansion, sequential=sequential)
    # keep weights O(1) so gradient scales are meaningful for the check
    for p in store.params.values():
        if p.data.ndim >= 2:
            p.data = rng.standard_normal(p.shape) * 0.3

    tokens = Tensor(rng.standard_normal((n_side * n_side, dim)), requires_grad=True)
    meta = Tensor(rng.standard_normal((m, dim)), requires_grad=True)
    leaves = [tokens, meta] + list(store.params.values())

    def loss_fn():
        grid_out, meta_out = block(TokenGrid(tokens, n_side, n_side), meta)
        return _weighted_sum(grid_out.tokens, meta_out)

    return CheckCase(name, fd_check(loss_fn, leaves, sample=6, rng=rng))


def _model_case(seed: int) -> CheckCase:
    name = "model-tiny-narrow"
    rng = _case_rng(seed, name)
    model = Model(variant("tiny-narrow", num_classes=3), seed=seed, dtype=np.float64)
    img = Tensor(rng.standard_normal((1, 3, 64, 64)))  # a batch of one
    labels = np.array([rng.integers(0, 3)])

    def loss_fn():
        return T.cross_entropy(model.forward_classify(img), labels)

    names = sorted(model.parameters())
    picked = rng.choice(len(names), size=min(24, len(names)), replace=False)
    leaves = [model.parameters()[names[i]] for i in picked]
    return CheckCase(name, fd_check(loss_fn, leaves, sample=2, rng=rng))


def run_suite(seed: int = 0) -> list[CheckCase]:
    """The full gradient-check battery; every case must stay below 1e-4."""
    return ([_kernel_case(seed, *row) for row in _KERNEL_ROWS]
            + [_block_case("ca", seed), _block_case("dca", seed),
               _block_case("dca", seed, sequential=True), _block_case("sa", seed),
               _model_case(seed)])
