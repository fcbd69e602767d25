"""Finite-difference verification of the reverse-mode gradients.

Every differentiable kernel and block is checked in float64 against
central differences with step 1e-5. The reported number per case is

    max |analytic - numeric| / max(1, max |analytic|, max |numeric|)

over the sampled coordinates, i.e. the worst deviation normalized by the
gradient scale (with a floor of one so exactly-zero gradients compare by
absolute error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, MhaParams, multi_head_attention
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
             seed: int = 0, h: float = FD_STEP) -> float:
    """Compare backward() gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild its graph from the current leaf data on every
    call. When ``sample`` is given, at most that many coordinates are probed
    per leaf (uniformly chosen); otherwise all coordinates are probed.
    """
    rng = np.random.default_rng(seed)
    T.zero_grads(leaves)
    loss = loss_fn()
    T.backward(loss)
    analytic = [np.array(p.grad, copy=True) if p.grad is not None
                else np.zeros_like(p.data) for p in leaves]

    worst_abs = 0.0
    scale = max(1.0, max((np.abs(a).max() if a.size else 0.0) for a in analytic))
    for leaf, grads in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        count = flat.size if sample is None else min(sample, flat.size)
        coords = (np.arange(flat.size) if sample is None
                  else rng.choice(flat.size, size=count, replace=False))
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + h
            above = loss_fn().item()
            flat[idx] = original - h
            below = loss_fn().item()
            flat[idx] = original
            numeric = (above - below) / (2.0 * h)
            scale = max(scale, abs(numeric))
            worst_abs = max(worst_abs, abs(grads.reshape(-1)[idx] - numeric))
    return worst_abs / scale


def _weighted_sum(*outputs, seed: int = 7) -> Tensor:
    """sum(out * w) over ``outputs`` with fixed random weights, each term one
    ``linear`` of the flattened output against a (size, 1) weight column."""
    rng = np.random.default_rng(seed)
    total = None
    for out in outputs:
        w = Tensor(rng.standard_normal((out.size, 1)))
        term = T.linear(T.reshape(out, (1, out.size)), w, Tensor(np.zeros(1)))
        total = term if total is None else T.add(total, term)
    return total


def _kernel_cases(seed: int) -> list[CheckCase]:
    rng = np.random.default_rng(seed)
    cases = []

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    a, b = leaf(4, 5), leaf(5, 3)
    cases.append(CheckCase("matmul", fd_check(lambda: _weighted_sum(T.matmul(a, b)), [a, b])))

    ab, bb = leaf(2, 4, 5), leaf(2, 5, 3)
    cases.append(CheckCase(
        "matmul-batched", fd_check(lambda: _weighted_sum(T.matmul(ab, bb)), [ab, bb])
    ))

    x = leaf(4, 6)
    cases.append(CheckCase("softmax_rows", fd_check(lambda: _weighted_sum(T.softmax_rows(x)), [x])))

    xn, g, bta = leaf(3, 8), leaf(8), leaf(8)
    cases.append(CheckCase(
        "layer_norm", fd_check(lambda: _weighted_sum(T.layer_norm(xn, g, bta)), [xn, g, bta])
    ))

    xg = leaf(5, 7)
    cases.append(CheckCase("gelu", fd_check(lambda: _weighted_sum(T.gelu(xg)), [xg])))

    # conv inputs are channels-last (B, H, W, C)
    xc, wc, bc = leaf(2, 6, 6, 3), leaf(4, 3, 3, 3), leaf(4)
    cases.append(CheckCase(
        "conv2d",
        fd_check(lambda: _weighted_sum(T.conv2d(xc, wc, bc, stride=2, padding=1)), [xc, wc, bc]),
    ))

    xd, wd, bd = leaf(2, 5, 5, 4), leaf(4, 1, 3, 3), leaf(4)
    cases.append(CheckCase(
        "conv2d-depthwise",
        fd_check(lambda: _weighted_sum(T.conv2d(xd, wd, bd, stride=1, padding=1)), [xd, wd, bd]),
    ))

    cases.append(CheckCase(
        "conv2d-depthwise-stride2",
        fd_check(lambda: _weighted_sum(T.conv2d(xd, wd, bd, stride=2, padding=1)), [xd, wd, bd]),
    ))
    rng.standard_normal(314)  # skip 314 draws so the cases below keep their inputs

    xp = leaf(6, 5)
    cases.append(CheckCase(
        "global_avg_pool", fd_check(lambda: _weighted_sum(T.global_avg_pool(xp)), [xp])
    ))

    logits = leaf(4, 5)
    labels = rng.integers(0, 5, size=4)
    cases.append(CheckCase(
        "cross_entropy", fd_check(lambda: T.cross_entropy(logits, labels), [logits])
    ))

    xl, wl, bl = leaf(2, 3, 4), leaf(4, 5), leaf(5)
    cases.append(CheckCase(
        "linear-rank3", fd_check(lambda: _weighted_sum(T.linear(xl, wl, bl)), [xl, wl, bl])
    ))

    # one non-leaf read by three ops; backward reaches the consumer of the first
    # output first, so global_avg_pool's read-only broadcast view is h's first gradient
    xf, wf = leaf(3, 4), leaf(4, 2)

    def fan_in():
        h = T.gelu(xf)
        return _weighted_sum(T.global_avg_pool(h), T.linear(h, wf, Tensor(np.zeros(2))), h)

    cases.append(CheckCase("fan-in", fd_check(fan_in, [xf, wf])))

    # batch 2, 4 keys, 7 query rows: a 24-logit tile budget gives tiles of 3, 3 and 1 rows
    qa, ka, va = leaf(2, 7, 3), leaf(2, 4, 3), leaf(2, 4, 5)
    cases.append(CheckCase(
        "attention-tiled",
        fd_check(lambda: _weighted_sum(T.attention(qa, ka, va, 0.6, tile_elements=2 * 4 * 3)),
                 [qa, ka, va]),
    ))
    # 2 heads in the merged layout: a 32-logit budget gives tiles of 2, 2 and 1 rows
    qh, kh, vh = leaf(2, 5, 6), leaf(2, 4, 6), leaf(2, 4, 4)
    cases.append(CheckCase(
        "attention-heads",
        fd_check(lambda: _weighted_sum(T.attention(qh, kh, vh, 0.6, heads=2,
                                                   tile_elements=2 * 2 * 4 * 2)), [qh, kh, vh]),
    ))
    # logits near 900, past exp's float64 range, so the row max is subtracted;
    # the keys share their first coordinate, so each row's logits differ by O(1)
    qu, ku, vu = leaf(2, 5, 4), leaf(2, 4, 4), leaf(2, 4, 3)
    qu.data[..., 0] += 30.0
    ku.data[..., 0] = 30.0
    cases.append(CheckCase(
        "attention-unbounded",
        fd_check(lambda: _weighted_sum(T.attention(qu, ku, vu, 1.0)), [qu, ku, vu]),
    ))
    # a 5x5 CPE kernel (VariantSpec.cpe_kernel = 5) with the CPE's padding k // 2
    x5, w5, b5 = leaf(2, 6, 7, 4), leaf(4, 1, 5, 5), leaf(4)
    cases.append(CheckCase(
        "conv2d-depthwise-5x5",
        fd_check(lambda: _weighted_sum(T.conv2d(x5, w5, b5, stride=1, padding=2)), [x5, w5, b5]),
    ))
    return cases


def _mha_case(seed: int) -> CheckCase:
    rng = np.random.default_rng(seed)
    dim, head_dim = 8, 4
    cfg = AttentionConfig(dim, head_dim)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)

    params = MhaParams(*(leaf(dim, dim) if i % 2 == 0 else leaf(dim) for i in range(8)))
    q, k, v = leaf(5, dim), leaf(3, dim), leaf(3, dim)
    leaves = [q, k, v, params.wq, params.bq, params.wk, params.bk,
              params.wv, params.bv, params.wo, params.bo]
    err = fd_check(
        lambda: _weighted_sum(multi_head_attention(q, k, v, cfg, params)), leaves
    )
    return CheckCase("multi_head_attention", err)


def _block_case(kind: str, seed: int, sequential: bool = False) -> CheckCase:
    rng = np.random.default_rng(seed)
    dim, head_dim, expansion = 8, 4, 2
    n_side, m = 4, 4  # 16 image tokens, 4 meta tokens
    store = ParamStore(seed, dtype=np.float64)
    block = BLOCKS[kind](store, "blk", dim, head_dim, expansion, sequential=sequential)
    # keep weights O(1) so gradient scales are meaningful for the check
    for name, p in store.params.items():
        if p.data.ndim >= 2:
            p.data = rng.standard_normal(p.shape) * 0.3

    tokens = Tensor(rng.standard_normal((n_side * n_side, dim)), requires_grad=True)
    meta = Tensor(rng.standard_normal((m, dim)), requires_grad=True)
    leaves = [tokens, meta] + list(store.params.values())

    def loss_fn():
        grid_out, meta_out = block(TokenGrid(tokens, n_side, n_side), meta)
        return _weighted_sum(grid_out.tokens, meta_out)

    label = kind if not sequential else "dca-sequential"
    return CheckCase(f"block-{label}", fd_check(loss_fn, leaves, sample=6, seed=seed))


def _model_case(seed: int, sample_params: int = 24) -> CheckCase:
    spec = variant("tiny-narrow", num_classes=3)
    model = Model(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    img = Tensor(rng.standard_normal((1, 3, 64, 64)))  # a batch of one
    labels = np.array([rng.integers(0, 3)])

    def loss_fn():
        return T.cross_entropy(model.forward_classify(img), labels)

    names = sorted(model.parameters())
    picked = rng.choice(len(names), size=min(sample_params, len(names)), replace=False)
    leaves = [model.parameters()[names[i]] for i in picked]
    return CheckCase("model-tiny-narrow", fd_check(loss_fn, leaves, sample=2, seed=seed))


def run_suite(seed: int = 0, include_model: bool = True) -> list[CheckCase]:
    """The full gradient-check battery; every case must stay below 1e-4."""
    cases = _kernel_cases(seed)
    cases.append(_mha_case(seed + 1))
    cases.append(_block_case("ca", seed + 2))
    cases.append(_block_case("dca", seed + 3))
    cases.append(_block_case("dca", seed + 4, sequential=True))
    cases.append(_block_case("sa", seed + 5))
    if include_model:
        cases.append(_model_case(seed + 6))
    return cases
