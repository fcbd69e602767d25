"""Variant registry, model assembly, and forward passes.

The architecture is hierarchical with four spatial resolutions. Block
group S0 (cross-attention, meta-update only) and S1 (dual cross-attention)
both run on the stride-4 grid at width D1; S2 (dual cross-attention) runs
at stride 8 / D2 after a downsample; S3 and S4 (standard attention) run at
stride 16 / D3 and stride 32 / D4. Meta tokens keep their count at every
stage and track the image width through a linear projection inside each
downsample transition. ``GROUPS`` is the one table of this layout; the
model and ``complexity.count_model`` both read it through ``group_layout``.

Classification pools the image and meta streams separately (each behind
its own final norm), adds the pooled vectors, and applies one linear head.
Dense-prediction consumers take the four image-token grids instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .blocks import BLOCKS, Downsample, ImageStem, LayerNormParams, MetaStem, ParamStore, TokenGrid
from .errors import ConfigError, ContractError, InputError
from .tensor import Tensor


# settings every variant shares
HEAD_DIM = 32  # attention head width
EXPANSION = 4  # FFN hidden width over token width
META_DIM0 = 64  # meta token width before the meta stem maps it to D1


@dataclass(frozen=True)
class VariantSpec:
    """Architecture description: block counts S0..S4 and stage widths D1..D4."""

    name: str
    blocks: tuple[int, int, int, int, int]
    dims: tuple[int, int, int, int]
    meta_len: int = 16
    num_classes: int = 1000
    use_ca_stage: bool = True
    use_meta_stem: bool = True
    use_meta_pooling: bool = True
    dca_sequential: bool = False

    def __post_init__(self):
        if len(self.blocks) != 5 or len(self.dims) != 4:
            raise ConfigError("need 5 block counts and 4 stage widths")
        if any(b < 0 for b in self.blocks):
            raise ConfigError(f"block counts must be non-negative: {self.blocks}")
        if any(d <= 0 or d % HEAD_DIM for d in self.dims):
            raise ConfigError(f"dims {self.dims} must be positive multiples of {HEAD_DIM}")
        if self.meta_len < 2:
            raise ConfigError(f"meta_len must be >= 2, got {self.meta_len}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")


_REGISTRY: dict[str, VariantSpec] = {
    "tiny": VariantSpec("tiny", (1, 2, 2, 8, 2), (64, 128, 192, 320)),
    "small": VariantSpec("small", (1, 2, 2, 6, 2), (96, 192, 320, 384)),
    "base": VariantSpec("base", (2, 4, 4, 18, 4), (96, 192, 384, 512)),
    # desk-scale variant for fast tests and the toy trainer; not a published size
    "tiny-narrow": VariantSpec("tiny-narrow", (1, 1, 1, 2, 1), (32, 64, 96, 128)),
}


def variant_names() -> list[str]:
    return list(_REGISTRY)


def variant(name: str, **overrides) -> VariantSpec:
    """Fetch a registry row, optionally overriding fields (meta_len, toggles...)."""
    try:
        spec = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown variant {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None
    return replace(spec, **overrides) if overrides else spec


# Block groups s0..s4 as (kind, stage). Stage k runs at width dims[k] on
# the stride 4 * 2**k grid; a downsample follows each stage but the last.
GROUPS = (("ca", 0), ("dca", 0), ("dca", 1), ("sa", 2), ("sa", 3))


class Group(NamedTuple):
    kind: str
    count: int
    stage: int
    dim: int
    stride: int
    ends_stage: bool  # its output grid is a feature map, downsampled unless last


def group_layout(spec: VariantSpec) -> list[Group]:
    """Groups s0..s4 as built from ``spec``; s0 is empty without the CA stage."""
    counts = list(spec.blocks)
    if not spec.use_ca_stage:
        counts[0] = 0
    return [
        Group(kind, count, stage, spec.dims[stage], 4 * 2**stage,
              gi + 1 == len(GROUPS) or GROUPS[gi + 1][1] != stage)
        for gi, ((kind, stage), count) in enumerate(zip(GROUPS, counts))
    ]


class Model:
    """A built network: parameter store plus the stage pipeline.

    A model holds no per-call state, so one instance can serve forwards
    from several threads at once. ``arrays`` (parameter name -> array)
    supplies the parameters instead of the seeded draw; see ``ParamStore``.
    """

    def __init__(self, spec: VariantSpec, seed: int, dtype=np.float32,
                 arrays: dict[str, np.ndarray] | None = None):
        self.spec = spec
        store = ParamStore(seed, dtype=dtype, arrays=arrays)
        self.store = store
        d1, d2, d3, d4 = spec.dims

        self.stem = ImageStem(store, "stem", d1)
        meta_width0 = META_DIM0 if spec.use_meta_stem else d1
        self.meta_init = store.weight("meta.init", (spec.meta_len, meta_width0))
        self.meta_stem = MetaStem(store, "meta_stem", META_DIM0, d1) if spec.use_meta_stem else None

        self.layout = group_layout(spec)
        self.groups = [
            [BLOCKS[g.kind](store, f"s{gi}.b{bi}", g.dim, HEAD_DIM, EXPANSION,
                            sequential=spec.dca_sequential)
             for bi in range(g.count)]
            for gi, g in enumerate(self.layout)
        ]
        self.downsamples = [
            Downsample(store, "ds1", d1, d2),
            Downsample(store, "ds2", d2, d3),
            Downsample(store, "ds3", d3, d4),
        ]
        self.meta_projs = []
        for i, (din, dout) in enumerate(((d1, d2), (d2, d3), (d3, d4)), start=1):
            w = store.weight(f"ds{i}.meta_proj.w", (din, dout))
            b = store.zeros(f"ds{i}.meta_proj.b", (dout,))
            self.meta_projs.append((w, b))

        self.head_ln_img = LayerNormParams(store, "head.ln_img", d4)
        self.head_ln_meta = (
            LayerNormParams(store, "head.ln_meta", d4) if spec.use_meta_pooling else None
        )
        self.head_w = store.weight("head.fc.w", (d4, spec.num_classes))
        self.head_b = store.zeros("head.fc.b", (spec.num_classes,))

    # -- bookkeeping ------------------------------------------------------

    @property
    def dtype(self):
        return self.store.dtype

    def parameters(self) -> dict[str, Tensor]:
        return self.store.params

    def param_count(self) -> int:
        return self.store.total_size()

    def zero_grads(self) -> None:
        T.zero_grads(self.parameters().values())

    # -- forward ----------------------------------------------------------

    def _check_input(self, img: Tensor) -> Tensor:
        if img.ndim not in (3, 4) or img.shape[-3] != 3:
            raise InputError(f"expected (3,H,W) or (B,3,H,W) input, got {img.shape}")
        h, w = img.shape[-2], img.shape[-1]
        if h % 32 or w % 32:
            raise InputError(f"input extents must be divisible by 32, got {h}x{w}")
        if h < 64 or w < 64:
            raise InputError(
                f"input extents must be at least 64 so the last-stage grid "
                f"stays 2x2 or larger, got {h}x{w}"
            )
        if img.dtype != self.dtype:
            img = Tensor(img.data.astype(self.dtype))
        return img

    def _forward(self, img: Tensor, return_attention: bool = False):
        img = self._check_input(img)
        mapped = None  # the block whose meta-branch attention is returned
        if return_attention:
            if not self.groups[2]:
                raise ContractError(
                    "attention maps requested but the model has no dual "
                    "cross-attention block in the stride-8 group"
                )
            mapped = self.groups[2][-1]
        batched = img.ndim == 4
        grid = self.stem(img)

        meta = self.meta_init
        if batched:
            meta = T.broadcast_to_batch(meta, img.shape[0])
        if self.meta_stem is not None:
            meta = self.meta_stem(meta)

        features: list[TokenGrid] = []
        maps = None
        for g, group in zip(self.layout, self.groups):
            for blk in group:
                if blk is mapped:
                    grid, meta, attn = blk(grid, meta, return_attention=True)
                    weights = attn["meta"] / attn["meta"].sum(axis=-1, keepdims=True)
                    maps = weights.reshape(weights.shape[:-1] + (grid.height, grid.width))
                else:
                    grid, meta = blk(grid, meta)
            if g.ends_stage:
                features.append(grid)
                if g.stage < len(self.downsamples):
                    grid = self.downsamples[g.stage](grid)
                    w, b = self.meta_projs[g.stage]
                    meta = T.linear(meta, w, b)
        return features, grid, meta, maps

    def forward_features(self, img: Tensor) -> list[TokenGrid]:
        """The stride-4/8/16/32 image-token grids (meta tokens excluded)."""
        return self._forward(img)[0]

    def forward_classify(self, img: Tensor, return_attention: bool = False):
        """Logits, or (logits, maps) when ``return_attention`` is set.

        ``maps`` is the meta tokens' attention over the stride-8 grid in the
        last stride-8 dual cross-attention block, averaged over heads: shape
        (M, H/8, W/8), or (B, M, H/8, W/8) for a batch, each map summing to
        one. Raises ContractError if the model has no such block.
        """
        _, grid, meta, maps = self._forward(img, return_attention)
        pooled = T.global_avg_pool(self.head_ln_img(grid.tokens))
        if self.spec.use_meta_pooling:
            pooled = T.add(pooled, T.global_avg_pool(self.head_ln_meta(meta)))
        logits = T.linear(pooled, self.head_w, self.head_b)
        return (logits, maps) if return_attention else logits


def build_variant(spec: VariantSpec, seed: int, dtype=np.float32) -> Model:
    """Deterministically initialize a model from an architecture description."""
    return Model(spec, seed, dtype=dtype)


def export_attention_maps(model: Model, img: Tensor) -> np.ndarray:
    """The (M, h, w) attention maps of one image over the stride-8 grid."""
    if img.ndim != 3:
        raise InputError(f"attention export takes a single (3,H,W) image, got {img.shape}")
    with T.no_grad():
        return model.forward_classify(img, return_attention=True)[1]
