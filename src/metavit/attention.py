"""The attention scale factor and the multi-head attention wrapper.

Every attention call divides its query-key logits by one factor,
(ln N1 / ln N2) * sqrt(width), which keeps attention entropy stable when
query and key counts differ, as they do in cross-attention between a long
image-token stream and a short meta-token stream. Only the ratio of the
logs enters, so the factor does not depend on the logarithm base. When
the counts match, as in self-attention, the log ratio is 1 and the factor
is exactly sqrt(width).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


@dataclass(frozen=True)
class AttentionConfig:
    """Width bookkeeping for a multi-head attention site."""

    dim: int
    head_dim: int = 32

    def __post_init__(self):
        if self.dim <= 0 or self.head_dim <= 0:
            raise ConfigError(f"dim/head_dim must be positive, got {self.dim}/{self.head_dim}")
        if self.dim % self.head_dim:
            raise ConfigError(
                f"head_dim {self.head_dim} does not divide embedding width {self.dim}"
            )

    @property
    def num_heads(self) -> int:
        return self.dim // self.head_dim


def entropy_scale(n_query: int, n_key: int, width: int) -> float:
    """(ln N1 / ln N2) * sqrt(C): exactly sqrt(C) when the counts match, even
    for one token, and degenerate for unequal counts below two on either side."""
    if width < 1:
        raise ConfigError(f"entropy_scale width must be >= 1, got {width}")
    if n_query == n_key:
        return math.sqrt(width)
    if n_query < 2 or n_key < 2:
        raise ConfigError(
            f"entropy_scale needs at least 2 tokens on each side, got {n_query}/{n_key}"
        )
    return (math.log(n_query) / math.log(n_key)) * math.sqrt(width)


@dataclass
class MhaParams:
    """Projection weights for one multi-head attention call (each C x C)."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    params: MhaParams,
    return_attn: bool = False,
):
    """Project, attend per head, reproject: five graph nodes.

    The projections stay in the merged (..., N, dim) layout; ``tensor.attention``
    reads its dim/head_dim heads through strided views. The logits are divided
    by entropy_scale(N1, N2, head_dim). Returns the output, or (output, attention)
    when ``return_attn`` is set; the attention is averaged over heads, a plain
    (..., N1, N2) array for visualization.
    """
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.shape[-1] != cfg.dim:
            raise ConfigError(
                f"{name} width {t.shape[-1]} does not match configured dim {cfg.dim}"
            )
    scale = entropy_scale(q.shape[-2], k.shape[-2], cfg.head_dim)
    attended = T.attention(
        T.linear(q, params.wq, params.bq),
        T.linear(k, params.wk, params.bk),
        T.linear(v, params.wv, params.bv),
        1.0 / scale,
        heads=cfg.num_heads,
        return_attn=return_attn,
    )
    if not return_attn:
        return T.linear(attended, params.wo, params.bo)
    out, probs = attended
    return T.linear(out, params.wo, params.bo), probs.mean(axis=-3)  # average over heads
