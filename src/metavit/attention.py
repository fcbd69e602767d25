"""Attention scale factors and the multi-head attention wrapper.

Two scale-factor modes are supported. Standard scaling divides the
query-key logits by sqrt(width). Entropy-invariant scaling divides by
(ln N1 / ln N2) * sqrt(width) instead, which keeps attention entropy
stable when query and key counts differ, as they do in cross-attention
between a long image-token stream and a short meta-token stream. The two
coincide whenever N1 == N2 because the log ratio is 1, and the ratio
makes the factor independent of the logarithm base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


class Scaling(Enum):
    STANDARD = "standard"
    ENTROPY_INVARIANT = "entropy-invariant"


@dataclass(frozen=True)
class AttentionConfig:
    """Width bookkeeping for a multi-head attention site."""

    dim: int
    head_dim: int = 32
    scaling: Scaling = Scaling.STANDARD

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
    """(ln N1 / ln N2) * sqrt(C); degenerate below two tokens on either side."""
    if n_query < 2 or n_key < 2:
        raise ConfigError(
            f"entropy_scale needs at least 2 tokens on each side, got {n_query}/{n_key}"
        )
    if width < 1:
        raise ConfigError(f"entropy_scale width must be >= 1, got {width}")
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
    reads its dim/head_dim heads through strided views. With entropy-invariant
    scaling the per-head scale is entropy_scale(N1, N2, head_dim); standard
    scaling uses sqrt(head_dim). Returns the output, or (output, attention)
    when ``return_attn`` is set; the attention is averaged over heads, a plain
    (..., N1, N2) array for visualization.
    """
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.shape[-1] != cfg.dim:
            raise ConfigError(
                f"{name} width {t.shape[-1]} does not match configured dim {cfg.dim}"
            )
    if cfg.scaling is Scaling.ENTROPY_INVARIANT:
        scale = entropy_scale(q.shape[-2], k.shape[-2], cfg.head_dim)
    else:
        scale = math.sqrt(cfg.head_dim)
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
