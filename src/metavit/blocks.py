"""Attention blocks, token stems, positional encoding, and downsampling.

Three block types operate on an image-token grid plus a short meta-token
stream. All use a pre-norm layout with residual connections and share one
FFN between the two streams:

* cross-attention block: meta tokens attend to image tokens; image tokens
  pass through untouched.
* dual cross-attention block: two parallel cross-attention branches read
  the same post-CPE, post-norm values; image tokens query meta tokens
  while meta tokens query image tokens. Cost is linear in the image token
  count instead of quadratic.
* standard attention block: each stream runs self-attention on its own,
  no cross terms.

Query/key/value projections are shared between the two streams inside a
block (each stream is projected once and the branches consume the results
crosswise); each branch owns its output projection. Cross-attention sites
use entropy-invariant scaling, self-attention uses standard scaling (the
two agree when query and key counts match).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, MhaParams, Scaling, multi_head_attention
from .errors import ConfigError, ContractError, InputError
from .tensor import Tensor

LN_EPS = 1e-5
INIT_STD = 0.02


@dataclass
class TokenGrid:
    """Image tokens (..., N, D) together with their 2-D extents, N = h * w."""

    tokens: Tensor
    height: int
    width: int

    def __post_init__(self):
        if self.tokens.shape[-2] != self.height * self.width:
            raise ContractError(
                f"token count {self.tokens.shape[-2]} != height*width "
                f"{self.height}x{self.width}"
            )

    @property
    def dim(self) -> int:
        return self.tokens.shape[-1]

    def image(self) -> Tensor:
        """The tokens as a channels-last (..., H, W, D) image (no copy)."""
        lead = self.tokens.shape[:-2]
        return T.reshape(self.tokens, lead + (self.height, self.width, self.dim))

    @classmethod
    def from_image(cls, img: Tensor) -> "TokenGrid":
        """Flatten a channels-last (..., H, W, D) image into a token grid."""
        *lead, h, w, d = img.shape
        return cls(T.reshape(img, tuple(lead) + (h * w, d)), h, w)


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) resampled until all draws fall within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


class ParamStore:
    """Creates named leaf parameters with deterministic initialization."""

    def __init__(self, seed: int, dtype=np.float32):
        self.rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}

    def _register(self, name: str, arr: np.ndarray) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(arr.astype(self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def weight(self, name: str, shape, std: float = INIT_STD) -> Tensor:
        return self._register(name, trunc_normal(self.rng, shape, std))

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape))

    def total_size(self) -> int:
        return sum(p.size for p in self.params.values())


class LayerNormParams:
    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gamma = store.ones(f"{name}.g", (dim,))
        self.beta = store.zeros(f"{name}.b", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, LN_EPS)


class FeedForward:
    """Two linear layers D -> E*D -> D with GELU between."""

    def __init__(self, store: ParamStore, name: str, dim: int, expansion: int):
        hidden = expansion * dim
        self.w1 = store.weight(f"{name}.w1", (dim, hidden))
        self.b1 = store.zeros(f"{name}.b1", (hidden,))
        self.w2 = store.weight(f"{name}.w2", (hidden, dim))
        self.b2 = store.zeros(f"{name}.b2", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(T.gelu(T.linear(x, self.w1, self.b1)), self.w2, self.b2)


class Cpe:
    """Conditional positional encoding: residual depthwise 3x3 over the grid."""

    def __init__(self, store: ParamStore, name: str, dim: int, kernel: int = 3):
        self.kernel = kernel
        self.w = store.weight(f"{name}.w", (dim, 1, kernel, kernel))
        self.b = store.zeros(f"{name}.b", (dim,))

    def __call__(self, grid: TokenGrid) -> TokenGrid:
        if grid.height < 2 or grid.width < 2:
            raise ContractError(
                f"cpe needs a grid of at least 2x2 tokens, got {grid.height}x{grid.width}"
            )
        conv = T.conv2d(
            grid.image(), self.w, self.b, padding=self.kernel // 2, groups=grid.dim
        )
        pos = TokenGrid.from_image(conv).tokens
        return TokenGrid(T.add(grid.tokens, pos), grid.height, grid.width)


class ImageStem:
    """Two 3x3 stride-2 padding-1 convolutions with GELU, 4x4 patches out."""

    def __init__(self, store: ParamStore, name: str, d1: int):
        mid = d1 // 2
        self.w1 = store.weight(f"{name}.conv1.w", (mid, 3, 3, 3))
        self.b1 = store.zeros(f"{name}.conv1.b", (mid,))
        self.w2 = store.weight(f"{name}.conv2.w", (d1, mid, 3, 3))
        self.b2 = store.zeros(f"{name}.conv2.b", (d1,))

    def __call__(self, img: Tensor) -> TokenGrid:
        h, w = img.shape[-2], img.shape[-1]
        if h % 4 or w % 4:
            raise InputError(f"image extents must be divisible by 4, got {h}x{w}")
        axes = list(range(img.ndim))
        x = T.permute(img, axes[:-3] + [axes[-2], axes[-1], axes[-3]])  # (..., H, W, 3)
        x = T.gelu(T.conv2d(x, self.w1, self.b1, stride=2, padding=1))
        x = T.gelu(T.conv2d(x, self.w2, self.b2, stride=2, padding=1))
        return TokenGrid.from_image(x)


class MetaStem:
    """Two linear layers with GELU between, mapping the initial meta width."""

    def __init__(self, store: ParamStore, name: str, d0: int, d1: int):
        self.w1 = store.weight(f"{name}.fc1.w", (d0, d1))
        self.b1 = store.zeros(f"{name}.fc1.b", (d1,))
        self.w2 = store.weight(f"{name}.fc2.w", (d1, d1))
        self.b2 = store.zeros(f"{name}.fc2.b", (d1,))

    def __call__(self, meta: Tensor) -> Tensor:
        return T.linear(T.gelu(T.linear(meta, self.w1, self.b1)), self.w2, self.b2)


class Downsample:
    """Single overlapping 3x3 stride-2 conv halving the grid (ceil)."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.w = store.weight(f"{name}.conv.w", (d_out, d_in, 3, 3))
        self.b = store.zeros(f"{name}.conv.b", (d_out,))

    def __call__(self, grid: TokenGrid) -> TokenGrid:
        if grid.height < 2 or grid.width < 2:
            raise InputError(
                f"cannot downsample a degenerate {grid.height}x{grid.width} grid"
            )
        conv = T.conv2d(grid.image(), self.w, self.b, stride=2, padding=1)
        return TokenGrid.from_image(conv)


class _SharedProjections:
    """One q/k/v projection set per block, applied to both token streams."""

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.wq = store.weight(f"{name}.wq", (dim, dim))
        self.bq = store.zeros(f"{name}.bq", (dim,))
        self.wk = store.weight(f"{name}.wk", (dim, dim))
        self.bk = store.zeros(f"{name}.bk", (dim,))
        self.wv = store.weight(f"{name}.wv", (dim, dim))
        self.bv = store.zeros(f"{name}.bv", (dim,))

    def mha_params(self, wo: Tensor, bo: Tensor) -> MhaParams:
        return MhaParams(self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, wo, bo)


class CABlock:
    """Cross-attention block: updates meta tokens only.

    meta' = meta + MHA(LN(meta) as Q, LN(image) as K/V), then the shared-FFN
    residual on the meta stream. Image tokens are returned bit-identical.
    """

    kind = "ca"

    def __init__(self, store: ParamStore, name: str, dim: int, head_dim: int, expansion: int):
        self.cfg = AttentionConfig(dim, head_dim, Scaling.ENTROPY_INVARIANT)
        self.proj = _SharedProjections(store, f"{name}.attn", dim)
        self.wo_meta = store.weight(f"{name}.attn.wo_meta", (dim, dim))
        self.bo_meta = store.zeros(f"{name}.attn.bo_meta", (dim,))
        self.ln_meta = LayerNormParams(store, f"{name}.ln_meta", dim)
        self.ln_img = LayerNormParams(store, f"{name}.ln_img", dim)
        self.ln_ffn_meta = LayerNormParams(store, f"{name}.ln_ffn_meta", dim)
        self.ffn = FeedForward(store, f"{name}.ffn", dim, expansion)

    def __call__(self, grid: TokenGrid, meta: Tensor):
        if grid.dim != meta.shape[-1]:
            raise ConfigError(
                f"stream widths disagree: image {grid.dim}, meta {meta.shape[-1]}"
            )
        mq = self.ln_meta(meta)
        xkv = self.ln_img(grid.tokens)
        params = self.proj.mha_params(self.wo_meta, self.bo_meta)
        meta = T.add(meta, multi_head_attention(mq, xkv, xkv, self.cfg, params))
        meta = T.add(meta, self.ffn(self.ln_ffn_meta(meta)))
        return grid, meta


class DCABlock:
    """Dual cross-attention block.

    CPE first on the image grid, then both streams are normed once and two
    cross-attentions run as parallel branches over those same values:
    image tokens query meta keys/values while meta tokens query image
    keys/values. A sequential variant lets the meta branch read the already
    updated image tokens instead. Both streams end with the shared-FFN
    residual.
    """

    kind = "dca"

    def __init__(
        self,
        store: ParamStore,
        name: str,
        dim: int,
        head_dim: int,
        expansion: int,
        sequential: bool = False,
        use_cpe: bool = True,
        cpe_kernel: int = 3,
    ):
        self.cfg = AttentionConfig(dim, head_dim, Scaling.ENTROPY_INVARIANT)
        self.sequential = sequential
        self.use_cpe = use_cpe
        self.cpe = Cpe(store, f"{name}.cpe", dim, cpe_kernel) if use_cpe else None
        self.proj = _SharedProjections(store, f"{name}.attn", dim)
        self.wo_img = store.weight(f"{name}.attn.wo_img", (dim, dim))
        self.bo_img = store.zeros(f"{name}.attn.bo_img", (dim,))
        self.wo_meta = store.weight(f"{name}.attn.wo_meta", (dim, dim))
        self.bo_meta = store.zeros(f"{name}.attn.bo_meta", (dim,))
        self.ln_img = LayerNormParams(store, f"{name}.ln_img", dim)
        self.ln_meta = LayerNormParams(store, f"{name}.ln_meta", dim)
        self.ln_ffn_img = LayerNormParams(store, f"{name}.ln_ffn_img", dim)
        self.ln_ffn_meta = LayerNormParams(store, f"{name}.ln_ffn_meta", dim)
        self.ffn = FeedForward(store, f"{name}.ffn", dim, expansion)
        self.retained: dict | None = None

    def __call__(self, grid: TokenGrid, meta: Tensor, retain_attention: bool = False):
        if grid.dim != meta.shape[-1]:
            raise ConfigError(
                f"stream widths disagree: image {grid.dim}, meta {meta.shape[-1]}"
            )
        if self.use_cpe:
            grid = self.cpe(grid)
        x = grid.tokens
        xn = self.ln_img(x)
        mn = self.ln_meta(meta)
        img_params = self.proj.mha_params(self.wo_img, self.bo_img)
        meta_params = self.proj.mha_params(self.wo_meta, self.bo_meta)
        self.retained = {} if retain_attention else None

        x2 = T.add(x, multi_head_attention(xn, mn, mn, self.cfg, img_params))
        if self.sequential:
            x2n = self.ln_img(x2)
            m2 = T.add(
                meta,
                multi_head_attention(mn, x2n, x2n, self.cfg, meta_params, self.retained),
            )
        else:
            m2 = T.add(
                meta,
                multi_head_attention(mn, xn, xn, self.cfg, meta_params, self.retained),
            )
        x3 = T.add(x2, self.ffn(self.ln_ffn_img(x2)))
        m3 = T.add(m2, self.ffn(self.ln_ffn_meta(m2)))
        return TokenGrid(x3, grid.height, grid.width), m3


class SABlock:
    """Standard attention block: each stream runs self-attention alone."""

    kind = "sa"

    def __init__(
        self,
        store: ParamStore,
        name: str,
        dim: int,
        head_dim: int,
        expansion: int,
        use_cpe: bool = True,
        cpe_kernel: int = 3,
    ):
        self.cfg = AttentionConfig(dim, head_dim, Scaling.STANDARD)
        self.use_cpe = use_cpe
        self.cpe = Cpe(store, f"{name}.cpe", dim, cpe_kernel) if use_cpe else None
        self.proj = _SharedProjections(store, f"{name}.attn", dim)
        self.wo_img = store.weight(f"{name}.attn.wo_img", (dim, dim))
        self.bo_img = store.zeros(f"{name}.attn.bo_img", (dim,))
        self.wo_meta = store.weight(f"{name}.attn.wo_meta", (dim, dim))
        self.bo_meta = store.zeros(f"{name}.attn.bo_meta", (dim,))
        self.ln_img = LayerNormParams(store, f"{name}.ln_img", dim)
        self.ln_meta = LayerNormParams(store, f"{name}.ln_meta", dim)
        self.ln_ffn_img = LayerNormParams(store, f"{name}.ln_ffn_img", dim)
        self.ln_ffn_meta = LayerNormParams(store, f"{name}.ln_ffn_meta", dim)
        self.ffn = FeedForward(store, f"{name}.ffn", dim, expansion)

    def __call__(self, grid: TokenGrid, meta: Tensor):
        if grid.dim != meta.shape[-1]:
            raise ConfigError(
                f"stream widths disagree: image {grid.dim}, meta {meta.shape[-1]}"
            )
        if self.use_cpe:
            grid = self.cpe(grid)
        x = grid.tokens
        img_params = self.proj.mha_params(self.wo_img, self.bo_img)
        meta_params = self.proj.mha_params(self.wo_meta, self.bo_meta)

        xn = self.ln_img(x)
        x2 = T.add(x, multi_head_attention(xn, xn, xn, self.cfg, img_params))
        mn = self.ln_meta(meta)
        m2 = T.add(meta, multi_head_attention(mn, mn, mn, self.cfg, meta_params))

        x3 = T.add(x2, self.ffn(self.ln_ffn_img(x2)))
        m3 = T.add(m2, self.ffn(self.ln_ffn_meta(m2)))
        return TokenGrid(x3, grid.height, grid.width), m3
