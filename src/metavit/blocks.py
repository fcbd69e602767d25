"""Attention blocks, token stems, positional encoding, and downsampling.

The three attention blocks are one pre-norm block over two streams, an
image-token grid ("img") and a short meta-token stream ("meta"), driven
by the ``route`` of each kind's class; ``BLOCKS`` maps a kind to its
class, so ``BLOCKS[kind].route`` is that kind's route. A route lists the
attention branches as (updated stream <- key/value stream) and says
whether conditional positional encoding (CPE) runs on the grid first:

* ``ca`` cross-attention: meta <- img; image tokens pass through untouched.
* ``dca`` dual cross-attention: img <- meta and meta <- img, after CPE.
  Both branches read the same post-CPE, post-norm values; the sequential
  variant lets the meta branch read the re-normed updated image instead.
  Cost is linear in the image token count instead of quadratic.
* ``sa`` standard attention: img <- img and meta <- meta, after CPE; no
  cross terms.

Each branch queries its own normed stream, and each updated stream ends
with a residual through the FFN that both streams share. The q/k/v
projection weights are shared by the branches of a block (each branch
projects its own inputs with them); each branch owns its output
projection. Every branch divides its logits by
``attention.entropy_scale(N1, N2, head_dim)``, which is sqrt(head_dim) in
self-attention, where the counts match.

The route also fixes parameter names and registration order, which
seeded weights and checkpoints depend on: ``cpe``, ``attn.wq`` ...
``attn.bv``, ``attn.wo_<s>`` / ``attn.bo_<s>`` per updated stream,
``ln_<s>`` per normed stream (updated ones first), ``ln_ffn_<s>`` per
updated stream, then ``ffn``. ``complexity`` derives each block's
parameters and MACs from the same route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import MhaParams, multi_head_attention
from .errors import ConfigError, ContractError, InputError
from .tensor import Tensor

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
    """Normal(0, std) resampled until all draws fall within two deviations.

    Each pass redraws the out-of-bound entries in index order and checks
    only those again.
    """
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bound = 2.0 * std
    bad = np.flatnonzero(np.abs(flat) > bound)
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > bound]
    return out


class ParamStore:
    """Creates named leaf parameters, drawn from a seeded generator or given.

    With ``arrays`` (parameter name -> array, as read from a checkpoint)
    each registration takes the array under its name after checking its
    shape: nothing is drawn, and nothing is copied when the dtype matches.
    A missing name or a wrong shape raises ``ConfigError``.
    """

    def __init__(self, seed: int, dtype=np.float32, arrays: dict[str, np.ndarray] | None = None):
        self.rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.arrays = arrays
        self.params: dict[str, Tensor] = {}

    def _register(self, name: str, shape, draw) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if self.arrays is None:
            arr = draw()
        elif name not in self.arrays:
            raise ConfigError(f"no array for parameter {name!r}")
        else:
            arr = self.arrays[name]
            if arr.shape != tuple(shape):
                raise ConfigError(
                    f"parameter {name!r} has shape {arr.shape}, expected {tuple(shape)}"
                )
        t = Tensor(arr.astype(self.dtype, copy=False), requires_grad=True)
        self.params[name] = t
        return t

    def weight(self, name: str, shape) -> Tensor:
        return self._register(name, shape, lambda: trunc_normal(self.rng, shape))

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, shape, lambda: np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, shape, lambda: np.ones(shape))

    def total_size(self) -> int:
        return sum(p.size for p in self.params.values())


class LayerNormParams:
    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gamma = store.ones(f"{name}.g", (dim,))
        self.beta = store.zeros(f"{name}.b", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


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
    """Conditional positional encoding: residual depthwise k x k conv over the grid."""

    def __init__(self, store: ParamStore, name: str, dim: int, kernel: int = 3):
        self.w = store.weight(f"{name}.w", (dim, 1, kernel, kernel))
        self.b = store.zeros(f"{name}.b", (dim,))

    def __call__(self, grid: TokenGrid) -> TokenGrid:
        if grid.height < 2 or grid.width < 2:
            raise ContractError(
                f"cpe needs a grid of at least 2x2 tokens, got {grid.height}x{grid.width}"
            )
        conv = T.conv2d(grid.image(), self.w, self.b)
        pos = TokenGrid.from_image(conv).tokens
        return TokenGrid(T.add(grid.tokens, pos), grid.height, grid.width)


class ImageStem:
    """Two 3x3 stride-2 convolutions with GELU, 4x4 patches out."""

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
        x = T.gelu(T.conv2d(x, self.w1, self.b1, stride=2))
        x = T.gelu(T.conv2d(x, self.w2, self.b2, stride=2))
        return TokenGrid.from_image(x)


class MetaStem:
    """Two linear layers with GELU between, mapping the initial meta width."""

    def __init__(self, store: ParamStore, name: str, d0: int, d1: int):
        self.w1 = store.weight(f"{name}.fc1.w", (d0, d1))
        self.b1 = store.zeros(f"{name}.fc1.b", (d1,))
        self.w2 = store.weight(f"{name}.fc2.w", (d1, d1))
        self.b2 = store.zeros(f"{name}.fc2.b", (d1,))

    __call__ = FeedForward.__call__  # its own entry, so wrapping it leaves FeedForward's alone


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
        conv = T.conv2d(grid.image(), self.w, self.b, stride=2)
        return TokenGrid.from_image(conv)


@dataclass(frozen=True)
class Route:
    """Which stream each attention branch of a block kind updates and reads."""

    branches: tuple[tuple[str, str], ...]  # (updated stream, key/value stream), img first
    cpe: bool  # residual positional encoding on the image grid before the norms

    @property
    def updated(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.branches)

    @property
    def normed(self) -> tuple[str, ...]:
        """Streams normed before attention: the updated ones, then read-only sources."""
        return tuple(dict.fromkeys(self.updated + tuple(src for _, src in self.branches)))


class _TwoStreamBlock:
    """Pre-norm two-stream block that runs the ``route`` of its class.

    Every kind takes the same arguments and ignores those its route has
    no use for: CA has no CPE, and ``sequential`` changes only DCA, the
    one route whose later branch reads a stream the block updates first.
    """

    route: Route

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
        if dim < 1 or head_dim < 1 or dim % head_dim:
            raise ConfigError(f"head_dim {head_dim} must be positive and divide the width {dim}")
        route = self.route
        self.sequential = sequential
        self.heads = dim // head_dim
        self.cpe = Cpe(store, f"{name}.cpe", dim, cpe_kernel) if route.cpe and use_cpe else None
        qkv = []
        for p in "qkv":
            qkv += [store.weight(f"{name}.attn.w{p}", (dim, dim)),
                    store.zeros(f"{name}.attn.b{p}", (dim,))]
        self.mha = {
            s: MhaParams(*qkv, store.weight(f"{name}.attn.wo_{s}", (dim, dim)),
                         store.zeros(f"{name}.attn.bo_{s}", (dim,)))
            for s in route.updated
        }
        self.norm = {s: LayerNormParams(store, f"{name}.ln_{s}", dim) for s in route.normed}
        self.ffn_norm = {s: LayerNormParams(store, f"{name}.ln_ffn_{s}", dim) for s in route.updated}
        self.ffn = FeedForward(store, f"{name}.ffn", dim, expansion)

    def _run(self, grid: TokenGrid, meta: Tensor, return_attention: bool = False):
        """(grid, meta) out, plus {updated stream: head-averaged attention} if asked.

        A stream the route does not update is returned as given: a block
        that leaves the image alone returns the ``grid`` object it got.
        """
        if grid.dim != meta.shape[-1]:
            raise ConfigError(
                f"stream widths disagree: image {grid.dim}, meta {meta.shape[-1]}"
            )
        if self.cpe is not None:
            grid = self.cpe(grid)
        streams = {"img": grid.tokens, "meta": meta}
        normed = {s: self.norm[s](streams[s]) for s in self.route.normed}
        attended, attn = {}, {}
        for s, src in self.route.branches:
            if self.sequential and src in attended:
                kv = self.norm[src](attended[src])  # read the already updated stream
            else:
                kv = normed[src]
            out = multi_head_attention(normed[s], kv, self.mha[s], self.heads,
                                       return_attn=return_attention)
            if return_attention:
                out, attn[s] = out
            attended[s] = T.add(streams[s], out)
        for s, x in attended.items():
            streams[s] = T.add(x, self.ffn(self.ffn_norm[s](x)))
        if "img" in attended:
            grid = TokenGrid(streams["img"], grid.height, grid.width)
        if return_attention:
            return grid, streams["meta"], attn
        return grid, streams["meta"]


# Each kind binds __call__ in its own class dict, so wrapping one kind's
# calls (for timing, say) leaves the other kinds alone.


class CABlock(_TwoStreamBlock):
    """Cross-attention block: meta <- image; the image grid passes through."""

    route = Route((("meta", "img"),), cpe=False)
    __call__ = _TwoStreamBlock._run


class DCABlock(_TwoStreamBlock):
    """Dual cross-attention block: image <- meta and meta <- image after CPE.

    Both branches read the same post-CPE, post-norm values unless
    ``sequential`` is set, in which case the meta branch reads the
    re-normed, already updated image tokens.
    """

    route = Route((("img", "meta"), ("meta", "img")), cpe=True)
    __call__ = _TwoStreamBlock._run


class SABlock(_TwoStreamBlock):
    """Standard attention block: each stream attends to itself after CPE."""

    route = Route((("img", "img"), ("meta", "meta")), cpe=True)
    __call__ = _TwoStreamBlock._run


BLOCKS = {"ca": CABlock, "dca": DCABlock, "sa": SABlock}
