"""Dense tensor type with reverse-mode automatic differentiation.

Tensors wrap contiguous row-major numpy buffers (float32 by default,
float64 for gradient checking). Every kernel is a pure function of its
inputs: it allocates a fresh output and, when gradients are enabled and
required, records a ``Node`` that the output points to. A node holds the
op's vector-Jacobian-product closure, its parents (the nodes of recorded
inputs, and leaf tensors themselves), its dtype, its op name and, during
``backward``, its gradient; it holds no reference to its output. Each
closure captures only the shapes, flags and arrays it reads, so an op's
output lives past the forward only while the caller holds it or a later
op's closure saved it. ``backward`` replays the nodes in a reverse
topological order, each after every node that consumes its output (not
the reverse of the forward order; see ``Graph``), and accumulates
gradients into the leaves' ``grad``. It consumes the graph as it walks
it: each node's gradient, closure and parent links are dropped once its
closure has run, so only leaves keep a ``grad`` (a private, writable
array) and a second ``backward`` from the same loss is rejected.

There is no global mutable state; the autograd on/off switch and the
optional multiply-accumulate meters are thread-local.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, InputError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_local = threading.local()


def _grad_enabled() -> bool:
    return getattr(_local, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the context (forward-only mode)."""
    prev = _grad_enabled()
    _local.grad_enabled = False
    try:
        yield
    finally:
        _local.grad_enabled = prev


class MacCounter:
    """Counts the multiply-accumulate operations of ``linear``, ``attention``,
    ``conv2d`` and ``matmul``.

    Elementwise arithmetic, normalizations, and activations are not counted;
    the meter reflects the same convention as the analytic ``macs`` column
    of complexity reports plus the attention matrix products.
    """

    def __init__(self):
        self.total = 0

    def __enter__(self):
        meters = getattr(_local, "meters", None)
        if meters is None:
            meters = []
            _local.meters = meters
        meters.append(self)
        return self

    def __exit__(self, *exc):
        _local.meters.remove(self)
        return False


def _count_macs(n: int) -> None:
    for meter in getattr(_local, "meters", ()):
        meter.total += int(n)


class Node:
    """One recorded op: its VJP, its parents, its gradient, dtype and op name.

    ``parents`` holds a ``Node`` for each recorded input and the input
    ``Tensor`` itself for every other one. ``vjp`` maps the gradient at the
    output to one gradient (or None) per parent.
    """

    __slots__ = ("vjp", "parents", "grad", "dtype", "op")
    requires_grad = True

    def __init__(self, vjp, parents: tuple, dtype, op: str):
        self.vjp = vjp
        self.parents = parents
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self.op = op


class Tensor:
    """Dense row-major numeric array with an optional gradient slot.

    The dtype comes from ``data``: float32 and float64 stay as they are,
    and anything else becomes float32. ``node`` is the ``Node`` that
    recorded this tensor, or None for a leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    @property
    def op(self) -> str:
        return "leaf" if self.node is None else self.node.op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The value of a one-element tensor as a Python float."""
        if self.size != 1:
            raise ContractError(f"item needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, op={self.op})"


def _recording(parents) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _grad_enabled() and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents, vjp, op: str) -> Tensor:
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out.node = Node(vjp, tuple(p if p.node is None else p.node for p in parents),
                        out.dtype, op)
    return out


def _sum_leading(a: np.ndarray, axes: int) -> np.ndarray:
    """Sum over the first ``axes`` axes as one GEMV against a ones vector.

    ``ndarray.sum`` over the outer axes runs 2-10x slower than the
    matrix-vector product on the (rows, rest) view at this model's shapes.
    """
    rows = math.prod(a.shape[:axes])
    rest = a.shape[axes:]
    return (np.ones(rows, dtype=a.dtype) @ a.reshape(rows, math.prod(rest))).reshape(rest)


class Graph:
    """Ordered record of the nodes and leaf tensors reachable from a root tensor.

    The list is a depth-first post-order from the root that expands each
    node's last parent first. Every node comes after all of its parents, so
    the order is topological, but it is not the forward execution order:
    the reverse pass, which walks the list once back to front, reaches the
    ops behind ``add(a, b)``'s ``a`` before those behind ``b``, although
    ``b``'s ran later in forward (shared ancestors aside).
    """

    def __init__(self, nodes: list[Node | Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        order: list[Node | Tensor] = []
        seen: set[int] = set()
        start = root if root.node is None else root.node
        stack: list[tuple[Node | Tensor, bool]] = [(start, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in () if isinstance(node, Tensor) else node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return cls(order)

    def __len__(self):
        return len(self.nodes)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar. Traces the graph behind it, visits each
    recorded node exactly once, in the reverse of ``Graph.trace``'s
    topological order (each node after all of its consumers), and consumes
    the graph as it goes: once a node's VJP has run, its ``grad``, VJP
    closure and parent links are dropped, which frees the forward arrays
    the closure saved (a linear's input rows, attention's q, k, v and
    probabilities, a layer norm's ``xhat``, a conv's padded input, a
    GELU's derivative). Gradients live on nodes while backward runs and
    only leaves keep one. Gradients are never written in place, because a
    VJP may return a view of its input, a read-only broadcast, or one array
    for two parents; only a leaf's first gradient is copied, so that every
    leaf owns a private, writable ``grad``.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is not None and loss.node.vjp is None:
        raise ContractError(f"the graph behind this {loss.op} output was used up by a backward")
    nodes = Graph.trace(loss).nodes
    (loss if loss.node is None else loss.node).grad = np.ones_like(loss.data)
    while nodes:
        node = nodes.pop()
        if isinstance(node, Tensor) or node.vjp is None:
            continue
        vjp, grad, parents = node.vjp, node.grad, node.parents
        node.grad, node.vjp, node.parents = None, None, ()
        if grad is None:
            continue
        for parent, g in zip(parents, vjp(grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                # only a leaf needs its own copy: node gradients are only read
                parent.grad = g.astype(parent.dtype, copy=isinstance(parent, Tensor))
            else:
                parent.grad = parent.grad + g.astype(parent.dtype, copy=False)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise and shape kernels


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of equal shape; no broadcasting."""
    if a.shape != b.shape:
        raise DimensionError(f"add needs equal shapes, got {a.shape} + {b.shape}")
    out = a.data + b.data

    def vjp(g):
        return g, g

    return _node(out, (a, b), vjp, "add")


def reshape(a: Tensor, shape) -> Tensor:
    shape, old = tuple(shape), a.shape
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _node(out, (a,), vjp, "reshape")


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return _node(out, (a,), vjp, "permute")


def broadcast_to_batch(a: Tensor, batch: int) -> Tensor:
    """Tile a parameter tensor along a new leading batch axis."""
    out = np.broadcast_to(a.data, (batch,) + a.shape).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return _node(out, (a,), vjp, "broadcast")


# ---------------------------------------------------------------------------
# core numeric kernels


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` with optional equal leading batch dims.

    2-D operands are classic matrices; higher-rank operands are stacks of
    matrices whose leading dims must match (or be absent on one side, as for
    shared weight matrices). Backward: dA = dC.B^T, dB = A^T.dC, with batch
    reduction when an operand was unbatched.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(
            f"matmul batch dimensions disagree: {a.shape} @ {b.shape}"
        )
    ad, bd = a.data, b.data
    out = ad @ bd
    batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
    _count_macs(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def vjp(g):
        da = g @ np.swapaxes(bd, -1, -2)
        db = np.swapaxes(ad, -1, -2) @ g
        if da.shape != ad.shape:
            da = da.sum(axis=tuple(range(da.ndim - ad.ndim)))
        if db.shape != bd.shape:
            db = db.sum(axis=tuple(range(db.ndim - bd.ndim)))
        return da, db

    return _node(out, (a, b), vjp, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis, ``x @ w + b`` for x of any rank, as one node.

    ``w`` is (K, N) and ``b`` is (N,). Forward is one GEMM on the (rows, K)
    view of x with the bias added in place; backward is one GEMM each for dx
    and dw and one GEMV for db.
    """
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise DimensionError(f"linear needs x (..., K) and w (K, N), got {x.shape}, {w.shape}")
    k, n = w.shape
    xf, wd, xshape, need_dx = x.data.reshape(-1, k), w.data, x.shape, x.requires_grad
    out = xf @ wd
    _count_macs(xf.shape[0] * k * n)
    out += b.data

    def vjp(g):
        gf = g.reshape(-1, n)
        dx = (gf @ wd.T).reshape(xshape) if need_dx else None
        return dx, xf.T @ gf, _sum_leading(gf, 1)

    return _node(out.reshape(x.shape[:-1] + (n,)), (x, w, b), vjp, "linear")


# softmax takes base-2 logits: 2 ** (x * log2(e)) = exp(x), and exp2 is the faster pass
_LOG2_E = 1 / math.log(2)


def _exp_numerators(x: np.ndarray) -> np.ndarray:
    """Overwrite ``x``, logits in base 2, with 2 ** x and return the (..., 1)
    reciprocal sums over its last axis that normalize it.

    The row sums are one GEMV against a ones vector, about twice as fast as
    ``ndarray.sum`` over the last axis.
    """
    np.exp2(x, out=x)
    return 1.0 / (x @ np.ones(x.shape[-1], dtype=x.dtype))[..., None]


def _softmax_numerators(x: np.ndarray) -> np.ndarray:
    """Overwrite ``x``, logits in base 2, with 2 ** (x - rowmax) over its last
    axis and return the reciprocal row sums of ``_exp_numerators``."""
    x -= x.max(axis=-1, keepdims=True)
    return _exp_numerators(x)


def _softmax_grad_inplace(p: np.ndarray, d: np.ndarray) -> None:
    """Overwrite ``d``, the gradient at softmax output ``p``, with the gradient
    at its input: p * (d - rowsum(d * p))."""
    d -= np.einsum("...j,...j->...", d, p)[..., None]
    d *= p


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    out = x.data * _LOG2_E
    out *= _softmax_numerators(out)

    def vjp(g):
        d = g.copy()
        _softmax_grad_inplace(out, d)
        return (d,)

    return _node(out, (x,), vjp, "softmax_rows")


# one attention tile holds about this many logits across all leading axes
_TILE_ELEMENTS = 1 << 20


def _logits_bounded(qh: np.ndarray, kh: np.ndarray, v: np.ndarray) -> bool:
    """Whether exp2 may take the (..., H, N1, N2) base-2 logits of ``qh`` and
    ``kh`` without the row max subtracted.

    By Cauchy-Schwarz every logit lies in [-b, b], with b the largest
    product of a query and a key row norm of one head. If
    n2 * 2**b * max(1, max|v|) <= finfo.max, no exp2, row sum or entry of
    ``exp2(logits) @ v`` overflows; if 2**-b >= finfo.tiny, every term is a
    normal number, so no row sum underflows. In float32 the limits are
    128 - log2(n2 * max(1, max|v|)) and 126. A NaN or Inf anywhere makes b
    or the limit NaN or infinite, and the comparison False.
    """
    def sq_norm_max(a):  # per head; C order makes the max a contiguous pass
        return np.einsum("...ij,...ij->...i", a, a, order="C").max(axis=-1, initial=0.0)

    b = math.sqrt((sq_norm_max(qh) * sq_norm_max(kh)).max(initial=0.0))
    info = np.finfo(qh.dtype)
    reach = math.log2(kh.shape[-2] * float(np.abs(v).max(initial=1.0)))
    return b <= math.log2(info.max) - reach and b <= -math.log2(info.tiny)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, heads: int = 1,
              return_attn: bool = False, tile_elements: int = _TILE_ELEMENTS):
    """softmax(q k^T * scale) v per head over the last two axes, as one graph node.

    Shapes: q (..., N1, H*C), k (..., N2, H*C), v (..., N2, H*Cv), with equal
    leading axes, no empty axis and H = ``heads``; each operand is read per
    head through a strided (..., H, N, C) view, and the output
    (..., N1, H*Cv) is written through one, so no per-head copy is made. Query rows are processed in
    tiles, each taken across all leading and head axes at once. A tile's
    logits become unnormalized softmax numerators in place before they meet
    v, and the tile's (rows, Cv) output rows are then scaled by the
    reciprocal row sums, which costs 1/Cv of normalizing the N2-wide rows;
    a kept tile is normalized after its output is written, so the output
    does not depend on whether probabilities are kept. On every call the
    fold factor scale * log2(e) goes into one copy, so the logits come out
    in base 2 and exp2 replaces exp: with at least as many queries as keys
    into a C-ordered (..., H, C, N2) copy of the keys, which the logit GEMM
    reads as k^T, and otherwise into a copy of the queries. With at least
    as many queries as keys, when ``_logits_bounded`` shows from the folded
    operands that exp2 cannot overflow or leave a row without a normal
    term, each tile's logits go straight to exp2; otherwise, and always
    with fewer queries than keys (where the bound's passes over the N2 keys
    cost more than the N1 x N2 row-max pass they save), each row's max is
    subtracted first, which is the only difference between the two paths.
    Folding before the shift can overflow a logit only where |q . k|
    exceeds finfo.max / fold with a fold factor above 1; at every site of
    the published variants at 224 px it is below 1, at most 0.741. The only
    N1 x N2 array is the (..., H, N1, N2) probability array, kept when a
    gradient is needed or ``return_attn`` asks for it. Otherwise one
    scratch tile of at most ``tile_elements`` values (one query row, if a
    row is larger) is reused across tiles. Returns the output, or (output,
    probabilities as a plain array) when ``return_attn`` is set. Backward
    reads only the probabilities and the unscaled operands, and writes only
    fresh arrays, never the probabilities or the incoming gradient.
    """
    if scale <= 0:
        raise ConfigError(f"attention scale must be positive, got {scale}")
    if heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads:
        raise DimensionError(f"{heads} heads do not split widths {q.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"query width {q.shape} != key width {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key count {k.shape} != value count {v.shape}")
    if not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise DimensionError(
            f"attention leading axes disagree: {q.shape}, {k.shape}, {v.shape}"
        )
    if 0 in q.shape + k.shape + v.shape:
        raise DimensionError(
            f"attention needs non-empty operands, got {q.shape}, {k.shape}, {v.shape}"
        )
    scale = float(scale)  # a Python float keeps float32 arithmetic in float32

    def split(a: np.ndarray) -> np.ndarray:
        """The (..., H, N, C) view of a (..., N, H*C) array."""
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -2, -3)

    qd, kd, vd = q.data, k.data, v.data
    qh, kh, vh = split(qd), split(kd), split(vd)
    lead, n1, n2 = qh.shape[:-2], qh.shape[-2], kh.shape[-2]
    batch = math.prod(lead)
    _count_macs(batch * n1 * n2 * (qh.shape[-1] + vh.shape[-1]))
    rows = max(1, tile_elements // (batch * n2))
    fold = scale * _LOG2_E
    if n1 >= n2:
        qs, kt = qh, np.multiply(np.swapaxes(kh, -1, -2), fold, order="C")
    else:
        qs, kt = qh * fold, np.swapaxes(kh, -1, -2)
    bounded = n1 >= n2 and _logits_bounded(qs, np.swapaxes(kt, -1, -2), vd)
    out = np.empty(q.shape[:-1] + (v.shape[-1],), dtype=q.dtype)
    outh = split(out)
    keep = return_attn or _recording((q, k, v))
    probs = np.empty(lead + (n1, n2), dtype=q.dtype) if keep else None
    scratch = None if keep else np.empty(lead + (min(rows, n1), n2), dtype=q.dtype)
    for r0 in range(0, n1, rows):
        r1 = min(r0 + rows, n1)
        tile = probs[..., r0:r1, :] if keep else scratch[..., : r1 - r0, :]
        np.matmul(qs[..., r0:r1, :], kt, out=tile)
        recip = _exp_numerators(tile) if bounded else _softmax_numerators(tile)
        rows_out = outh[..., r0:r1, :]
        np.matmul(tile, vh, out=rows_out)
        rows_out *= recip
        if keep:
            tile *= recip

    def vjp(g):
        gh = split(g)
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        np.matmul(np.swapaxes(probs, -1, -2), gh, out=split(dv))
        ds = gh @ np.swapaxes(vh, -1, -2)
        _softmax_grad_inplace(probs, ds)
        ds *= scale
        np.matmul(ds, kh, out=split(dq))
        np.matmul(np.swapaxes(ds, -1, -2), qh, out=split(dk))
        return dq, dk, dv

    node = _node(out, (q, k, v), vjp, "attention")
    return (node, probs) if return_attn else node


# added to each row's variance before the square root (PyTorch's LayerNorm default)
LN_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (variance plus
    ``LN_EPS``), then affine.

    ``gamma`` and ``beta`` are (D,) for x (..., D), with D >= 1. Row means
    are one GEMV against a 1/D vector and row variances one einsum of the
    centred rows with themselves; forward allocates two full-size arrays,
    ``xhat`` and the output. At this model's shapes that runs 1.7-3.7x
    faster than ``mean`` over the last axis with five full-size
    temporaries. Backward folds gamma into its GEMV vector, gamma / D, so
    the row means of g * gamma and of g * gamma * xhat are GEMVs of g and
    of g * xhat, which dgamma reads too; it makes three full-size arrays.
    """
    d = x.shape[-1]
    if d == 0:
        raise DimensionError(f"layer_norm needs a feature width of at least 1, got {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"feature width {d}"
        )
    xhat = x.data - (x.data @ np.full(d, 1.0 / d, dtype=x.dtype))[..., None]
    var = np.einsum("...j,...j->...", xhat, xhat)[..., None] / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    gd = gamma.data
    out = xhat * gd
    out += beta.data

    def vjp(g):
        gx = g * xhat
        dgamma = _sum_leading(gx, g.ndim - 1)
        mean_vec = gd / d  # row means of g * gamma as GEMVs of g
        dx = g * gd
        dx -= (g @ mean_vec)[..., None]
        dx -= np.multiply(xhat, (gx @ mean_vec)[..., None], out=gx)
        dx *= inv
        return dx, dgamma, _sum_leading(g, g.ndim - 1)

    return _node(out, (x, gamma, beta), vjp, "layer_norm")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 Phi(x) = 0.5 + 0.5 tanh(x U(x^2)), U in increasing powers of x^2:
# a weighted least-squares fit of atanh(erf(x / sqrt(2))) / x on (0, 6.5]
# (the classic tanh GELU is its degree-1 member). U has no positive root,
# so x U(x^2) has the sign of x, and tanh saturates to +-1 in float32 from
# |x| of about 6; Phi is in [0, 1] by construction.
_PHI_U = (0.797884941482545, 0.03633308446003419, -3.2594831524561155e-05,
          -5.530626202766682e-05, 3.964758369725655e-06, -1.3226456273121567e-07,
          1.7562078975267372e-09)

# the float32 normal CDF is evaluated over chunks of this many elements;
# 64K beat 16K and 256K at the model's (3136, 256) FFN width
_CHUNK_ELEMENTS = 1 << 16


def _gelu_slope(x: np.ndarray, x2: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """Write GELU's derivative Phi(x) + x pdf(x) into ``out`` from x2 = x*x (may be ``out``)."""
    np.multiply(x2, -0.5, out=out)
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    out *= x
    out += phi


def _normal_cdf_float32(x: np.ndarray, slope: np.ndarray | None = None,
                        times_x: bool = False) -> np.ndarray:
    """Phi(x) for float32 ``x``, or x Phi(x) if ``times_x``, as a fresh array.

    Each 64K chunk takes 18 vectorized passes for x Phi(x): x^2, 12 for U's
    Horner form, the product with x, tanh, the affine 0.5 + 0.5 t and the
    final product with x; scipy's ``erf`` is a scalar loop. Given
    ``slope``, an array shaped like ``x``, each chunk also writes
    ``_gelu_slope`` into it from the chunk's x^2 and Phi while both are
    still in cache (5 more passes). x U(x^2) overflows to +-inf for |x|
    above about 4e3 (x^2 itself above about 1.8e19), where tanh gives the
    same +-1 as for any |x| past 6, so that overflow is silenced.
    """
    flat = x.reshape(-1)
    phi = np.empty_like(flat)
    dflat = None if slope is None else slope.reshape(-1)
    size = max(1, min(_CHUNK_ELEMENTS, flat.size))
    x2 = np.empty(size, dtype=np.float32)
    with np.errstate(over="ignore"):
        for i in range(0, flat.size, size):
            a, p = flat[i : i + size], phi[i : i + size]
            b = x2[: a.size]
            np.multiply(a, a, out=b)
            np.multiply(b, _PHI_U[-1], out=p)  # U(x^2) in Horner form
            for c in _PHI_U[-2:0:-1]:
                p += c
                p *= b
            p += _PHI_U[0]
            p *= a
            np.tanh(p, out=p)
            p *= 0.5
            p += 0.5
            if dflat is not None:
                _gelu_slope(a, b, p, dflat[i : i + size])
            if times_x:
                p *= a
    return phi.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """GELU, x * Phi(x) with Phi the standard normal CDF (arXiv 1606.08415).

    float32 evaluates Phi as 0.5 + 0.5 tanh(x U(x^2)) with the degree-6
    polynomial U above, within 6e-7 absolute of the exact GELU on random
    points in [-10, 10], and x Phi(x) in [min(x, 0), max(x, 0)] everywhere;
    float64 keeps scipy's exact ``erf``, the reference gradcheck tests
    against. The output is formed in Phi's buffer. When recording, the
    derivative Phi(x) + x pdf(x) is formed in forward and is the only
    array the VJP keeps, neither Phi nor the input. The input array is
    never written.
    """
    slope = np.empty_like(x.data) if _recording((x,)) else None
    if x.dtype == np.float32:
        out = _normal_cdf_float32(x.data, slope, times_x=True)
    else:
        out = erf(x.data * _INV_SQRT2)
        out += 1.0
        out *= 0.5
        if slope is not None:
            np.square(x.data, out=slope)
            _gelu_slope(x.data, slope, out, slope)
        out *= x.data

    def vjp(g):
        return (g * slope,)

    return _node(out, (x,), vjp, "gelu")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the token axis: (..., N, D) -> (..., D), N >= 1."""
    if x.ndim < 2 or x.shape[-2] == 0:
        raise DimensionError(f"global_avg_pool needs (..., N, D) input with N >= 1, got {x.shape}")
    n, shape = x.shape[-2], x.shape
    out = x.data.mean(axis=-2)

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g / n, -2), shape),)

    return _node(out, (x,), vjp, "global_avg_pool")


# ---------------------------------------------------------------------------
# convolution


def _windows(a: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The (B, Ho, Wo, k, k, C) view of the k x k window of (B, H, W, C) ``a``
    that each output position reads."""
    s0, s1, s2, s3 = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (a.shape[0], ho, wo, k, k, a.shape[3]), (s0, stride * s1, stride * s2, s1, s2, s3)
    )


def _dense_rows(w: np.ndarray) -> np.ndarray:
    """A dense (Cout, Cin, k, k) weight as C-ordered (Cout, k*k*Cin) rows in
    im2col column order: one (Cin, k*k) transpose per output channel, which
    reads and writes contiguous runs (a (k, k, Cin, Cout) copy strides
    across the whole weight for every element it writes)."""
    return np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(w.shape[0], -1)


def _depthwise_taps(w: np.ndarray) -> np.ndarray:
    """A depthwise (C, 1, k, k) weight as a C-ordered (k, k, C) tap array."""
    return np.ascontiguousarray(w[:, 0].transpose(1, 2, 0))


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Dense or depthwise 2-D cross-correlation over channels-last input, plus a bias.

    ``x`` is (H, W, Cin) or (B, H, W, Cin) and the output is (Ho, Wo, Cout)
    or (B, Ho, Wo, Cout); ``b`` is (Cout,). The input is zero-padded by
    k // 2 on every side, so with an odd k the output extents are
    ceil(H / stride) and ceil(W / stride). The weight's shape sets the
    kind: (Cout, Cin, k, k) is dense, and (Cin, 1, k, k) with Cin > 1 is
    depthwise (so with Cin = 1 a (Cout, 1, k, k) weight is dense); any
    other weight, a stride below 1 or an empty H or W raises
    ``DimensionError``. A token grid (..., H*W, D) reshaped to
    (..., H, W, D) is a valid input without a copy. Every output position
    reads a (k, k, Cin) window of one strided view.

    Depthwise, the forward and dw are one einsum over the windows each, and
    dx is the forward's window einsum again, with the kernel flipped in
    both axes, over an (H + k - 1, W + k - 1) zero grid that holds the
    output gradient ``stride`` apart from offset k - 1 - k // 2. Dense,
    the windows are copied into (B*Ho*Wo, k*k*Cin) im2col rows, and the
    forward, dw and dx are one matrix product each, the forward and dx
    against the weight as (Cout, k*k*Cin) rows (``_dense_rows``, formed
    again in backward rather than kept). dx then adds the taps' columns of
    that product into a zeroed padded buffer (col2im), one stride x stride
    block of taps per pass: the taps of a block write disjoint positions,
    and side by side they read and write runs of stride * Cin values, not
    Cin. Of the forward's arrays, backward keeps only the padded input,
    for dw.
    """
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input/weight, got {x.shape}, {w.shape}")
    bsz, h, wd_, cin = xd.shape
    cout, cin_g, kh, kw = w.shape
    if kh != kw:
        raise DimensionError(f"conv2d kernels must be square, got {w.shape}")
    k = kh
    depthwise = cin_g == 1 and cout == cin > 1
    if cin_g != cin and not depthwise:
        raise DimensionError(
            f"conv2d weight {w.shape} is neither dense (Cout, {cin}, k, k) nor "
            f"depthwise ({cin}, 1, k, k) for Cin={cin}"
        )
    if stride < 1:
        raise DimensionError(f"conv2d needs stride >= 1, got {stride}")
    if h < 1 or wd_ < 1:
        raise DimensionError(f"conv2d needs a non-empty grid, got {h}x{wd_}")
    pad = k // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd_ + 2 * pad - k) // stride + 1
    _count_macs(bsz * cout * ho * wo * cin_g * k * k)

    xp = np.pad(xd, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else xd
    win = _windows(xp, k, stride, ho, wo)
    n = bsz * ho * wo
    wdata = w.data
    if depthwise:
        out = np.einsum("bhwijc,ijc->bhwc", win, _depthwise_taps(wdata))
    else:
        out = (win.reshape(n, k * k * cin) @ _dense_rows(wdata).T).reshape(bsz, ho, wo, cout)
    out += b.data
    need_dx = x.requires_grad

    def input_grad(gg):
        if depthwise:
            lead = k - 1 - pad
            grid = np.zeros((bsz, h + k - 1, wd_ + k - 1, cin), dtype=gg.dtype)
            grid[:, lead : lead + ho * stride : stride, lead : lead + wo * stride : stride] = gg
            flipped = _depthwise_taps(wdata)[::-1, ::-1]
            dx = np.einsum("bhwijc,ijc->bhwc", _windows(grid, k, 1, h, wd_), flipped)
        else:
            dcols = gg.reshape(n, cout) @ _dense_rows(wdata)
            dcols = dcols.reshape(bsz, ho, wo, k, k, cin)
            # the padded dx, its extents rounded up to whole strides, as
            # (B, rows / stride, stride, cols / stride, stride, Cin)
            dx6 = np.zeros((bsz, -(-(h + 2 * pad) // stride), stride,
                            -(-(wd_ + 2 * pad) // stride), stride, cin), dtype=gg.dtype)
            for qi in range((k - 1) // stride + 1):
                for qj in range((k - 1) // stride + 1):
                    # the up to stride x stride taps from (qi, qj) * stride write
                    # disjoint positions, in runs of stride * Cin values: one pass
                    i0, j0 = qi * stride, qj * stride
                    src = dcols[:, :, :, i0 : i0 + stride, j0 : j0 + stride]
                    src = src.transpose(0, 1, 3, 2, 4, 5)
                    dx6[:, qi : qi + ho, : src.shape[2], qj : qj + wo, : src.shape[4]] += src
            dxp = dx6.reshape(bsz, dx6.shape[1] * stride, dx6.shape[3] * stride, cin)
            dx = dxp[:, pad : pad + h, pad : pad + wd_]
        return dx[0] if squeeze else dx

    def vjp(g):
        gg = g.reshape(bsz, ho, wo, cout)
        if depthwise:
            dw = np.einsum("bhwijc,bhwc->cij", win, gg)[:, None]
        else:
            dwt = (win.reshape(n, k * k * cin).T @ gg.reshape(n, cout)).reshape(k, k, cin, cout)
            dw = np.ascontiguousarray(dwt.transpose(3, 2, 0, 1))
        return input_grad(gg) if need_dx else None, dw, _sum_leading(gg, 3)

    return _node(out[0] if squeeze else out, (x, w, b), vjp, "conv2d")


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, labels, label_smoothing: float = 0.0) -> Tensor:
    """Mean softmax cross-entropy over (B, K) logits. Gradient is (p - q) / B.

    ``labels`` holds B class indices, integers in [0, K) (an integral float
    counts; anything else raises ``InputError``); with smoothing s in
    [0, 1) the target distribution is (1 - s) * onehot + s / K. Logits
    with B = 0 or K = 0 raise ``DimensionError``.
    """
    if logits.ndim != 2 or 0 in logits.shape:
        raise DimensionError(f"cross_entropy needs (B, K) logits, B, K >= 1, got {logits.shape}")
    if not 0 <= label_smoothing < 1:
        raise ConfigError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
    z = logits.data
    bsz, ncls = z.shape
    raw = np.asarray(labels).reshape(-1)
    if raw.dtype.kind not in "iuf":
        raise InputError(f"cross_entropy labels must be class indices, got dtype {raw.dtype}")
    if raw.shape[0] != bsz:
        raise DimensionError(
            f"cross_entropy got {bsz} logit rows but {raw.shape[0]} labels"
        )
    bad = ~((raw >= 0) & (raw < ncls) & (raw == np.floor(raw)))  # NaN is bad too
    if bad.any():
        raise InputError(f"cross_entropy label {raw[bad][0]} is not an integer in [0, {ncls})")
    labels = raw.astype(np.int64)
    zmax = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True)) + zmax
    logp = z - lse
    q = np.full_like(z, label_smoothing / ncls)
    q[np.arange(bsz), labels] += 1.0 - label_smoothing
    loss = -(q * logp).sum(axis=-1).mean()

    def vjp(g):
        p = np.exp(logp)
        dz = (p - q) * (g / bsz)
        return (dz,)

    return _node(np.asarray(loss, dtype=logits.dtype), (logits,), vjp, "cross_entropy")
