import numpy as np
import pytest

from metavit import tensor as T
from metavit.blocks import ParamStore
from metavit.checkpoint import load_tensors, save_tensors
from metavit.tensor import Tensor


def weighted_sum(y: Tensor, weight=1.0) -> Tensor:
    """The scalar loss sum(y * weight) as one graph: y flattened to (1, size)
    through ``reshape``, then ``linear`` against weight as a (size, 1) column
    of y's dtype and a zero bias. ``weight`` broadcasts to y's shape."""
    w = np.broadcast_to(np.asarray(weight, dtype=y.dtype), y.shape).reshape(-1, 1)
    return T.linear(T.reshape(y, (1, y.size)), Tensor(w), Tensor(np.zeros(1, dtype=y.dtype)))


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product used as an independent oracle."""
    p, q = a.shape
    q2, r = b.shape
    assert q == q2
    out = np.zeros((p, r), dtype=np.float64)
    for i in range(p):
        for j in range(r):
            acc = 0.0
            for k in range(q):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out


def naive_conv2d(x, w, b, stride=1, padding=0, groups=1) -> np.ndarray:
    """Direct sliding-window convolution oracle (batched, grouped)."""
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    bsz, cin, h, wd = x.shape
    cout, cin_g, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=np.float64)
    cout_g = cout // groups
    for bi in range(bsz):
        for o in range(cout):
            g = o // cout_g
            for i in range(ho):
                for j in range(wo):
                    patch = xp[bi, g * cin_g:(g + 1) * cin_g,
                               i * stride:i * stride + k, j * stride:j * stride + k]
                    out[bi, o, i, j] = (patch * w[o]).sum() + b[o]
    return out[0] if squeeze else out


def naive_attention(q, k, v, scale) -> np.ndarray:
    """Double-loop scaled dot-product attention oracle."""
    n1, c = q.shape
    n2 = k.shape[0]
    out = np.zeros((n1, v.shape[1]), dtype=np.float64)
    for i in range(n1):
        logits = np.array([np.dot(q[i], k[j]) / scale for j in range(n2)])
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        for j in range(n2):
            out[i] += weights[j] * v[j]
    return out


def zero_block_params(store: ParamStore) -> None:
    """Zero every parameter of a block so residual paths become identities."""
    for p in store.params.values():
        p.data = np.zeros_like(p.data)


# Forged configs of a saved ``tiny-narrow`` checkpoint, each entry as
# (config record, entries scaled by FORGE_FACTOR, first tensor the forged
# config disagrees with).
FORGE_FACTOR = 4
FORGERIES = [
    ("config/dims", slice(None), "stem.conv1.w"),
    ("config/blocks", slice(None), "s0.b1.attn.wq"),
    ("config/scalars", 0, "meta.init"),  # meta_len
]


def forge_config(path: str, key: str, entries) -> None:
    """Scale entries of one ``config/*`` record of a checkpoint by FORGE_FACTOR."""
    table = load_tensors(path)
    table[key][entries] *= FORGE_FACTOR
    save_tensors(path, table)


# ``config/*`` values of a saved ``tiny-narrow`` checkpoint that are not
# the integers (or, for toggles, the 0 and 1) a config holds, as (config
# record, entry, value). Read as int or bool, the first and third would
# still load.
BAD_CONFIG_VALUES = [
    ("config/dims", 0, 32.75),
    ("config/scalars", 2, 16.9),  # the head width
    ("config/toggles", 0, 0.5),
    ("config/toggles", 1, 2.0),
]


# ``config/scalars`` entries 1-4, the settings every variant shares, as
# (entry, field, a value other than the shared one). The head width
# shapes no parameter, so 16 would run 2 heads of 16 on the same weights.
SHARED_SCALARS = [(1, "meta_dim0", 32), (2, "head_dim", 16), (3, "expansion", 2),
                  (4, "cpe_kernel", 5)]


def set_config(path: str, key: str, entry: int, value: float) -> None:
    """Overwrite one entry of a ``config/*`` record of a checkpoint."""
    table = load_tensors(path)
    table[key][entry] = value
    save_tensors(path, table)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
