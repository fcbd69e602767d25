"""Named-tensor binary checkpoints.

Wire format, all integers little-endian:

    magic   4 bytes  "LMVT"
    version u32      currently 1
    count   u32      number of tensor records
    record  repeated:
        name_len u16
        name     UTF-8 bytes
        dtype    u8   (0 = float32)
        ndim     u8
        dims     u32 * ndim
        payload  little-endian scalars, row-major

Model parameters are stored under their registry names. The architecture
description rides along as reserved ``config/*`` tensors (small float32
arrays of exactly representable integers) so a checkpoint alone suffices
to rebuild the model, which takes the loaded arrays as its parameters.
Round trips are bit-exact.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .blocks import CPE_KERNEL
from .errors import ConfigError, FormatError
from .model import EXPANSION, HEAD_DIM, META_DIM0, Model, VariantSpec, variant, variant_names

MAGIC = b"LMVT"
VERSION = 1
DTYPE_F32 = 0

_CONFIG_PREFIX = "config/"
# config/scalars is [meta_len, *_SHARED values, num_classes]; a load refuses other
# shared values, as no parameter shape would reveal a forged head width.
# config/toggles holds the VariantSpec toggles, in record order.
_SHARED = {"meta_dim0": META_DIM0, "head_dim": HEAD_DIM, "expansion": EXPANSION,
           "cpe_kernel": CPE_KERNEL}
_TOGGLES = ("use_ca_stage", "use_meta_stem", "use_meta_pooling", "dca_sequential")


def write_record(f, name: str, arr: np.ndarray) -> None:
    """Append one tensor record in the checkpoint wire layout."""
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"tensor name too long: {len(raw)} bytes")
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)
    f.write(struct.pack("<BB", DTYPE_F32, arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(arr.astype("<f4", copy=False).tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(
            f"truncated file while reading {what}", offset=f.tell() - len(buf)
        )
    return buf


def read_record(f) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
    name_at = f.tell()
    try:
        name = _read_exact(f, name_len, "tensor name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"tensor name is not UTF-8: {exc.reason}", offset=name_at + exc.start
        ) from None
    start = f.tell()
    dtype_code, ndim = struct.unpack("<BB", _read_exact(f, 2, "dtype/ndim"))
    if dtype_code != DTYPE_F32:
        raise FormatError(f"unknown dtype code {dtype_code}", offset=start)
    dims = struct.unpack(
        "<" + "I" * ndim, _read_exact(f, 4 * ndim, "dims")
    )
    count = 1
    for d in dims:
        count *= d
    # checked before reading so a forged header cannot size an allocation
    here = f.tell()
    left = f.seek(0, io.SEEK_END) - here
    f.seek(here)
    if 4 * count > left:
        raise FormatError(
            f"payload of {name!r} needs {4 * count} bytes, the file has {left} left",
            offset=here,
        )
    try:  # too many dims, or a zero-size shape whose other dims overflow
        arr = np.empty(dims, dtype="<f4")
    except ValueError as exc:
        raise FormatError(f"shape {dims} of {name!r}: {exc}", offset=start) from None
    got = f.readinto(arr)
    if got != arr.nbytes:
        raise FormatError(f"truncated file while reading payload of {name!r}", offset=here + got)
    return name, arr.astype(np.float32, copy=False)  # no copy on little-endian hosts


def save_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            write_record(f, name, arr)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        version, count = struct.unpack("<II", _read_exact(f, 8, "header"))
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            start = f.tell()
            name, arr = read_record(f)
            if name in out:
                raise FormatError(f"duplicate tensor {name!r}", offset=f.tell())
            if not np.isfinite(arr).all():
                raise FormatError(f"tensor {name!r} holds NaN or infinite values", offset=start)
            out[name] = arr
        trailing = f.read(1)
        if trailing:
            raise FormatError("trailing bytes after final record", offset=f.tell() - 1)
    return out


def _config_tensors(spec: VariantSpec) -> dict[str, np.ndarray]:
    records = {
        "blocks": spec.blocks,
        "dims": spec.dims,
        "scalars": [spec.meta_len, *_SHARED.values(), spec.num_classes],
        "toggles": [getattr(spec, field) for field in _TOGGLES],
    }
    return {_CONFIG_PREFIX + k: np.array(v, dtype=np.float32) for k, v in records.items()}


def _config_ints(cfg: dict[str, np.ndarray], key: str, toggles: bool = False) -> list[int]:
    """The values of record ``config/<key>``: integers, or 0 and 1 for ``toggles``."""
    name = _CONFIG_PREFIX + key
    if name not in cfg:
        raise FormatError(f"checkpoint is missing {name!r}")
    values = cfg[name].reshape(-1)
    ok = np.isin(values, (0, 1)) if toggles else values == np.floor(values)
    if not ok.all():
        expected = "0 or 1" if toggles else "an integer"
        raise FormatError(f"{name!r} holds {float(values[~ok][0])!r}, expected {expected}")
    return [int(x) for x in values]


def _spec_from_config(cfg: dict[str, np.ndarray]) -> VariantSpec:
    blocks = tuple(_config_ints(cfg, "blocks"))
    dims = tuple(_config_ints(cfg, "dims"))
    scalars = _config_ints(cfg, "scalars")
    toggles = [bool(x) for x in _config_ints(cfg, "toggles", toggles=True)]
    if len(scalars) != len(_SHARED) + 2 or len(toggles) != len(_TOGGLES):
        raise FormatError(
            f"checkpoint config needs {len(_SHARED) + 2} scalars and {len(_TOGGLES)} toggles, "
            f"got {len(scalars)} and {len(toggles)}"
        )
    meta_len, *shared, num_classes = scalars
    for entry, ((field, want), got) in enumerate(zip(_SHARED.items(), shared), start=1):
        if got != want:
            raise FormatError(f"'config/scalars' entry {entry} ({field}) is {got}, not {want}")
    name = next((known for known in variant_names()
                 if (variant(known).blocks, variant(known).dims) == (blocks, dims)), "custom")
    try:
        return VariantSpec(name, blocks, dims, meta_len, num_classes,
                           **dict(zip(_TOGGLES, toggles)))
    except ConfigError as exc:
        raise FormatError(f"checkpoint config is invalid: {exc}") from None


def save_checkpoint(model: Model, path: str) -> None:
    """Write ``model`` and its config; a weight that is NaN or infinite as
    float32 is refused before the file is opened."""
    tensors = _config_tensors(model.spec)
    with np.errstate(over="ignore"):  # a float64 weight past float32's range becomes inf
        for name, p in model.parameters().items():
            arr = np.asarray(p.data, dtype=np.float32)
            if not np.isfinite(arr).all():
                raise FormatError(f"parameter {name!r} holds NaN or infinite values; "
                                  f"{path} not written")
            tensors[name] = arr
    save_tensors(path, tensors)


def load_checkpoint(path: str) -> Model:
    """The model a checkpoint describes, built on the file's own arrays.

    Every parameter's shape is checked against the stored config as it is
    registered, so a forged config cannot size an allocation.
    """
    weights = load_tensors(path)
    cfg = {k: weights.pop(k) for k in list(weights) if k.startswith(_CONFIG_PREFIX)}
    spec = _spec_from_config(cfg)
    try:
        model = Model(spec, seed=0, arrays=weights)
    except ConfigError as exc:
        raise FormatError(f"checkpoint does not match its config: {exc}") from None
    extra = sorted(set(weights) - set(model.parameters()))
    if extra:
        raise FormatError(f"checkpoint has unexpected tensors {extra[:3]}")
    return model
