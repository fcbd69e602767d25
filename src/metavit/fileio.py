"""Small file formats used by the command line.

Input images travel either as a single binary tensor record (the same
layout as one checkpoint record: name_len u16, name, dtype u8, ndim u8,
dims u32 each, little-endian float32 payload) or as binary PPM (P6),
which is rescaled from [0, maxval] to [-1, 1]. Attention maps are written
as 16-bit binary PGM (P5, big-endian samples per the netpbm convention)
next to a CSV of the raw weights.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import read_record, write_record
from .errors import FormatError


def write_tensor_file(path: str, arr: np.ndarray, name: str = "tensor") -> None:
    with open(path, "wb") as f:
        write_record(f, name, arr)


def read_tensor_file(path: str) -> tuple[str, np.ndarray]:
    with open(path, "rb") as f:
        name, arr = read_record(f)
        if f.read(1):
            raise FormatError("trailing bytes after tensor record", offset=f.tell() - 1)
    return name, arr


def _read_pnm_header(data: bytes, magic: bytes, path: str):
    if not data.startswith(magic):
        raise FormatError(f"{path}: expected {magic.decode()} header", offset=0)
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header", offset=pos)
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise FormatError(f"{path}: bad header token {data[start:pos]!r}", offset=start)
        if len(fields) < 3 and fields[-1] < 1:  # width or height
            raise FormatError(f"{path}: image extent {fields[-1]} is not positive", offset=start)
        if len(fields) == 3 and not 0 < fields[-1] <= 65535:
            raise FormatError(f"{path}: unsupported maxval {fields[-1]}", offset=start)
    return fields, pos + 1  # single whitespace byte separates header and raster


def _read_pnm(path: str, magic: bytes, channels: int) -> tuple[np.ndarray, int]:
    """The (H, W, channels) samples of a binary PNM file and its maxval."""
    with open(path, "rb") as f:
        data = f.read()
    (width, height, maxval), offset = _read_pnm_header(data, magic, path)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    size = width * height * channels * dtype.itemsize
    raster = data[offset : offset + size]
    if len(raster) != size:
        raise FormatError(f"{path}: truncated raster", offset=offset + len(raster))
    return np.frombuffer(raster, dtype=dtype).reshape(height, width, channels), maxval


def read_ppm(path: str) -> np.ndarray:
    """Binary PPM to a (3, H, W) float32 image in [-1, 1]."""
    samples, maxval = _read_pnm(path, b"P6", 3)
    pixels = samples.astype(np.float32).transpose(2, 0, 1)
    return (pixels / maxval) * 2.0 - 1.0


def write_pgm16(path: str, values: np.ndarray) -> None:
    """One 2-D map to 16-bit binary PGM, scaled so the peak hits white."""
    if values.ndim != 2:
        raise FormatError(f"PGM map must be 2-D, got shape {values.shape}")
    peak = float(values.max())
    scaled = values / peak if peak > 0 else np.zeros_like(values)
    samples = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode()
    with open(path, "wb") as f:
        f.write(header)
        f.write(samples.tobytes())


def read_pgm16(path: str) -> np.ndarray:
    samples, _ = _read_pnm(path, b"P5", 1)
    return samples[..., 0].astype(np.float32)
