"""Damaged files: every reader either returns or raises ``FormatError``.

Each case starts from a valid file, overwrites a few bytes and may cut the
file short. Any other exception, or a hang or allocation sized by a forged
header, is a reader bug. ``load_checkpoint`` gets its damage in the values
of the ``config/*`` records of a small model's checkpoint, uncut, so that a
forged config, not only a weight payload, meets model construction.
Examples are derandomized so the suite stays deterministic.
"""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metavit.checkpoint import load_checkpoint, load_tensors, save_checkpoint, write_record
from metavit.errors import FormatError
from metavit.fileio import read_pgm16, read_ppm, read_tensor_file
from metavit.model import Model, VariantSpec

SMALL = VariantSpec("custom", (1, 1, 1, 1, 1), (32,) * 4, meta_len=2, num_classes=2)


def _lmvt() -> bytes:
    f = io.BytesIO()
    f.write(b"LMVT" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little"))
    write_record(f, "blk.w", np.arange(6, dtype=np.float32).reshape(2, 3))
    write_record(f, "config/dims", np.array([16.0, 32.0], dtype=np.float32))
    return f.getvalue()


def _ten() -> bytes:
    f = io.BytesIO()
    write_record(f, "image", np.linspace(-1, 1, 3 * 2 * 2, dtype=np.float32).reshape(3, 2, 2))
    return f.getvalue()


VALID = {
    "lmvt": (load_tensors, _lmvt()),
    "ten": (read_tensor_file, _ten()),
    "ppm": (read_ppm, b"P6\n# two by two\n2 2\n255\n" + bytes(range(0, 240, 20))),
    "ppm16": (read_ppm, b"P6 1 2 65535\n" + bytes(range(12))),
    "pgm": (read_pgm16, b"P5\n3 2\n65535\n" + bytes(range(100, 112))),
}


@st.composite
def damaged(draw, original: bytes, positions=None, cut: bool = True) -> bytes:
    """Up to 4 bytes overwritten (at ``positions``, anywhere by default), maybe cut short."""
    data = bytearray(original)
    pick = st.integers(0, len(data) - 1) if positions is None else st.sampled_from(positions)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(pick)] = draw(st.integers(0, 255))
    if not cut:
        return bytes(data)
    return bytes(data[: draw(st.sampled_from([len(data), draw(st.integers(0, len(data)))]))])


def config_payload_offsets(data: bytes) -> list[int]:
    """Byte offsets of the values of the ``config/*`` records that open a checkpoint."""
    at, offsets = 12, []
    while True:
        (name_len,) = struct.unpack_from("<H", data, at)
        if not data[at + 2:at + 2 + name_len].startswith(b"config/"):
            return offsets
        ndim = data[at + 3 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", data, at + 4 + name_len)
        start = at + 4 + name_len + 4 * ndim
        at = start + 4 * math.prod(dims)
        offsets += range(start, at)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_file_reads(kind, tmp_path):
    reader, original = VALID[kind]
    path = tmp_path / f"valid.{kind}"
    path.write_bytes(original)
    reader(str(path))


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_raises_only_format_error(kind, data, tmp_path):
    reader, original = VALID[kind]
    path = tmp_path / f"damaged.{kind}"
    path.write_bytes(data.draw(damaged(original)))
    try:
        reader(str(path))
    except FormatError:
        pass


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory) -> tuple[bytes, list[int]]:
    """A valid checkpoint of SMALL and the offsets of its config values."""
    path = tmp_path_factory.mktemp("ckpt") / "small.lmvt"
    save_checkpoint(Model(SMALL, seed=0), str(path))
    data = path.read_bytes()
    return data, config_payload_offsets(data)


def test_valid_checkpoint_loads(small_checkpoint, tmp_path):
    path = tmp_path / "valid.lmvt"
    path.write_bytes(small_checkpoint[0])
    assert load_checkpoint(str(path)).spec == SMALL
    assert len(small_checkpoint[1]) == 4 * (5 + 4 + 6 + 4)  # blocks, dims, scalars, toggles


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_checkpoint_config_raises_only_format_error(small_checkpoint, data, tmp_path):
    original, config_values = small_checkpoint
    path = tmp_path / "damaged.lmvt"
    path.write_bytes(data.draw(damaged(original, config_values, cut=False)))
    try:
        load_checkpoint(str(path))
    except FormatError:
        pass
