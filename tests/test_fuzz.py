"""Damaged files: every reader either returns or raises ``FormatError``.

Each case starts from a valid file, overwrites a few bytes and may cut the
file short. Any other exception, or a hang or allocation sized by a forged
header, is a reader bug. Examples are derandomized so the suite stays
deterministic.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metavit.checkpoint import load_tensors, write_record
from metavit.errors import FormatError
from metavit.fileio import read_pgm16, read_ppm, read_tensor_file


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
def damaged(draw, original: bytes) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[: draw(st.sampled_from([len(data), draw(st.integers(0, len(data)))]))])


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
