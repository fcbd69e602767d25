"""Hostile command-line values: every run ends in an exit code and one line.

Each non-boolean ``CONFIG_KEYS`` entry goes through every subcommand that
takes it, on a tiny workload, as 0, -1, nan, inf, 1e300 and a 12-digit
integer. A run may succeed (exit 0), refuse the value (exit 1) or fail on
the data (exit 2), but it prints at most one line to stderr, and neither
raises nor warns. ``steps``, ``iters`` and ``warmup`` have no upper bound,
so they get no value that parses as a large integer, and ``gradcheck``
runs only seeds it rejects, since one accepted seed runs the whole battery.
Examples are derandomized so the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metavit import cli, fileio
from metavit.checkpoint import save_checkpoint
from metavit.model import build_variant, variant

VALUES = ("0", "-1", "nan", "inf", "1e300", "123456789012")
UNBOUNDED = {"steps", "iters", "warmup"}

# command -> the flags that make its run tiny; the fuzzed flag comes last and wins
BASE = {
    "analyze": [],
    "bench": ["--mode", "both", "--n", "16", "--m", "4", "--d", "8", "--iters", "30",
              "--warmup", "0", "--variant", "tiny-narrow", "--input", "64"],
    "gradcheck": [],
    "train": ["--variant", "tiny-narrow", "--steps", "1", "--samples", "3", "--batch-size", "3"],
    "infer": ["--checkpoint", "{checkpoint}", "--image", "{image}"],
    "attmap": ["--variant", "tiny-narrow", "--image", "{image}"],
}

CASES = [
    (command, key)
    for command, (_, keys) in cli.COMMAND_KEYS.items()
    for key in keys
    if cli.CONFIG_KEYS[key][0] is not bool
]


def _values(command: str, key: str) -> tuple[str, ...]:
    if command == "gradcheck":
        return ("-1", "nan", "inf", "1e300")
    if key in UNBOUNDED:
        return VALUES[:-1]
    return VALUES


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("fuzz")
    checkpoint, image = str(root / "m.lmvt"), str(root / "x.ten")
    save_checkpoint(build_variant(variant("tiny-narrow", num_classes=3), 0), checkpoint)
    arr = np.random.default_rng(0).standard_normal((3, 64, 64)).astype(np.float32)
    fileio.write_tensor_file(image, arr, name="image")
    return {"checkpoint": checkpoint, "image": image}


def test_every_non_boolean_key_is_fuzzed():
    fuzzed = {key for _, key in CASES}
    assert fuzzed == {k for k, spec in cli.CONFIG_KEYS.items() if spec[0] is not bool}
    assert set(BASE) == set(cli.COMMAND_KEYS)


@pytest.mark.parametrize("command,key", CASES)
@pytest.mark.filterwarnings("error")
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_value_ends_in_one_line(command, key, files, data, tmp_path, monkeypatch, capsys):
    value = data.draw(st.sampled_from(_values(command, key)))
    monkeypatch.chdir(tmp_path)  # artifacts, and any out_dir the value names, land here
    argv = [command] + [arg.format(**files) for arg in BASE[command]]
    code = cli.main(argv + ["--" + key.replace("_", "-"), value])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert (code == 0) == (err == ""), err
