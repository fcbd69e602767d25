from pathlib import Path

import numpy as np
import pytest

from conftest import BAD_CONFIG_VALUES, FORGERIES, forge_config, set_config
from metavit import cli, fileio
from metavit.checkpoint import load_checkpoint, load_tensors, save_checkpoint, save_tensors
from metavit.cli import config_flags, main
from metavit.errors import FormatError, MetavitError, UsageError
from metavit.model import build_variant, variant


@pytest.fixture
def image_file(tmp_path, rng):
    path = tmp_path / "x.ten"
    arr = rng.standard_normal((3, 64, 64)).astype(np.float32)
    fileio.write_tensor_file(str(path), arr, name="image")
    return str(path)


@pytest.fixture
def ckpt_file(tmp_path):
    path = tmp_path / "m.lmvt"
    save_checkpoint(build_variant(variant("tiny-narrow", num_classes=3), 0), str(path))
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def _stub(monkeypatch, command, handler):
    """Run ``handler`` in place of ``command``'s own."""
    monkeypatch.setitem(cli.COMMANDS, command, cli.COMMANDS[command]._replace(handler=handler))


def _spy(monkeypatch, command) -> dict:
    """The settings ``command``'s handler is called with, filled when it runs."""
    seen = {}
    _stub(monkeypatch, command, lambda settings: seen.update(settings) or 0)
    return seen


class TestConfigFile:
    def test_values_parsed_and_typed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nvariant = small\ninput=96\nstrict_dual = true\n")
        assert config_flags(str(cfg), "analyze") == ["--variant=small", "--input=96",
                                                     "--strict-dual"]
        seen = _spy(monkeypatch, "analyze")
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert (seen["variant"], seen["input"], seen["strict_dual"]) == ("small", 96, True)
        assert type(seen["input"]) is int and seen["format"] == "table"

    def test_unknown_key_rejected(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = small\n\nvariantt = small\n")
        with pytest.raises(UsageError, match=f"{cfg}:3"):
            config_flags(str(cfg), "analyze")
        _stub(monkeypatch, "analyze", _refuse)
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert _one_line_usage_error(capsys.readouterr().err, f"{cfg}:3: analyze takes no "
                                                             f"config key 'variantt'")

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = tiny\ninput = 224\nformat = csv\n")
        code = main(["analyze", "--config", str(cfg), "--variant", "small"])
        assert code == 0
        out = capsys.readouterr().out
        # small has six stride-16 blocks, tiny would have eight
        assert "s3.b5" in out and "s3.b7" not in out

    def test_bad_value_type(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input = tiny\n")
        _stub(monkeypatch, "analyze", _refuse)
        assert main(["analyze", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert _one_line_usage_error(err, "argument --input: invalid int value: 'tiny'")

    def test_bad_boolean_word(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("use_ca_stage = maybe\n")
        _stub(monkeypatch, "analyze", _refuse)
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert _one_line_usage_error(capsys.readouterr().err, f"{cfg}:1")

    @pytest.mark.parametrize("command,key,value", [
        ("train", "use_ca_stage", "false"), ("train", "meta_len", "4"),
        ("infer", "variant", "small"), ("gradcheck", "out_dir", "x"),
    ])
    def test_key_the_command_does_not_take_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          command, key, value):
        assert main([command, "--" + key.replace("_", "-"), value]) == 1  # as the flag is
        _stub(monkeypatch, command, _refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert _one_line_usage_error(err, repr(key)) and command in err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_config_file_takes_the_commands_keys(self, tmp_path, capsys, monkeypatch, command):
        sample = {bool: ("true", True), int: ("2", 2), float: ("0.5", 0.5), str: ("x", "x")}
        taken = cli.COMMANDS[command].keys
        for key, (kind, _, _) in cli.CONFIG_KEYS.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {sample[kind][0]}\n")
            seen = _spy(monkeypatch, command)
            code = main([command, "--config", str(cfg)])
            out, err = capsys.readouterr()
            if key in taken:
                assert code == 0 and err == ""
                assert set(seen) == set(taken)  # a handler gets only its own keys
                assert seen[key] == sample[kind][1] and type(seen[key]) is kind
            else:
                assert code == 1 and not seen and out == ""
                assert _one_line_usage_error(err, f"{command} takes no config key {key!r}")

    def test_boolean_flag_beats_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("use_ca_stage = false\nformat = csv\n")
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert "\ns0.b0," not in capsys.readouterr().out
        assert main(["analyze", "--config", str(cfg), "--use-ca-stage"]) == 0
        assert "\ns0.b0," in capsys.readouterr().out

    @pytest.mark.parametrize("flags,keeps_s0", [
        (["--no-use-ca-stage", "--use-ca-stage"], True),
        (["--use-ca-stage", "--no-use-ca-stage"], False),
    ])
    def test_last_boolean_flag_wins(self, capsys, flags, keeps_s0):
        assert main(["analyze", "--format", "csv"] + flags) == 0
        assert ("\ns0.b0," in capsys.readouterr().out) == keeps_s0

    @pytest.mark.parametrize("name", ["tiny", "small", "base"])
    def test_csv_matches_golden_from_flags_and_file(self, tmp_path, capsys, name):
        golden = "seed: 0\n" + (GOLDEN / f"analyze_{name}.csv").read_text()
        assert main(["analyze", "--variant", name, "--format", "csv"]) == 0
        assert capsys.readouterr().out == golden
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"variant = {name}\nformat = csv\ninput = 224\nuse_ca_stage = yes\n"
                       "use_meta_stem = 1\nuse_meta_pooling = true\nstrict_dual = no\n")
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == golden


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["analyze", "--wat"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("command,flag,value", [("analyze", "--m", "4"),
                                                    ("train", "--n", "1e38")])
    def test_abbreviated_flag_is_usage_error(self, capsys, monkeypatch, command, flag, value):
        _stub(monkeypatch, command, _refuse)
        assert main([command, flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and _one_line_usage_error(err, f"unrecognized arguments: {flag} {value}")

    def test_full_flag_still_runs(self, capsys):
        assert main(["analyze", "--meta-len", "4", "--format", "csv"]) == 0
        assert "\ns1.b0,dca,3136,4,64," in capsys.readouterr().out

    def test_unknown_variant_is_usage_error(self, capsys):
        assert main(["analyze", "--variant", "huge"]) == 1

    def test_missing_checkpoint_file(self, capsys, image_file):
        assert main(["infer", "--checkpoint", "/nonexistent.lmvt",
                     "--image", image_file]) == 2

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, capsys, image_file):
        bad = tmp_path / "bad.lmvt"
        bad.write_bytes(b"XXXXgarbage")
        assert main(["infer", "--checkpoint", str(bad), "--image", image_file]) == 2

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, capsys, ckpt_file, image_file):
        # save_checkpoint refuses NaN weights, so the file is forged record by record
        table = load_tensors(ckpt_file)
        table["stem.conv1.w"].reshape(-1)[0] = np.nan
        path = tmp_path / "nan.lmvt"
        save_tensors(str(path), table)
        assert main(["infer", "--checkpoint", str(path), "--image", image_file]) == 2
        assert "NaN or infinite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,entries,first", FORGERIES)
    def test_forged_config_is_one_line_data_error(self, capsys, ckpt_file, image_file,
                                                  key, entries, first):
        forge_config(ckpt_file, key, entries)
        assert main(["infer", "--checkpoint", ckpt_file, "--image", image_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(first) in err and "Traceback" not in err

    @pytest.mark.parametrize("key,entry,value", BAD_CONFIG_VALUES)
    def test_non_integer_config_is_one_line_data_error(self, capsys, ckpt_file, image_file,
                                                       key, entry, value):
        set_config(ckpt_file, key, entry, value)
        assert main(["infer", "--checkpoint", ckpt_file, "--image", image_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["infer", "attmap"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_is_data_error(self, tmp_path, capsys, ckpt_file, command, bad):
        img = np.zeros((3, 64, 64), dtype=np.float32)
        img[1, 5, 7] = bad
        path = tmp_path / "bad.ten"
        fileio.write_tensor_file(str(path), img, name="image")
        extra = ["--out-dir", str(tmp_path / "maps")] if command == "attmap" else []
        code = main([command, "--checkpoint", ckpt_file, "--image", str(path)] + extra)
        assert code == 2
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_any_package_error_is_data_error(self, monkeypatch, capsys):
        class UnlistedError(MetavitError):
            pass

        def fail(settings):
            raise UnlistedError("unlisted failure")

        _stub(monkeypatch, "analyze", fail)
        assert main(["analyze"]) == 2
        assert "unlisted failure" in capsys.readouterr().err


def _one_line_usage_error(err: str, key: str) -> bool:
    return (err.startswith("usage error: ") and err.count("\n") == 1
            and key in err and "Traceback" not in err)


def _refuse(*args, **kwargs):
    raise AssertionError("built before the values were checked")


class TestHostileValues:
    """Out-of-range numbers end in a one-line usage error before anything is built."""

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "0"), ("batch_size", "-4"), ("lr", "nan"), ("lr", "inf"), ("lr", "-1"),
        ("weight_decay", "nan"), ("weight_decay", "inf"), ("weight_decay", "-1"),
        ("label_smoothing", "7"), ("label_smoothing", "1"), ("label_smoothing", "-0.1"),
        ("label_smoothing", "nan"), ("noise_sigma", "-1"), ("noise_sigma", "nan"),
        ("noise_sigma", "inf"), ("noise_sigma", "1e38"), ("noise_sigma", "1e300"),
        ("samples", "100000000"),
    ])
    @pytest.mark.filterwarnings("error")  # an overflowing noise draw must not warn either
    def test_train(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr(cli, "Model", _refuse)
        code = main(["train", "--variant", "tiny-narrow", "--steps", "1", "--samples", "3",
                     "--out-dir", str(tmp_path / "out"), "--" + key.replace("_", "-"), value])
        assert code == 1
        assert _one_line_usage_error(capsys.readouterr().err, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("optimizer", ["adamw-lite", "sgd-momentum"])
    @pytest.mark.parametrize("key", ["lr", "weight_decay"])
    @pytest.mark.filterwarnings("error")  # the overflowing update must not warn
    def test_train_non_finite_update_is_one_line_error(self, tmp_path, capsys, optimizer, key):
        code = main(["train", "--variant", "tiny-narrow", "--steps", "1", "--samples", "3",
                     "--batch-size", "3", "--optimizer", optimizer,
                     "--out-dir", str(tmp_path / "out"), "--" + key.replace("_", "-"), "1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: step 0 would write non-finite weights to stem.conv1.w\n"
        assert not (tmp_path / "out").exists()

    def test_train_batch_larger_than_samples(self, tmp_path, capsys):
        code = main(["train", "--variant", "tiny-narrow", "--steps", "1", "--samples", "3",
                     "--batch-size", "5", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert _one_line_usage_error(capsys.readouterr().err, "batch_size")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,key,value,word", [
        ("pair", "e", "0", "expansion"), ("pair", "e", "-2", "expansion"),
        ("pair", "warmup", "-1", "warmup"), ("model", "warmup", "-1", "warmup"),
        ("pair", "iters", "0", "iterations"), ("model", "iters", "-1", "iterations"),
        ("pair", "m", "-1", "meta"), ("pair", "m", "1", "meta"), ("pair", "n", "-16", "n="),
        ("pair", "n", "1", "n="), ("pair", "d", "0", "width"), ("pair", "d", "-8", "width"),
        ("pair", "n", str(1 << 30), "hidden"), ("pair", "e", str(1 << 40), "hidden"),
        ("model", "input", "-64", "input"), ("model", "input", "0", "input"),
        ("model", "input", "100", "input"), ("model", "input", str(1 << 20), "input"),
    ])
    def test_bench(self, tmp_path, capsys, monkeypatch, mode, key, value, word):
        monkeypatch.setattr(cli.bench_mod, "ParamStore", _refuse)
        monkeypatch.setattr(cli.bench_mod, "Model", _refuse)
        code = main(["bench", "--mode", mode, "--n", "16", "--m", "4", "--d", "8",
                     "--variant", "tiny-narrow", "--input", "64",
                     "--out-dir", str(tmp_path), "--" + key, value])
        assert code == 1
        assert _one_line_usage_error(capsys.readouterr().err, word)
        assert not (tmp_path / "bench.csv").exists()


    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_negative_seed(self, capsys, monkeypatch, command):
        for name in cli.COMMANDS:
            _stub(monkeypatch, name, _refuse)
        assert main([command, "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and _one_line_usage_error(err, "seed")

    def test_negative_seed_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        assert main(["analyze", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and _one_line_usage_error(err, "-3")


class TestAnalyze:
    def test_prints_seed_and_report(self, capsys):
        code = main(["analyze", "--variant", "tiny", "--input", "224",
                     "--meta-len", "16", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("seed: 0\n")
        assert "s1.b0,dca,3136,16,64,4,161349632" in out

    def test_small_first_dca_row(self, capsys):
        main(["analyze", "--variant", "small", "--format", "csv"])
        assert "s1.b0,dca,3136,16,96,4,358219776" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        main(["analyze", "--variant", "tiny", "--format", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out.split("\n", 1)[1])
        assert doc["totals"]["formula_units"] > 0


class TestBenchAndGradcheck:
    def test_bench_pair_small_shape_writes_csv(self, tmp_path, capsys):
        code = main(["bench", "--mode", "pair", "--n", "64", "--m", "8",
                     "--d", "32", "--iters", "30", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        text = (tmp_path / "bench.csv").read_text()
        assert text.splitlines()[0].startswith("case,n,m,d,warmup,iters,median_s")
        assert len(text.strip().splitlines()) == 3  # header + dca + sa

    @pytest.mark.parametrize("d,head_dim", [(48, 24), (40, 20), (20, 20), (64, 32), (96, 32)])
    def test_bench_pair_head_width_divides_d(self, tmp_path, capsys, monkeypatch, d, head_dim):
        widths = []
        for kind in ("DCABlock", "SABlock"):
            block = getattr(cli.bench_mod, kind)

            def spy(*args, block=block, **kwargs):
                widths.append(kwargs["head_dim"])
                return block(*args, **kwargs)

            monkeypatch.setattr(cli.bench_mod, kind, spy)
        code = main(["bench", "--mode", "pair", "--n", "16", "--m", "4", "--d", str(d),
                     "--iters", "30", "--warmup", "0", "--out-dir", str(tmp_path)])
        assert code == 0 and widths == [head_dim, head_dim]
        assert (tmp_path / "bench.csv").exists()

    def test_bench_creates_missing_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "missing" / "dir"
        code = main(["bench", "--mode", "pair", "--n", "16", "--m", "4", "--d", "16",
                     "--iters", "30", "--warmup", "0", "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "bench.csv").exists()

    def test_bench_has_no_format_flag(self, capsys, monkeypatch):
        _stub(monkeypatch, "bench", _refuse)
        assert main(["bench", "--format", "csv"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and _one_line_usage_error(err, "--format")

    def test_bench_iters_guard_is_usage_error(self, capsys):
        assert main(["bench", "--mode", "pair", "--n", "64", "--iters", "5"]) == 1

    def test_gradcheck_exit_zero_and_max_err(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out


class TestTrainInferAttmap:
    def test_train_writes_history_and_checkpoint(self, tmp_path, capsys):
        code = main([
            "train", "--variant", "tiny-narrow", "--steps", "2",
            "--batch-size", "6", "--samples", "6", "--seed", "0",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "history.csv").exists()
        assert (tmp_path / "model.lmvt").exists()
        out = capsys.readouterr().out
        assert "seed: 0" in out and "train accuracy" in out

    @pytest.mark.parametrize("from_file", [False, True])
    def test_train_writes_checkpoint_where_asked(self, tmp_path, capsys, from_file):
        path = tmp_path / "elsewhere" / "run.lmvt"
        path.parent.mkdir()
        argv = ["train", "--variant", "tiny-narrow", "--steps", "1", "--samples", "3",
                "--batch-size", "3", "--out-dir", str(tmp_path / "out")]
        if from_file:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"checkpoint = {path}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--checkpoint", str(path)]
        assert main(argv) == 0
        assert f"and {path}\n" in capsys.readouterr().out
        assert path.exists() and (tmp_path / "out" / "history.csv").exists()
        assert not (tmp_path / "out" / "model.lmvt").exists()
        assert load_checkpoint(str(path)).spec.num_classes == 3

    @pytest.mark.parametrize("flag,value", [("--lr", "1e19"), ("--weight-decay", "9.2e18")])
    @pytest.mark.filterwarnings("error")  # the diverged forwards must not warn either
    def test_train_diverged_by_last_step_is_data_error(self, tmp_path, capsys, flag, value):
        code = main(["train", "--variant", "tiny-narrow", "--steps", "1", "--samples", "3",
                     "--batch-size", "3", "--out-dir", str(tmp_path / "out"), flag, value])
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
        assert "train accuracy" not in out
        assert not (tmp_path / "out").exists()

    def test_train_unwritable_checkpoint_leaves_no_history(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["train", "--variant", "tiny-narrow", "--steps", "1", "--samples", "3",
                     "--batch-size", "3", "--out-dir", str(out_dir),
                     "--checkpoint", str(out_dir / "missing" / "m.lmvt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out_dir / "history.csv").exists()

    def test_infer_prints_logits(self, capsys, ckpt_file, image_file):
        code = main(["infer", "--checkpoint", ckpt_file, "--image", image_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "logits:" in out and "argmax:" in out
        assert len(out.split("logits: ")[1].split("\n")[0].split()) == 3

    def test_infer_deterministic(self, capsys, ckpt_file, image_file):
        main(["infer", "--checkpoint", ckpt_file, "--image", image_file])
        first = capsys.readouterr().out
        main(["infer", "--checkpoint", ckpt_file, "--image", image_file])
        assert capsys.readouterr().out == first

    def test_infer_non_square_image(self, tmp_path, capsys, ckpt_file, rng):
        path = tmp_path / "wide.ten"
        arr = rng.standard_normal((3, 64, 96)).astype(np.float32)
        fileio.write_tensor_file(str(path), arr, name="image")
        assert main(["infer", "--checkpoint", ckpt_file, "--image", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(out.split("logits: ")[1].split("\n")[0].split()) == 3

    def test_infer_accepts_ppm(self, tmp_path, capsys, ckpt_file, rng):
        ppm = tmp_path / "img.ppm"
        pixels = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        ppm.write_bytes(b"P6\n64 64\n255\n" + pixels.tobytes())
        assert main(["infer", "--checkpoint", ckpt_file, "--image", str(ppm)]) == 0
        assert "logits:" in capsys.readouterr().out

    def test_attmap_writes_16_maps(self, tmp_path, capsys, ckpt_file, image_file):
        out_dir = tmp_path / "maps"
        code = main(["attmap", "--checkpoint", ckpt_file, "--image", image_file,
                     "--out-dir", str(out_dir)])
        assert code == 0
        pgms = sorted(out_dir.glob("map_*.pgm"))
        assert len(pgms) == 16
        assert (out_dir / "attention_maps.csv").exists()
        grid = fileio.read_pgm16(str(pgms[0]))
        assert grid.shape == (8, 8)


class TestRasterRoundTrips:
    def test_tensor_file_round_trip(self, tmp_path, rng):
        arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
        path = tmp_path / "t.ten"
        fileio.write_tensor_file(str(path), arr, name="abc")
        name, back = fileio.read_tensor_file(str(path))
        assert name == "abc"
        assert np.array_equal(arr, back)

    def test_ppm_range_mapping(self, tmp_path):
        ppm = tmp_path / "img.ppm"
        pixels = np.zeros((2, 2, 3), dtype=np.uint8)
        pixels[0, 0] = 255
        ppm.write_bytes(b"P6\n2 2\n255\n" + pixels.tobytes())
        img = fileio.read_ppm(str(ppm))
        assert img.shape == (3, 2, 2)
        assert img.max() == pytest.approx(1.0)
        assert img.min() == pytest.approx(-1.0)

    @pytest.mark.parametrize("extents", [b"0 0", b"0 2", b"2 0"])
    def test_ppm_zero_extent_rejected(self, tmp_path, extents):
        ppm = tmp_path / "empty.ppm"
        ppm.write_bytes(b"P6\n" + extents + b"\n255\n" + bytes(12))
        with pytest.raises(FormatError) as info:
            fileio.read_ppm(str(ppm))
        assert info.value.offset == (3 if extents.startswith(b"0") else 5)

    @pytest.mark.parametrize("extents", [b"0 0", b"0 2", b"2 0"])
    def test_pgm_zero_extent_rejected(self, tmp_path, extents):
        pgm = tmp_path / "empty.pgm"
        pgm.write_bytes(b"P5\n" + extents + b"\n65535\n" + bytes(8))
        with pytest.raises(FormatError) as info:
            fileio.read_pgm16(str(pgm))
        assert info.value.offset == (3 if extents.startswith(b"0") else 5)

    @pytest.mark.parametrize("maxval", [b"0", b"70000"])
    def test_pgm_maxval_out_of_range_rejected(self, tmp_path, maxval):
        pgm = tmp_path / "bad.pgm"
        pgm.write_bytes(b"P5\n1 1\n" + maxval + b"\n" + bytes(2))
        with pytest.raises(FormatError) as info:
            fileio.read_pgm16(str(pgm))
        assert info.value.offset == 7

    def test_pgm16_round_trip_monotone(self, tmp_path, rng):
        values = rng.random((4, 5)).astype(np.float32)
        path = tmp_path / "m.pgm"
        fileio.write_pgm16(str(path), values)
        back = fileio.read_pgm16(str(path))
        order_in = np.argsort(values.reshape(-1))
        order_out = np.argsort(back.reshape(-1), kind="stable")
        assert np.array_equal(values.reshape(-1)[order_in].argsort(),
                              values.reshape(-1)[order_out].argsort())
        assert back.max() == 65535.0
