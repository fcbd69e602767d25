import hashlib
import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import BAD_CONFIG_VALUES, FORGERIES, forge_config, set_config
from metavit import blocks, checkpoint, complexity
from metavit import tensor as T
from metavit.checkpoint import load_checkpoint, load_tensors, save_checkpoint, save_tensors
from metavit.errors import ConfigError, ContractError, FormatError, InputError
from metavit.model import build_variant, export_attention_maps, variant, variant_names
from metavit.tensor import Tensor


def toy_model(seed=0, **overrides):
    return build_variant(variant("tiny-narrow", num_classes=3, **overrides), seed)


def toy_image(rng, extent=64, batch=None):
    shape = (3, extent, extent) if batch is None else (batch, 3, extent, extent)
    return Tensor(rng.standard_normal(shape).astype(np.float32))


class TestRegistry:
    def test_published_rows(self):
        assert variant("tiny").blocks == (1, 2, 2, 8, 2)
        assert variant("tiny").dims == (64, 128, 192, 320)
        assert variant("small").blocks == (1, 2, 2, 6, 2)
        assert variant("small").dims == (96, 192, 320, 384)
        assert variant("base").blocks == (2, 4, 4, 18, 4)
        assert variant("base").dims == (96, 192, 384, 512)

    def test_shared_settings(self):
        for name in ("tiny", "small", "base"):
            spec = variant(name)
            assert spec.meta_len == 16
            assert spec.head_dim == 32
            assert spec.expansion == 4
            assert spec.cpe_kernel == 3

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant("huge")

    def test_invalid_override(self):
        with pytest.raises(ConfigError):
            variant("tiny", meta_len=1)

    def test_zero_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            variant("tiny", head_dim=0)

    @pytest.mark.parametrize("kernel", [0, -1])
    def test_cpe_kernel_below_one_rejected(self, kernel):
        with pytest.raises(ConfigError, match="cpe_kernel"):
            variant("tiny", cpe_kernel=kernel)

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_even_cpe_kernel_rejected(self, kernel):
        # padded by k // 2, an even kernel would grow the 16x16 grid to 17x17
        with pytest.raises(ConfigError, match=f"cpe_kernel must be odd, got {kernel}"):
            variant("tiny-narrow", cpe_kernel=kernel)

    # sha256 over each seed-0 parameter's name, shape and float32 bytes, in
    # registration order; any change to initialization or naming moves it
    SEED0_DIGESTS = {
        "tiny": "b30149b9d4dded2876c625742e968d6b02626b71955131cbb60cb53b78db7bcc",
        "small": "d7f18fb1949b15e459634a43b8d97cc5cbd670fede03fd861480097f46751214",
        "base": "07f73e2a416422eb84a5a3e192365af58d2f7ac21b9d6ed7ea9966a0f4d5aa25",
        "tiny-narrow": "fc4909c7afaf0ab65a0af1a5c3b9478edbc9a7a6b8dbb77386f8614db247a221",
    }

    @pytest.mark.parametrize("name", variant_names())
    def test_seed0_parameters_pinned(self, name):
        digest = hashlib.sha256()
        for key, p in build_variant(variant(name), 0).parameters().items():
            digest.update(key.encode())
            digest.update(str(p.shape).encode())
            digest.update(p.data.tobytes())
        assert digest.hexdigest() == self.SEED0_DIGESTS[name]


class TestForward:
    def test_classify_shapes_and_stage_token_counts(self, rng):
        model = toy_model()
        logits = model.forward_classify(toy_image(rng))
        assert logits.shape == (3,)
        feats = model.forward_features(toy_image(rng))
        assert [(g.height, g.width, g.dim) for g in feats] == [
            (16, 16, 32), (8, 8, 64), (4, 4, 96), (2, 2, 128),
        ]

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_cpe_kernel_keeps_grids_and_counted_macs(self, rng, kernel):
        spec = variant("tiny-narrow", num_classes=3, cpe_kernel=kernel)
        model = build_variant(spec, 0)
        img = toy_image(rng, batch=2)
        with T.no_grad():
            feats = model.forward_features(img)
            with T.MacCounter() as meter:
                model.forward_classify(img)
        assert [(g.height, g.width) for g in feats] == [(16, 16), (8, 8), (4, 4), (2, 2)]
        report = complexity.count_model(spec, 64)
        assert meter.total == 2 * (report.total_macs + report.total_attn_macs)

    def test_non_square_image_grids(self, rng):
        img = Tensor(rng.standard_normal((3, 64, 96)).astype(np.float32))
        with T.no_grad():
            feats = toy_model().forward_features(img)
        assert [(g.height, g.width) for g in feats] == [(16, 24), (8, 12), (4, 6), (2, 3)]

    def test_tiny_at_224_token_counts(self, rng):
        # one full-size pass; stage token counts 3136/784/196/49
        model = build_variant(variant("tiny"), seed=0)
        with T.no_grad():
            feats = model.forward_features(toy_image(rng, extent=224))
            logits = model.forward_classify(toy_image(rng, extent=224))
        assert [g.height * g.width for g in feats] == [3136, 784, 196, 49]
        assert logits.shape == (1000,)
        assert [(g.height, g.width, g.dim) for g in feats] == [
            (56, 56, 64), (28, 28, 128), (14, 14, 192), (7, 7, 320),
        ]

    def test_recorded_forward_holds_only_what_backward_reads(self):
        # bytes still allocated once the loss is returned: the arrays the VJPs
        # read and the graph; 12.73 MiB while the graph kept every op output
        model = toy_model()
        images = toy_image(np.random.default_rng(0), batch=4)
        tracemalloc.start()
        try:
            loss = T.cross_entropy(model.forward_classify(images), [0, 1, 2, 0])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss.node is not None
        assert held / 2**20 == pytest.approx(8.50, rel=0.02)

    def test_deterministic_under_seed(self, rng):
        img = toy_image(rng)
        a = toy_model(seed=11).forward_classify(img)
        b = toy_model(seed=11).forward_classify(img)
        assert np.array_equal(a.data, b.data)

    def test_features_match_classify_path(self, rng):
        model = toy_model()
        img = toy_image(rng)
        with T.no_grad():
            feats = model.forward_features(img)
            feats2 = model.forward_features(img)
        for g1, g2 in zip(feats, feats2):
            assert np.array_equal(g1.tokens.data, g2.tokens.data)

    def test_batched_matches_single(self, rng):
        model = toy_model()
        imgs = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        with T.no_grad():
            batched = model.forward_classify(Tensor(imgs)).data
            singles = [model.forward_classify(Tensor(imgs[i])).data for i in range(2)]
        assert_allclose(batched, np.stack(singles), atol=2e-5)

    def test_indivisible_input_rejected(self, rng):
        model = toy_model()
        with pytest.raises(InputError):
            model.forward_classify(Tensor(np.zeros((3, 96, 100), dtype=np.float32)))
        with pytest.raises(InputError):
            model.forward_classify(Tensor(np.zeros((3, 32, 32), dtype=np.float32)))

    def test_meta_pooling_toggle_changes_logits(self, rng):
        img = toy_image(rng)
        with_pool = toy_model(seed=5).forward_classify(img).data
        without = toy_model(seed=5, use_meta_pooling=False).forward_classify(img).data
        assert np.abs(with_pool - without).max() > 1e-6

    def test_param_count_resolution_invariant(self, rng):
        model = toy_model()
        n = model.param_count()
        with T.no_grad():
            model.forward_classify(toy_image(rng, extent=64))
            model.forward_classify(toy_image(rng, extent=96))
        assert model.param_count() == n

    def test_meta_path_is_live(self, rng):
        model = toy_model()
        logits = model.forward_classify(toy_image(rng, batch=1))
        loss = T.cross_entropy(logits, np.array([1]))
        T.backward(loss)
        grad = model.parameters()["meta.init"].grad
        assert grad is not None and np.abs(grad).max() > 0

    def test_toggles_change_params_by_analytic_size(self):
        base_spec = variant("tiny-narrow", num_classes=3)
        for overrides in ({"use_ca_stage": False}, {"use_meta_stem": False}):
            spec = variant("tiny-narrow", num_classes=3, **overrides)
            got = build_variant(spec, 0).param_count()
            want = complexity.count_model(spec, 64).total_params
            assert got == want
            base = complexity.count_model(base_spec, 64).total_params
            assert got != base

    def test_structural_toggles_still_run(self, rng):
        img = toy_image(rng)
        for overrides in (
            {"use_ca_stage": False}, {"use_meta_stem": False},
            {"use_meta_pooling": False}, {"dca_sequential": True},
        ):
            logits = toy_model(**overrides).forward_classify(img)
            assert np.isfinite(logits.data).all()

    def test_train_step_graph_is_lean(self, rng):
        # one node per linear layer and five per attention branch: 347 nodes at batch 32
        logits = toy_model().forward_classify(toy_image(rng, batch=32))
        loss = T.cross_entropy(logits, np.zeros(32, dtype=np.int64))
        assert len(T.Graph.trace(loss)) <= 350


class TestAttentionMaps:
    def test_map_count_and_normalization(self, rng):
        model = build_variant(variant("tiny-narrow", num_classes=3, meta_len=16), 0)
        maps = export_attention_maps(model, toy_image(rng))
        assert maps.shape == (16, 8, 8)
        assert_allclose(maps.reshape(16, -1).sum(axis=1), np.ones(16), atol=1e-5)

    def test_constant_image_near_uniform(self):
        model = toy_model()
        img = Tensor(np.full((3, 64, 64), 0.5, dtype=np.float32))
        maps = export_attention_maps(model, img)
        ratio = maps.max() / maps.min()
        assert ratio < 1.5

    def test_return_attention_contract(self, rng):
        model = toy_model()
        img = toy_image(rng)
        with T.no_grad():
            logits = model.forward_classify(img)
            both = model.forward_classify(img, return_attention=True)
        assert isinstance(logits, Tensor)
        assert isinstance(both, tuple) and len(both) == 2
        assert np.array_equal(both[0].data, logits.data)
        assert both[1].shape == (16, 8, 8)
        no_s2 = toy_model(blocks=(1, 1, 0, 2, 1))
        with T.no_grad():
            no_s2.forward_classify(img)  # fine without maps
            with pytest.raises(ContractError):
                no_s2.forward_classify(img, return_attention=True)

    def test_batched_maps_match_single_images(self, rng):
        model = toy_model()
        batch = toy_image(rng, batch=2)
        with T.no_grad():
            _, maps = model.forward_classify(batch, return_attention=True)
        assert maps.shape == (2, 16, 8, 8)
        for i in range(2):
            single = export_attention_maps(model, Tensor(batch.data[i]))
            assert_allclose(maps[i], single, atol=1e-6)

    def test_one_model_serves_concurrent_threads(self, rng):
        model = toy_model()
        images = [toy_image(rng), toy_image(rng)]

        def run(img):
            with T.no_grad():
                logits, maps = model.forward_classify(img, return_attention=True)
            return logits.data, maps

        expected = [run(img) for img in images]
        workers = 4  # two threads per image, all running at once
        start = threading.Barrier(workers)
        results = [[] for _ in range(workers)]

        def worker(i):
            start.wait(timeout=60)
            for _ in range(3):
                results[i].append(run(images[i % 2]))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, got in enumerate(results):
            assert len(got) == 3
            for logits, maps in got:
                assert np.array_equal(logits, expected[i % 2][0])
                assert np.array_equal(maps, expected[i % 2][1])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = toy_model(seed=3)
        img = toy_image(rng)
        with T.no_grad():
            before = model.forward_classify(img).data.copy()
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, loaded.parameters()[name].data), name
        with T.no_grad():
            after = loaded.forward_classify(img).data
        assert np.array_equal(before, after)

    def test_saved_bytes_pinned(self, tmp_path):
        path = tmp_path / "m.lmvt"
        save_checkpoint(build_variant(variant("tiny-narrow"), 0), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ffbbfeef94d145bd5ae76a15233238279ec64009af1722d04eb892c7dd0463e2"
        )

    def test_load_draws_nothing_and_keeps_the_read_arrays(self, tmp_path, rng, monkeypatch):
        model = toy_model(seed=3)
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(model, path)
        tables = []

        def recording_load(p):
            tables.append(load_tensors(p))
            return tables[-1]

        def no_draw(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random weights")

        monkeypatch.setattr(checkpoint, "load_tensors", recording_load)
        monkeypatch.setattr(blocks, "trunc_normal", no_draw)
        loaded = load_checkpoint(path)
        assert list(loaded.parameters()) == list(model.parameters())
        for name, p in loaded.parameters().items():
            assert p.data is tables[0][name], name
            assert np.array_equal(p.data, model.parameters()[name].data), name
        img = toy_image(rng)
        with T.no_grad():
            assert np.array_equal(loaded.forward_classify(img).data,
                                  model.forward_classify(img).data)

    @pytest.mark.parametrize("key,entries,first", FORGERIES)
    def test_forged_config_rejected_before_allocating(self, tmp_path, key, entries, first):
        path = tmp_path / "m.lmvt"
        save_checkpoint(toy_model(), str(path))
        forge_config(str(path), key, entries)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(repr(first))):
                load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * path.stat().st_size

    @pytest.mark.parametrize("key,entry,value", BAD_CONFIG_VALUES)
    def test_non_integer_config_value_rejected(self, tmp_path, key, entry, value):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        set_config(path, key, entry, value)
        stored = float(np.float32(value))
        with pytest.raises(FormatError, match=re.escape(f"{key!r} holds {stored!r}")):
            load_checkpoint(path)

    def test_even_cpe_kernel_in_config_rejected(self, tmp_path):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        set_config(path, "config/scalars", 4, 4)  # cpe_kernel
        with pytest.raises(FormatError, match="cpe_kernel must be odd, got 4"):
            load_checkpoint(path)

    def test_config_record_read_as_flat_values(self, tmp_path):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        table = load_tensors(path)
        table["config/blocks"] = table["config/blocks"].reshape(1, -1)
        save_tensors(path, table)
        assert load_checkpoint(path).spec == toy_model().spec

    def test_unexpected_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        table = load_tensors(path)
        table["stray.w"] = np.zeros(2, dtype=np.float32)
        save_tensors(path, table)
        with pytest.raises(FormatError, match="unexpected tensors \\['stray.w'\\]"):
            load_checkpoint(path)

    def test_magic_header(self, tmp_path):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        with open(path, "rb") as f:
            assert f.read(4) == b"LMVT"

    def test_corrupted_magic_rejected(self, tmp_path):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        data = bytearray(open(path, "rb").read())
        data[:4] = b"XXXX"
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_truncated_file_reports_offset(self, tmp_path):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert "offset" in str(err.value)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = str(tmp_path / "t.lmvt")
        save_tensors(path, {"x": np.zeros((2, 2), dtype=np.float32)})
        data = bytearray(open(path, "rb").read())
        # dtype byte sits after magic(4) + version/count(8) + name_len(2) + name(1)
        data[4 + 8 + 2 + 1] = 9
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError) as err:
            load_tensors(path)
        assert "dtype" in str(err.value)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "t.lmvt")
        save_tensors(path, {"x": np.zeros(3, dtype=np.float32)})
        data = bytearray(open(path, "rb").read())
        data[4:8] = struct.pack("<I", 42)
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError):
            load_tensors(path)

    def test_non_utf8_name_rejected_with_offset(self, tmp_path):
        path = str(tmp_path / "t.lmvt")
        save_tensors(path, {"ab": np.zeros(2, dtype=np.float32)})
        data = bytearray(open(path, "rb").read())
        # second name byte sits after magic(4) + version/count(8) + name_len(2) + "a"
        data[4 + 8 + 2 + 1] = 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError) as err:
            load_tensors(path)
        assert err.value.offset == 4 + 8 + 2 + 1

    @pytest.mark.parametrize("dims", [(0xFFFFFFFF, 0xFFFFFFFF), (4096, 4096, 4096)])
    def test_payload_larger_than_file_rejected(self, tmp_path, dims):
        path = str(tmp_path / "t.lmvt")
        header = b"LMVT" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x"
        header += struct.pack("<BB", 0, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
        open(path, "wb").write(header + bytes(64))
        with pytest.raises(FormatError) as err:
            load_tensors(path)
        assert err.value.offset == len(header)

    @pytest.mark.parametrize("dims,payload", [((1,) * 65, 4), ((0, 0xFFFFFFFF, 0xFFFFFFFF), 0)])
    def test_unrepresentable_shape_rejected(self, tmp_path, dims, payload):
        path = str(tmp_path / "t.lmvt")
        header = b"LMVT" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x"
        record = struct.pack("<BB", 0, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
        open(path, "wb").write(header + record + bytes(payload))
        with pytest.raises(FormatError) as err:
            load_tensors(path)
        assert err.value.offset == len(header)

    @pytest.mark.parametrize("key,value", [
        ("config/scalars", [16, 64, 32]),
        ("config/toggles", [1.0]),
        ("config/scalars", [16, 64, 0, 4, 3, 3]),  # head_dim 0
    ])
    def test_bad_config_rejected(self, tmp_path, key, value):
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(toy_model(), path)
        table = load_tensors(path)
        table[key] = np.array(value, dtype=np.float32)
        save_tensors(path, table)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected_with_offset(self, tmp_path, bad):
        path = str(tmp_path / "t.lmvt")
        save_tensors(path, {"a": np.zeros(2, np.float32), "b": np.array([1.0, bad], np.float32)})
        with pytest.raises(FormatError, match="NaN or infinite") as err:
            load_tensors(path)
        # record "b" starts after the header (12 bytes) and record "a" (2 + 1 + 2 + 4 + 8)
        assert err.value.offset == 12 + 17

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])  # 1e39 overflows float32
    def test_non_finite_weights_refused_before_writing(self, tmp_path, bad):
        model = build_variant(variant("tiny-narrow", num_classes=3), 0, dtype=np.float64)
        model.parameters()["s1.b0.attn.wq"].data[2, 3] = bad
        fresh, kept = tmp_path / "new.lmvt", tmp_path / "old.lmvt"
        save_checkpoint(toy_model(), str(kept))
        before = kept.read_bytes()
        for path in (fresh, kept):
            with pytest.raises(FormatError, match="'s1.b0.attn.wq' holds NaN or infinite"):
                save_checkpoint(model, str(path))
        assert not fresh.exists() and kept.read_bytes() == before

    def test_toggles_survive_round_trip(self, tmp_path, rng):
        model = toy_model(seed=1, use_meta_pooling=False, dca_sequential=True)
        path = str(tmp_path / "m.lmvt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec.use_meta_pooling is False
        assert loaded.spec.dca_sequential is True
        assert loaded.spec.name == "tiny-narrow"
