import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import naive_conv2d, zero_block_params
from metavit import tensor as T
from metavit.attention import entropy_scale
from metavit.blocks import (
    BLOCKS,
    CABlock,
    Cpe,
    DCABlock,
    Downsample,
    ImageStem,
    MetaStem,
    ParamStore,
    SABlock,
    TokenGrid,
    trunc_normal,
)
from metavit.errors import ConfigError, ContractError, InputError
from metavit.tensor import Tensor

DIM = 8
HEAD = 4
EXP = 2


def make_grid(rng, side=4, dim=DIM, dtype=np.float32):
    tokens = rng.standard_normal((side * side, dim)).astype(dtype)
    return TokenGrid(Tensor(tokens), side, side), tokens


def make_meta(rng, m=4, dim=DIM, dtype=np.float32):
    data = rng.standard_normal((m, dim)).astype(dtype)
    return Tensor(data), data


def trunc_normal_full_rescan(rng, shape, std):
    """The original sampler: after each redraw, re-check every entry."""
    out = rng.normal(0.0, std, size=shape)
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


class TestTruncNormal:
    @pytest.mark.parametrize("shape", [(), (7,), (0, 5), (64, 3, 3, 3), (320, 1280)])
    @pytest.mark.parametrize("std", [0.02, 1.0, 3e-4])
    def test_bit_identical_to_full_rescan(self, shape, std):
        for seed in (0, 1, 7):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = trunc_normal(rng, shape, std)
            want = trunc_normal_full_rescan(oracle_rng, shape, std)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert not (np.abs(got) > 2 * std).any()


class TestStems:
    def test_image_stem_token_counts(self, rng):
        stem = ImageStem(ParamStore(0), "stem", 64)
        grid = stem(Tensor(rng.standard_normal((3, 224, 224)).astype(np.float32)))
        assert (grid.height, grid.width, grid.dim) == (56, 56, 64)
        assert grid.tokens.shape == (3136, 64)

    def test_image_stem_64px(self, rng):
        stem = ImageStem(ParamStore(0), "stem", 32)
        grid = stem(Tensor(rng.standard_normal((3, 64, 64)).astype(np.float32)))
        assert grid.tokens.shape == (256, 32)

    def test_image_stem_zero_everything(self):
        store = ParamStore(0)
        stem = ImageStem(store, "stem", 32)
        zero_block_params(store)
        grid = stem(Tensor(np.zeros((3, 64, 64), dtype=np.float32)))
        assert not grid.tokens.data.any()

    def test_image_stem_indivisible_rejected(self, rng):
        stem = ImageStem(ParamStore(0), "stem", 32)
        with pytest.raises(InputError):
            stem(Tensor(np.zeros((3, 66, 64), dtype=np.float32)))

    def test_meta_stem_shapes(self, rng):
        stem = MetaStem(ParamStore(0), "ms", 64, 64)
        out = stem(Tensor(rng.standard_normal((16, 64)).astype(np.float32)))
        assert out.shape == (16, 64)

    def test_meta_stem_identity_layers_compose_gelu(self, rng):
        store = ParamStore(0)
        stem = MetaStem(store, "ms", DIM, DIM)
        stem.w1.data = np.eye(DIM, dtype=np.float32)
        stem.w2.data = np.eye(DIM, dtype=np.float32)
        m = rng.standard_normal((5, DIM)).astype(np.float32)
        out = stem(Tensor(m))
        assert_allclose(out.data, T.gelu(Tensor(m)).data, atol=1e-6)

    def test_meta_stem_zero_weights_broadcast_bias(self, rng):
        store = ParamStore(0)
        stem = MetaStem(store, "ms", DIM, DIM)
        zero_block_params(store)
        bias = rng.standard_normal(DIM).astype(np.float32)
        stem.b2.data = bias.copy()
        out = stem(Tensor(rng.standard_normal((3, DIM)).astype(np.float32)))
        assert_allclose(out.data, np.tile(bias, (3, 1)))


class TestDownsample:
    def test_halves_and_widens(self, rng):
        ds = Downsample(ParamStore(0), "ds", 64, 128)
        grid = TokenGrid(Tensor(rng.standard_normal((56 * 56, 64)).astype(np.float32)), 56, 56)
        out = ds(grid)
        assert (out.height, out.width, out.dim) == (28, 28, 128)

    def test_8_to_4(self, rng):
        ds = Downsample(ParamStore(0), "ds", DIM, DIM)
        grid, _ = make_grid(rng, side=8)
        out = ds(grid)
        assert (out.height, out.width) == (4, 4)

    def test_constant_input_averaging_kernel(self):
        ds = Downsample(ParamStore(0), "ds", 1, 1)
        ds.w.data = np.full((1, 1, 3, 3), 1.0 / 9.0, dtype=np.float32)
        ds.b.data = np.zeros(1, dtype=np.float32)
        grid = TokenGrid(Tensor(np.full((8 * 8, 1), 5.0, dtype=np.float32)), 8, 8)
        out = ds(grid)
        # interior positions see the full 3x3 window; verify against the oracle
        img = np.full((1, 8, 8), 5.0)
        want = naive_conv2d(img, ds.w.data, ds.b.data, stride=2, padding=1)
        assert_allclose(out.tokens.data.reshape(4, 4), want[0], atol=1e-6)

    def test_degenerate_grid_rejected(self, rng):
        ds = Downsample(ParamStore(0), "ds", DIM, DIM)
        with pytest.raises(InputError):
            ds(TokenGrid(Tensor(np.zeros((1, DIM), dtype=np.float32)), 1, 1))


class TestCpe:
    def test_zero_weights_identity(self, rng):
        store = ParamStore(0)
        cpe = Cpe(store, "cpe", DIM)
        zero_block_params(store)
        grid, tokens = make_grid(rng)
        out = cpe(grid)
        assert_allclose(out.tokens.data, tokens)

    def test_positional_sensitivity(self, rng):
        cpe = Cpe(ParamStore(0), "cpe", DIM)
        grid, tokens = make_grid(rng)
        perm = rng.permutation(16)
        base = cpe(grid).tokens.data
        permuted = cpe(TokenGrid(Tensor(tokens[perm]), 4, 4)).tokens.data
        # permuting tokens does not commute with the spatial conv
        assert np.abs(base[perm] - permuted).max() > 1e-3

    def test_one_wide_grid_rejected(self, rng):
        cpe = Cpe(ParamStore(0), "cpe", DIM)
        with pytest.raises(ContractError):
            cpe(TokenGrid(Tensor(np.zeros((4, DIM), dtype=np.float32)), 4, 1))

    def test_token_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            TokenGrid(Tensor(np.zeros((15, DIM), dtype=np.float32)), 4, 4)


def _build(kind, seed=0, dtype=np.float32, **kw):
    store = ParamStore(seed, dtype=dtype)
    if kind == "ca":
        block = CABlock(store, "blk", DIM, HEAD, EXP)
    elif kind == "dca":
        block = DCABlock(store, "blk", DIM, HEAD, EXP, **kw)
    else:
        block = SABlock(store, "blk", DIM, HEAD, EXP, **kw)
    return block, store


class TestSharedConstructor:
    @pytest.mark.parametrize("kind,ignored", [
        ("ca", {"sequential": True}),
        ("sa", {"sequential": True}),
    ])
    def test_ignored_arguments_change_nothing(self, rng, kind, ignored):
        default_store, given_store = ParamStore(5), ParamStore(5)
        default = BLOCKS[kind](default_store, "blk", DIM, HEAD, EXP)
        given = BLOCKS[kind](given_store, "blk", DIM, HEAD, EXP, **ignored)
        assert list(given_store.params) == list(default_store.params)
        for name, p in default_store.params.items():
            assert np.array_equal(given_store.params[name].data, p.data), name
        grid, _ = make_grid(rng)
        meta, _ = make_meta(rng)
        for a, b in zip(default(grid, meta), given(grid, meta)):
            a, b = (a.tokens, b.tokens) if isinstance(a, TokenGrid) else (a, b)
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("kind,counts", [
        ("ca", [(3, 16)]),
        ("dca", [(16, 3), (3, 16)]),
        ("sa", [(16, 16), (3, 3)]),
    ], ids=["ca", "dca", "sa"])
    def test_one_scale_rule_for_every_kind(self, rng, monkeypatch, kind, counts):
        calls = []
        attend = T.attention

        def spy(q, k, v, scale, **kw):
            calls.append((q.shape[-2], k.shape[-2], scale))
            return attend(q, k, v, scale, **kw)

        monkeypatch.setattr(T, "attention", spy)
        grid, _ = make_grid(rng)
        meta, _ = make_meta(rng, m=3)
        BLOCKS[kind](ParamStore(0), "blk", DIM, HEAD, EXP)(grid, meta)
        assert [(n1, n2) for n1, n2, _ in calls] == counts
        for n1, n2, scale in calls:
            want = 1 / math.sqrt(HEAD) if kind == "sa" else 1 / entropy_scale(n1, n2, HEAD)
            assert scale == want, (n1, n2)


class TestCABlock:
    def test_image_tokens_bit_identical(self, rng):
        block, _ = _build("ca")
        grid, tokens = make_grid(rng)
        out_grid, out_meta = block(grid, make_meta(rng)[0])
        assert out_grid.tokens.data is grid.tokens.data
        assert np.array_equal(out_grid.tokens.data, tokens)
        assert out_meta.shape == (4, DIM)

    def test_meta_invariant_to_image_permutation(self, rng):
        block, _ = _build("ca")
        for _ in range(20):
            grid, tokens = make_grid(rng)
            meta, _ = make_meta(rng)
            perm = rng.permutation(16)
            _, meta_a = block(grid, meta)
            _, meta_b = block(TokenGrid(Tensor(tokens[perm]), 4, 4), meta)
            assert np.abs(meta_a.data - meta_b.data).max() < 1e-6

    def test_zero_weights_identity(self, rng):
        block, store = _build("ca")
        zero_block_params(store)
        grid, tokens = make_grid(rng)
        meta, meta_data = make_meta(rng)
        out_grid, out_meta = block(grid, meta)
        assert np.array_equal(out_grid.tokens.data, tokens)
        assert_allclose(out_meta.data, meta_data, atol=0)

    def test_width_mismatch_rejected(self, rng):
        block, _ = _build("ca")
        grid, _ = make_grid(rng)
        with pytest.raises(ConfigError):
            block(grid, Tensor(np.zeros((4, DIM * 2), dtype=np.float32)))


class TestDCABlock:
    def test_shapes_preserved(self, rng):
        block, _ = _build("dca")
        grid, _ = make_grid(rng, side=8)
        meta, _ = make_meta(rng)
        out_grid, out_meta = block(grid, meta)
        assert out_grid.tokens.shape == (64, DIM)
        assert (out_grid.height, out_grid.width) == (8, 8)
        assert out_meta.shape == (4, DIM)

    def test_zero_weights_identity(self, rng):
        for sequential in (False, True):
            block, store = _build("dca", sequential=sequential)
            zero_block_params(store)
            grid, tokens = make_grid(rng)
            meta, meta_data = make_meta(rng)
            out_grid, out_meta = block(grid, meta)
            assert np.array_equal(out_grid.tokens.data, tokens)
            assert np.array_equal(out_meta.data, meta_data)

    def test_parallel_branches_read_pre_block_values(self, rng):
        # in parallel mode the meta update must not depend on branch order,
        # so it differs from the sequential variant on the same params
        par, store_p = _build("dca", seed=3, sequential=False)
        seq, store_s = _build("dca", seed=3, sequential=True)
        grid, tokens = make_grid(rng)
        meta, _ = make_meta(rng)
        _, meta_par = par(grid, meta)
        _, meta_seq = seq(TokenGrid(Tensor(tokens), 4, 4), meta)
        assert np.abs(meta_par.data - meta_seq.data).max() > 1e-6

    def test_permutation_equivariance_without_cpe(self, rng):
        block, _ = _build("dca")
        block.cpe = None
        for _ in range(20):
            grid, tokens = make_grid(rng)
            meta, _ = make_meta(rng)
            perm = rng.permutation(16)
            out_a, meta_a = block(grid, meta)
            out_b, meta_b = block(TokenGrid(Tensor(tokens[perm]), 4, 4), meta)
            assert np.abs(out_a.tokens.data[perm] - out_b.tokens.data).max() < 1e-6
            assert np.abs(meta_a.data - meta_b.data).max() < 1e-6

    def test_batched_matches_per_sample(self, rng):
        block, _ = _build("dca")
        tokens = rng.standard_normal((2, 16, DIM)).astype(np.float32)
        meta = rng.standard_normal((2, 4, DIM)).astype(np.float32)
        out_b, meta_b = block(TokenGrid(Tensor(tokens), 4, 4), Tensor(meta))
        for i in range(2):
            grid_i, meta_i = block(TokenGrid(Tensor(tokens[i]), 4, 4), Tensor(meta[i]))
            assert_allclose(out_b.tokens.data[i], grid_i.tokens.data, atol=1e-5)
            assert_allclose(meta_b.data[i], meta_i.data, atol=1e-5)


class TestSABlock:
    def test_streams_do_not_interact(self, rng):
        block, _ = _build("sa")
        grid, tokens = make_grid(rng)
        meta_a, _ = make_meta(rng)
        meta_b, _ = make_meta(rng)
        out_a, _ = block(grid, meta_a)
        out_b, _ = block(TokenGrid(Tensor(tokens), 4, 4), meta_b)
        assert np.array_equal(out_a.tokens.data, out_b.tokens.data)
        _, meta_out_a = block(grid, meta_a)
        _, meta_out_b = block(TokenGrid(Tensor(rng.standard_normal((16, DIM)).astype(np.float32)), 4, 4), meta_a)
        assert np.array_equal(meta_out_a.data, meta_out_b.data)

    def test_zero_weights_identity(self, rng):
        block, store = _build("sa")
        zero_block_params(store)
        grid, tokens = make_grid(rng)
        meta, meta_data = make_meta(rng)
        out_grid, out_meta = block(grid, meta)
        assert np.array_equal(out_grid.tokens.data, tokens)
        assert np.array_equal(out_meta.data, meta_data)

    def test_image_stream_matches_standalone_reassembly(self, rng):
        """Rebuild the image path from the same parameters, independently."""
        from metavit.attention import MhaParams, multi_head_attention

        block, store = _build("sa")
        grid, tokens = make_grid(rng)
        meta, _ = make_meta(rng)
        out_grid, _ = block(grid, meta)

        def ln(x, g, b):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return g * (x - mu) / np.sqrt(var + 1e-5) + b

        p = store.params
        x = tokens.reshape(4, 4, DIM)
        conv = np.zeros_like(x)
        wdw = p["blk.cpe.w"].data[:, 0]
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        for i in range(4):
            for j in range(4):
                for ki in range(3):
                    for kj in range(3):
                        conv[i, j] += wdw[:, ki, kj] * xp[i + ki, j + kj]
        x = (x + conv + p["blk.cpe.b"].data).reshape(16, DIM)
        xn = ln(x, p["blk.ln_img.g"].data, p["blk.ln_img.b"].data)
        mha = MhaParams(
            p["blk.attn.wq"], p["blk.attn.bq"], p["blk.attn.wk"], p["blk.attn.bk"],
            p["blk.attn.wv"], p["blk.attn.bv"], p["blk.attn.wo_img"], p["blk.attn.bo_img"],
        )
        x2 = x + multi_head_attention(Tensor(xn), Tensor(xn), mha, DIM // HEAD).data
        x2n = ln(x2, p["blk.ln_ffn_img.g"].data, p["blk.ln_ffn_img.b"].data)
        hidden = T.gelu(Tensor(x2n @ p["blk.ffn.w1"].data + p["blk.ffn.b1"].data)).data
        x3 = x2 + hidden @ p["blk.ffn.w2"].data + p["blk.ffn.b2"].data
        assert_allclose(out_grid.tokens.data, x3, atol=1e-5)
