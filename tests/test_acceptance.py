"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one `criterion N PASS/FAIL` line directly to the
terminal (bypassing capture) so a `pytest tests/test_acceptance.py -v`
run shows the full scoreboard. Long-running criteria (wall-clock
benchmark ordering, toy training) are marked slow but run by default.
"""

import math
import time

import numpy as np
import pytest

from metavit import tensor as T
from metavit.bench import bench_block_pair
from metavit.blocks import CABlock, DCABlock, ParamStore, SABlock, TokenGrid
from metavit.checkpoint import load_checkpoint, save_checkpoint
from metavit.complexity import count_block, count_model
from metavit.errors import FormatError
from metavit.gradcheck import TOLERANCE as GRAD_TOL
from metavit.gradcheck import run_suite
from metavit.model import build_variant, export_attention_maps, variant
from metavit.tensor import Tensor
from metavit.trainer import TrainConfig, evaluate, make_synth, train_toy


@pytest.fixture
def announce(capsys):
    def _announce(number: int, passed: bool, detail: str):
        with capsys.disabled():
            verdict = "PASS" if passed else "FAIL"
            print(f"criterion {number} {verdict}: {detail}")

    return _announce


def test_criterion_1_exact_formula_reproduction(announce):
    t0 = time.perf_counter()
    dca = {
        "tiny": count_block("dca", 3136, 16, 64, 4),
        "small": count_block("dca", 3136, 16, 96, 4),
        "base": count_block("dca", 3136, 16, 96, 4),
    }
    sa = {
        "tiny": count_block("sa", 3136, 16, 64, 4),
        "small": count_block("sa", 3136, 16, 96, 4),
    }
    elapsed = time.perf_counter() - t0
    ok = (
        dca["tiny"] == 161_349_632
        and dca["small"] == 358_219_776
        and dca["base"] == 358_219_776
        and sa["tiny"] == 1_412_956_160
        and sa["small"] == 2_235_039_744
        and elapsed < 1e-3
    )
    announce(1, ok, f"dca {dca['tiny']}/{dca['small']} sa {sa['tiny']}/{sa['small']} "
                    f"in {elapsed * 1e6:.0f} us")
    assert dca["tiny"] == 161_349_632
    assert dca["small"] == dca["base"] == 358_219_776
    assert sa["tiny"] == 1_412_956_160
    assert sa["small"] == 2_235_039_744
    assert elapsed < 1e-3


def test_criterion_2_whole_model_estimates(announce):
    targets = {"tiny": (1.78e9, 8.64e6), "small": (3.74e9, 16.40e6), "base": (11.06e9, 53.10e6)}
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, (macs_t, params_t) in targets.items():
        rep = count_model(variant(name), 224)
        macs_err = (rep.total_macs - macs_t) / macs_t
        params_err = (rep.total_params - params_t) / params_t
        ok &= abs(macs_err) < 0.15 and abs(params_err) < 0.15
        details.append(f"{name} {rep.total_macs/1e9:.2f}G/{rep.total_params/1e6:.2f}M "
                       f"({macs_err:+.1%}/{params_err:+.1%})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    announce(2, ok, "; ".join(details) + f"; {elapsed*1e3:.0f} ms")
    assert ok


def test_criterion_3_meta_length_ablation(announce):
    published = {64: 4.39e9, 32: 3.95e9, 16: 3.74e9, 8: 3.63e9}
    totals = {}
    ok = True
    for m, target in published.items():
        totals[m] = count_model(variant("small", meta_len=m), 224).total_macs
        ok &= abs(totals[m] - target) / target < 0.15
    decreasing = totals[64] > totals[32] > totals[16] > totals[8]
    delta = totals[64] - totals[16]
    delta_ok = abs(delta - 0.65e9) / 0.65e9 < 0.15
    ok &= decreasing and delta_ok
    announce(3, ok, f"macs {', '.join(f'{totals[m]/1e9:.2f}G' for m in (64, 32, 16, 8))}; "
                    f"delta {delta/1e9:.3f}G vs 0.65G")
    assert ok


def test_criterion_4_gradient_suite(announce):
    t0 = time.perf_counter()
    cases = run_suite(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(c.max_rel_err for c in cases)
    block_names = {c.name for c in cases}
    complete = {"block-ca", "block-dca", "block-dca-sequential", "block-sa",
                "model-tiny-narrow"} <= block_names
    ok = worst < GRAD_TOL and elapsed < 120 and complete
    announce(4, ok, f"max rel err {worst:.2e} over {len(cases)} cases in {elapsed:.1f}s")
    assert complete
    assert worst < GRAD_TOL, [(c.name, c.max_rel_err) for c in cases if not c.passed]
    assert elapsed < 120


def _random_block_shapes(rng):
    side = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    dim_choices = (8, 16)
    dim = int(dim_choices[rng.integers(0, len(dim_choices))])
    return side, m, dim


def test_criterion_5_structural_invariants(announce):
    rng = np.random.default_rng(42)
    cases = 100
    head, exp = 4, 2

    for i in range(cases):  # cross-attention leaves image tokens bit-identical
        side, m, dim = _random_block_shapes(rng)
        block = CABlock(ParamStore(i), "b", dim, head, exp)
        tokens = rng.standard_normal((side * side, dim)).astype(np.float32)
        out_grid, _ = block(TokenGrid(Tensor(tokens), side, side),
                            Tensor(rng.standard_normal((m, dim)).astype(np.float32)))
        assert np.array_equal(out_grid.tokens.data, tokens)

    for i in range(cases):  # standard-attention streams are independent
        side, m, dim = _random_block_shapes(rng)
        block = SABlock(ParamStore(i), "b", dim, head, exp)
        tokens = rng.standard_normal((side * side, dim)).astype(np.float32)
        meta_one = rng.standard_normal((m, dim)).astype(np.float32)
        meta_two = rng.standard_normal((m, dim)).astype(np.float32)
        grid_a, meta_a = block(TokenGrid(Tensor(tokens), side, side), Tensor(meta_one))
        grid_b, _ = block(TokenGrid(Tensor(tokens), side, side), Tensor(meta_two))
        assert np.array_equal(grid_a.tokens.data, grid_b.tokens.data)
        other = rng.standard_normal((side * side, dim)).astype(np.float32)
        _, meta_c = block(TokenGrid(Tensor(other), side, side), Tensor(meta_one))
        assert np.array_equal(meta_a.data, meta_c.data)

    for i in range(cases):  # dual block without CPE: equivariant image, invariant meta
        side, m, dim = _random_block_shapes(rng)
        n = side * side
        block = DCABlock(ParamStore(i), "b", dim, head, exp)
        block.cpe = None
        tokens = rng.standard_normal((n, dim)).astype(np.float32)
        meta = rng.standard_normal((m, dim)).astype(np.float32)
        perm = rng.permutation(n)
        out_a, meta_a = block(TokenGrid(Tensor(tokens), side, side), Tensor(meta))
        out_b, meta_b = block(TokenGrid(Tensor(tokens[perm]), side, side), Tensor(meta))
        assert np.abs(out_a.tokens.data[perm] - out_b.tokens.data).max() <= 1e-6
        assert np.abs(meta_a.data - meta_b.data).max() <= 1e-6

    for i in range(cases):  # zero-weight blocks are exact identities
        side, m, dim = _random_block_shapes(rng)
        store = ParamStore(i)
        kind = ("ca", "dca", "sa")[i % 3]
        if kind == "ca":
            block = CABlock(store, "b", dim, head, exp)
        elif kind == "dca":
            block = DCABlock(store, "b", dim, head, exp, sequential=bool(i % 2))
        else:
            block = SABlock(store, "b", dim, head, exp)
        for p in store.params.values():
            p.data = np.zeros_like(p.data)
        tokens = rng.standard_normal((side * side, dim)).astype(np.float32)
        meta = rng.standard_normal((m, dim)).astype(np.float32)
        out_grid, out_meta = block(TokenGrid(Tensor(tokens), side, side), Tensor(meta))
        assert np.array_equal(out_grid.tokens.data, tokens)
        assert np.array_equal(out_meta.data, meta)

    announce(5, True, f"{cases} random cases per invariant, 4 invariants")


@pytest.mark.slow
def test_criterion_6_benchmark_ordering(announce):
    medians = []
    ok = True
    for run in range(3):
        dca, sa = bench_block_pair(3136, 16, 64, 4, iters=30, warmup=10, seed=run)
        medians.append((dca.median_s, sa.median_s))
        ok &= dca.median_s < sa.median_s
    detail = "; ".join(f"dca {d*1e3:.1f}ms < sa {s*1e3:.1f}ms" for d, s in medians)
    announce(6, ok, detail)
    for d, s in medians:
        assert d < s


@pytest.mark.slow
def test_criterion_7_learning_check(announce):
    t0 = time.perf_counter()
    model = build_variant(variant("tiny-narrow", num_classes=3), seed=0)
    ds = make_synth(300, noise_sigma=0.1, seed=0)
    cfg = TrainConfig(steps=300, batch_size=32, lr=1e-2, seed=0)
    assert cfg.steps <= 500
    history = train_toy(model, ds, cfg)
    accuracy = evaluate(model, ds)
    elapsed = time.perf_counter() - t0
    initial_ok = abs(history[0].loss - math.log(3.0)) < 0.2
    losses = [r.loss for r in history]
    quarter = len(losses) // 4
    trend_ok = float(np.mean(losses[:quarter])) > float(np.mean(losses[-quarter:]))
    ok = accuracy >= 0.90 and initial_ok and trend_ok and elapsed < 600
    announce(7, ok, f"train accuracy {accuracy:.3f} after {cfg.steps} steps, "
                    f"initial loss {history[0].loss:.3f} (ln 3 = {math.log(3.0):.3f}), "
                    f"{elapsed:.0f}s")
    assert initial_ok
    assert trend_ok  # smoothed loss trend points down
    assert accuracy >= 0.90
    assert elapsed < 600


def test_criterion_8_checkpoint_round_trip(announce, tmp_path, rng):
    model = build_variant(variant("tiny-narrow", num_classes=3), seed=5)
    img = Tensor(rng.standard_normal((3, 64, 64)).astype(np.float32))
    with T.no_grad():
        before = model.forward_classify(img).data.copy()
    path = str(tmp_path / "model.lmvt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    with T.no_grad():
        after = loaded.forward_classify(img).data
    bit_identical = np.array_equal(before, after)

    corrupted = tmp_path / "corrupt.lmvt"
    data = bytearray(open(path, "rb").read())
    data[:4] = b"NOPE"
    corrupted.write_bytes(bytes(data))
    try:
        load_checkpoint(str(corrupted))
        rejected = False
    except FormatError:
        rejected = True
    ok = bit_identical and rejected
    announce(8, ok, f"bit-identical logits: {bit_identical}; corrupt file rejected: {rejected}")
    assert bit_identical and rejected


def test_criterion_9_attention_map_export(announce, rng):
    model = build_variant(variant("tiny-narrow", num_classes=3, meta_len=16), seed=0)
    img = Tensor(rng.standard_normal((3, 64, 64)).astype(np.float32))
    maps = export_attention_maps(model, img)
    count_ok = maps.shape[0] == 16
    sums = maps.reshape(16, -1).sum(axis=1)
    norm_ok = np.abs(sums - 1.0).max() < 1e-5

    const = Tensor(np.full((3, 64, 64), 0.25, dtype=np.float32))
    const_maps = export_attention_maps(model, const)
    ratio = float(const_maps.max() / const_maps.min())
    uniform_ok = ratio < 1.5
    ok = count_ok and norm_ok and uniform_ok
    announce(9, ok, f"{maps.shape[0]} maps, max row-sum err {np.abs(sums - 1.0).max():.1e}, "
                    f"constant-image max/min {ratio:.3f}")
    assert count_ok and norm_ok and uniform_ok
