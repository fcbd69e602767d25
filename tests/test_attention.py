import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import naive_attention, weighted_sum
from metavit.attention import MhaParams, entropy_scale, multi_head_attention
from metavit import tensor as T
from metavit.blocks import BLOCKS, ParamStore
from metavit.complexity import count_model
from metavit.errors import ConfigError, DimensionError
from metavit.model import HEAD_DIM, variant
from metavit.tensor import Graph, MacCounter, Tensor


class TestEntropyScale:
    def test_equal_counts_reduce_to_sqrt_width(self):
        # self-attention gets exactly sqrt(C), even from a one-token stream
        for n in (1, 2, 100, 3136):
            assert entropy_scale(n, n, 32) == math.sqrt(32)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (5, 5), (16, 4)])
    def test_width_below_one_rejected(self, n1, n2):
        with pytest.raises(ConfigError):
            entropy_scale(n1, n2, 0)

    def test_exact_log_ratio_two(self):
        assert_allclose(entropy_scale(16, 4, 64), 16.0)

    def test_sixtyfour_bit_evaluation(self):
        expected = (math.log(3136) / math.log(16)) * math.sqrt(32)
        got = entropy_scale(3136, 16, 32)
        assert_allclose(got, expected, rtol=1e-12)
        assert abs(got - 16.4255) < 1e-3

    def test_base_invariance(self):
        # only the ratio of logs enters, so any base gives the same factor
        base10 = (math.log10(48) / math.log10(12)) * math.sqrt(8)
        assert_allclose(entropy_scale(48, 12, 8), base10, rtol=1e-12)

    @pytest.mark.parametrize("n1,n2", [(1, 10), (10, 1), (0, 5), (5, 0)])
    def test_degenerate_counts_rejected(self, n1, n2):
        with pytest.raises(ConfigError):
            entropy_scale(n1, n2, 8)


class TestScaledDotProductAttention:
    """``tensor.attention`` multiplies the logits by the reciprocal of these scales."""

    def test_identical_keys_average_values(self, rng):
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(np.tile(rng.standard_normal(4), (5, 1)))
        v = Tensor(rng.standard_normal((5, 4)))
        out = T.attention(q, k, v, 1 / 2.0)
        assert_allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-6)

    def test_saturated_softmax_selects_one_value(self, rng):
        k = rng.standard_normal((4, 8)).astype(np.float32)
        q = (k[2] * 1e4 / np.dot(k[2], k[2]))[None, :].astype(np.float32)
        v = rng.standard_normal((4, 8)).astype(np.float32)
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / 1.0)
        assert np.abs(out.data[0] - v[2]).max() < 1e-4

    def test_against_naive_oracle(self, rng):
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((4, 8))
        v = rng.standard_normal((4, 8))
        scale = math.sqrt(8)
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / scale).data
        assert_allclose(out, naive_attention(q, k, v, scale), atol=1e-5)

    def test_attention_rows_returned(self, rng):
        q, k, v = (Tensor(rng.standard_normal((3, 4))) for _ in range(3))
        out, attn = T.attention(q, k, v, 1 / 2.0, return_attn=True)
        assert attn.shape == (1, 3, 3)  # (heads, N1, N2)
        assert_allclose(attn.sum(axis=-1), np.ones((1, 3)), atol=1e-6)

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            T.attention(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                Tensor(np.zeros((2, 4))), 1 / 1.0,
            )

    def test_output_rows_are_convex_combinations(self, rng):
        for _ in range(100):
            n1, n2, c = rng.integers(2, 7), rng.integers(2, 7), rng.integers(2, 6)
            q = rng.standard_normal((n1, c)) * 3
            k = rng.standard_normal((n2, c)) * 3
            v = rng.standard_normal((n2, c))
            out = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / 1.5).data
            lo = v.min(axis=0) - 1e-6
            hi = v.max(axis=0) + 1e-6
            assert (out >= lo).all() and (out <= hi).all()

    def test_joint_key_value_permutation_invariance(self, rng):
        for _ in range(100):
            n2 = int(rng.integers(3, 8))
            q = rng.standard_normal((4, 6))
            k = rng.standard_normal((n2, 6))
            v = rng.standard_normal((n2, 6))
            perm = rng.permutation(n2)
            base = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / 2.0).data
            shuffled = T.attention(
                Tensor(q), Tensor(k[perm]), Tensor(v[perm]), 1 / 2.0
            ).data
            assert np.abs(base - shuffled).max() < 1e-6

    def test_query_permutation_equivariance(self, rng):
        for _ in range(100):
            n1 = int(rng.integers(3, 8))
            q = rng.standard_normal((n1, 5))
            k = rng.standard_normal((4, 5))
            v = rng.standard_normal((4, 5))
            perm = rng.permutation(n1)
            base = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / 2.0).data
            permuted = T.attention(
                Tensor(q[perm]), Tensor(k), Tensor(v), 1 / 2.0
            ).data
            assert np.abs(base[perm] - permuted).max() < 1e-6


def _per_head_oracle(q, k, v, scale):
    """naive_attention over every leading (batch, head) index."""
    lead = q.shape[:-2]
    out = np.zeros(lead + (q.shape[-2], v.shape[-1]))
    for idx in np.ndindex(*lead):
        out[idx] = naive_attention(q[idx], k[idx], v[idx], scale)
    return out


def _budget(batch, n2, rows):
    """A tile budget that gives ``rows`` query rows per tile, so a few rows span several tiles."""
    return batch * n2 * rows


def _composed(q, k, v, scale):
    """The op sequence ``tensor.attention`` fuses, as separate graph nodes;
    the logits are scaled by a ``linear`` against scale * I."""
    axes = list(range(k.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    n2 = k.shape[-2]
    logits = T.linear(T.matmul(q, T.permute(k, axes)), Tensor(scale * np.eye(n2)),
                      Tensor(np.zeros(n2)))
    return T.matmul(T.softmax_rows(logits), v)


def _swap_heads(x: Tensor) -> Tensor:
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.permute(x, axes)


def _split_attend_merge(q, k, v, scale, heads, tile_elements):
    """Per-head copies in, one-head attention, merged copy out: what ``heads`` replaces."""

    def split(x):
        return _swap_heads(T.reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads)))

    out, probs = T.attention(split(q), split(k), split(v), scale, return_attn=True,
                             tile_elements=tile_elements)
    out = _swap_heads(out)
    return T.reshape(out, out.shape[:-2] + (out.shape[-2] * out.shape[-1],)), probs[..., 0, :, :]


class TestFusedAttentionOp:
    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("n1,n2", [(7, 5), (1, 5), (7, 1), (9, 9)])
    def test_matches_oracle_over_batch_and_heads(self, rng, dtype, atol, n1, n2):
        q = rng.standard_normal((2, 3, n1, 4)).astype(dtype)
        k = rng.standard_normal((2, 3, n2, 4)).astype(dtype)
        v = rng.standard_normal((2, 3, n2, 6)).astype(dtype)
        want = _per_head_oracle(q, k, v, 2.0)
        budget = _budget(6, n2, 2)  # 2 query rows per tile: N1 = 7 or 9 leaves a partial tile
        out, probs = T.attention(Tensor(q), Tensor(k), Tensor(v), 0.5, return_attn=True,
                                 tile_elements=budget)
        assert out.dtype == dtype and probs.shape == (2, 3, 1, n1, n2)  # one head
        assert_allclose(out.data, want, atol=atol)
        assert_allclose(probs.sum(axis=-1), np.ones((2, 3, 1, n1)), atol=atol)
        plain = T.attention(Tensor(q), Tensor(k), Tensor(v), 0.5, tile_elements=budget)  # scratch
        assert_allclose(plain.data, out.data, rtol=1e-6, atol=atol)

    def test_output_independent_of_kept_probabilities(self, rng):
        q, k, v = (Tensor(rng.standard_normal((2, n, 6)).astype(np.float32)) for n in (7, 5, 5))
        budget = _budget(2 * 2, 5, 3)  # tiles of 3, 3 and 1 query rows
        kept, _ = T.attention(q, k, v, 0.5, heads=2, return_attn=True, tile_elements=budget)
        plain = T.attention(q, k, v, 0.5, heads=2, tile_elements=budget)
        assert np.array_equal(plain.data, kept.data)

    def test_one_node_and_the_macs_of_two_products(self, rng):
        q, k, v = (Tensor(rng.standard_normal((2, n, 4)), requires_grad=True) for n in (5, 3, 3))
        with MacCounter() as meter:
            out = T.attention(q, k, v, 0.5)
        assert out.op == "attention" and out.node.parents == (q, k, v)
        assert len(Graph.trace(out)) == 4
        assert meter.total == 2 * 5 * 3 * (4 + 4)

    def test_gradients_match_composed_ops(self, rng):
        leaves = [rng.standard_normal((2, 2, n, 4)) for n in (7, 5, 5)]
        weight = rng.standard_normal((2, 2, 7, 4))
        fused = lambda q, k, v, scale: T.attention(q, k, v, scale, tile_elements=_budget(4, 5, 3))
        grads = []
        for fn in (_composed, fused):
            q, k, v = (Tensor(a, requires_grad=True) for a in leaves)
            T.backward(weighted_sum(fn(q, k, v, 0.7), weight))
            grads.append([t.grad for t in (q, k, v)])
        for fused, composed in zip(*grads[::-1]):
            assert_allclose(fused, composed, rtol=1e-10, atol=1e-12)

    def test_incoming_gradient_is_not_written(self, rng):
        # global_avg_pool hands its read-only broadcast_to view straight to the op's VJP
        q, k, v = (Tensor(rng.standard_normal((2, n, 4)), requires_grad=True) for n in (6, 4, 4))
        out = T.attention(q, k, v, 0.5, tile_elements=_budget(2, 4, 2))
        T.backward(weighted_sum(T.global_avg_pool(out)))
        assert all(np.isfinite(t.grad).all() for t in (q, k, v))

    def test_returned_maps_survive_backward(self, rng):
        q, k, v = (Tensor(rng.standard_normal((3, n, 4)), requires_grad=True) for n in (5, 4, 4))
        out, probs = T.attention(q, k, v, 0.5, return_attn=True, tile_elements=_budget(3, 4, 2))
        before = probs.copy()
        T.backward(weighted_sum(out, rng.standard_normal(out.shape)))
        assert np.array_equal(probs, before)

    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_heads_match_split_attend_merge(self, rng, dtype, atol):
        leaves = [rng.standard_normal((2, n, 3 * c)).astype(dtype) for n, c in ((7, 4), (5, 4), (5, 3))]
        weight = rng.standard_normal((2, 7, 9)).astype(dtype)
        budget = _budget(2 * 3, 5, 2)  # 2 query rows per tile: tiles of 2, 2, 2 and 1 rows
        runs = []
        for fused in (False, True):
            q, k, v = (Tensor(a, requires_grad=True) for a in leaves)
            if fused:
                out, probs = T.attention(q, k, v, 0.7, heads=3, return_attn=True,
                                         tile_elements=budget)
            else:
                out, probs = _split_attend_merge(q, k, v, 0.7, 3, budget)
            T.backward(weighted_sum(out, weight))
            runs.append((out.data, probs, [t.grad for t in (q, k, v)]))
        (want, want_probs, want_grads), (got, got_probs, got_grads) = runs
        assert got.shape == (2, 7, 9) and got_probs.shape == (2, 3, 7, 5)
        assert_allclose(got, want, rtol=1e-10, atol=atol)
        assert_allclose(got_probs, want_probs, rtol=1e-10, atol=atol)
        for fused, composed in zip(got_grads, want_grads):
            assert fused.shape == composed.shape
            assert_allclose(fused, composed, rtol=1e-10, atol=atol)

    def test_heads_must_split_widths(self):
        z = lambda *shape: Tensor(np.zeros(shape))
        with pytest.raises(DimensionError):
            T.attention(z(3, 6), z(4, 6), z(4, 5), 1.0, heads=2)
        with pytest.raises(DimensionError):
            T.attention(z(3, 6), z(4, 6), z(4, 6), 1.0, heads=4)

    def test_mismatched_shapes_and_scale_rejected(self):
        z = lambda *shape: Tensor(np.zeros(shape))
        with pytest.raises(DimensionError):
            T.attention(z(2, 3, 4), z(3, 3, 4), z(3, 3, 4), 1.0)
        with pytest.raises(DimensionError):
            T.attention(z(3, 4), z(3, 4), z(2, 4), 1.0)
        with pytest.raises(ConfigError):
            T.attention(z(3, 4), z(3, 4), z(3, 4), 0.0)


HEADS, C, CV = 2, 3, 2  # merged operands (2, 7, 6), (2, 5, 6) and (2, 5, 4)
PATH_CASES = [(dtype, keep) for dtype in (np.float32, np.float64) for keep in (True, False)]


def _heads(a):
    """The (..., H, N, C) view of a merged (..., N, H*C) operand."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (HEADS, -1)), -2, -3)


def _merged_oracle(q, k, v, scale):
    """naive_attention in float64 per batch index and head of merged operands."""
    out = _per_head_oracle(*(_heads(a).astype(np.float64) for a in (q, k, v)), 1 / scale)
    return np.swapaxes(out, -2, -3).reshape(q.shape[:-1] + (v.shape[-1],))


def _attend(q, k, v, scale, keep):
    """Merged-head attention in tiles of 3, 3 and 1 query rows; kept or scratch tiles."""
    budget = _budget(2 * HEADS, k.shape[-2], 3)
    args = (Tensor(q), Tensor(k), Tensor(v), scale)
    if keep:
        out, probs = T.attention(*args, heads=HEADS, return_attn=True, tile_elements=budget)
        sums = probs.sum(axis=-1)
        assert_allclose(sums[np.isfinite(sums)], 1.0, rtol=1e-5)
        return out.data
    return T.attention(*args, heads=HEADS, tile_elements=budget).data


def _raw_logits(q, k, scale):
    """The unshifted (..., H, N1, N2) logits, in the operands' dtype."""
    return _heads(q) @ np.swapaxes(_heads(k), -1, -2) * q.dtype.type(scale)


@pytest.fixture
def shift_calls(monkeypatch):
    """Record each call of the max-shifted softmax, which still runs."""
    calls = []
    shifted = T._softmax_numerators

    def spy(x):
        calls.append(x.shape)
        return shifted(x)

    monkeypatch.setattr(T, "_softmax_numerators", spy)
    return calls


def _operands(rng, dtype):
    q, k = (rng.standard_normal((2, n, HEADS * C)).astype(dtype) for n in (7, 5))
    return q, k, rng.standard_normal((2, 5, HEADS * CV)).astype(dtype)


class TestSoftmaxPaths:
    """The unshifted exp when Cauchy-Schwarz bounds the logits, and the shifted fallback."""

    @pytest.mark.parametrize("dtype,keep", PATH_CASES)
    def test_bounded_logits_skip_the_row_max(self, rng, monkeypatch, dtype, keep):
        def shifted(*args):
            raise AssertionError("bounded logits took the max-shifted softmax")

        monkeypatch.setattr(T, "_softmax_numerators", shifted)
        q, k, v = _operands(rng, dtype)
        out = _attend(q, k, v, 0.5, keep)
        assert out.dtype == dtype
        assert_allclose(out, _merged_oracle(q, k, v, 0.5), atol=1e-5 if dtype == np.float32 else 1e-12)

    # at 0.3, unlike a power of two, folding the scale in before the shift
    # rounds differently from scaling the shifted logits
    @pytest.mark.parametrize("dtype,keep,scale", [
        pytest.param(dtype, keep, scale, id=f"{np.dtype(dtype)}-{keep}" + suffix)
        for scale, suffix in ((1.0, ""), (0.3, "-0.3")) for dtype, keep in PATH_CASES
    ])
    def test_unbounded_logits_shift_by_the_row_max(self, rng, shift_calls, dtype, keep, scale):
        q, k, v = _operands(rng, dtype)
        # every key shares a large first coordinate per head: the scaled logits
        # sit near 1.5 ln(finfo.max), while each row's logits differ by O(scale)
        big = math.sqrt(1.5 * math.log(np.finfo(dtype).max) / scale)
        q[..., ::C] += big
        k[..., ::C] = big
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(_raw_logits(q, k, scale))).any()
        out = _attend(q, k, v, scale, keep)
        assert shift_calls and np.isfinite(out).all()
        assert_allclose(out, _merged_oracle(q, k, v, scale), atol=2e-4 if dtype == np.float32 else 1e-11)

    @pytest.mark.parametrize("dtype,keep", PATH_CASES)
    @pytest.mark.parametrize("past", [False, True])
    def test_large_values_lower_the_limit(self, rng, shift_calls, dtype, keep, past):
        # every logit equals b and every value is near max|v|, so exp(logits) @ v
        # reaches n2 * exp(b) * max|v|: finite just inside the limit, inf past it
        info = np.finfo(dtype)
        vmax = info.max ** 0.85
        limit = math.log(info.max) - math.log(5 * vmax)
        b = limit + (0.01 if past else -0.01)
        q = np.full((2, 7, HEADS * C), math.sqrt(b / C), dtype=dtype)
        k = np.full((2, 5, HEADS * C), math.sqrt(b / C), dtype=dtype)
        v = (vmax * (1 - 1e-3 * rng.random((2, 5, HEADS * CV)))).astype(dtype)
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(_raw_logits(q, k, 1.0)) @ _heads(v)).any() == past
        out = _attend(q, k, v, 1.0, keep)
        assert bool(shift_calls) == past and np.isfinite(out).all()
        assert_allclose(out, _merged_oracle(q, k, v, 1.0), rtol=1e-5 if dtype == np.float32 else 1e-12)

    @pytest.mark.parametrize("n1,n2,bounded", [(5, 7, False), (7, 5, True), (5, 5, True)])
    def test_bound_taken_only_without_fewer_queries_than_keys(self, rng, monkeypatch, shift_calls,
                                                               n1, n2, bounded):
        calls = []
        bound = T._logits_bounded

        def spy(*args):
            calls.append(args[1].shape)
            return bound(*args)

        monkeypatch.setattr(T, "_logits_bounded", spy)
        q, k = (rng.standard_normal((2, n, HEADS * C)).astype(np.float32) for n in (n1, n2))
        v = rng.standard_normal((2, n2, HEADS * CV)).astype(np.float32)
        out = _attend(q, k, v, 0.5, False)
        assert bool(calls) == bounded and bool(shift_calls) != bounded
        assert all(shape == (2, HEADS, n2, C) for shape in calls)
        assert_allclose(out, _merged_oracle(q, k, v, 0.5), atol=1e-5)

    @pytest.mark.parametrize("dtype,keep", PATH_CASES)
    def test_rows_without_a_normal_term_shift(self, shift_calls, dtype, keep):
        # one key per row and every logit -b, with -ln(finfo.tiny) < b below the
        # overflow limit: unshifted, exp(-b) is subnormal, and in float64 its
        # reciprocal row sum overflows
        info = np.finfo(dtype)
        b = (math.log(info.max) - math.log(info.tiny)) / 2
        q = np.full((2, 7, HEADS * C), -math.sqrt(b / C), dtype=dtype)
        k = np.full((2, 1, HEADS * C), math.sqrt(b / C), dtype=dtype)
        v = np.linspace(-1, 1, 2 * HEADS * CV, dtype=dtype).reshape(2, 1, HEADS * CV)
        out = _attend(q, k, v, 1.0, keep)
        assert shift_calls
        assert np.array_equal(out, np.broadcast_to(v, out.shape))

    @pytest.mark.parametrize("dtype,keep", PATH_CASES)
    @pytest.mark.parametrize("where,bad", [("q", np.nan), ("k", np.nan), ("v", np.nan),
                                           ("q", np.inf)])
    def test_non_finite_input_takes_the_shifted_path(self, rng, shift_calls, dtype, keep,
                                                     where, bad):
        ops = dict(zip("qkv", _operands(rng, dtype)))
        ops[where][0, 3, 1] = bad  # batch 0, row 3, head 0
        q, k, v = ops["q"], ops["k"], ops["v"]
        with np.errstate(invalid="ignore"):
            out = _attend(q, k, v, 0.5, keep)
            want = _merged_oracle(q, k, v, 0.5)
        assert shift_calls and np.isnan(out).any()
        # NaN exactly where the oracle has NaN: one row, every row or one column of head 0
        assert_allclose(out, want, atol=1e-5 if dtype == np.float32 else 1e-12)


    @pytest.mark.parametrize("name", ["tiny", "small", "base"])
    def test_fold_factor_below_one_at_every_published_site(self, name):
        # the logits are folded before any shift, so a fold factor below 1
        # means the folded logits never exceed |q . k|
        spec = variant(name)
        folds = []
        for row in count_model(spec, 224).entries:
            if row.kind in BLOCKS:
                tokens = {"img": row.n, "meta": row.m}
                folds += [T._LOG2_E / entropy_scale(tokens[s], tokens[src], HEAD_DIM)
                          for s, src in BLOCKS[row.kind].route.branches]
        assert len(folds) > 10 and max(folds) < 1
        # the largest is meta <- image in stage 1: (16, 3136) at head width 32
        assert max(folds) == pytest.approx(math.log2(math.e) / entropy_scale(16, 3136, 32))
        assert max(folds) == pytest.approx(0.7406, abs=1e-4)

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("bounded", [True, False])
    def test_float32_at_large_n_against_float64(self, rng, monkeypatch, shift_calls,
                                                bounded, keep):
        # N1 = N2 = 1024 with 2 heads of 32: two tiles of 512 query rows, and
        # logits with a spread of about 3 so that exp2 spans a wide range
        n, c = 1024, 32
        q = (3 * rng.standard_normal((n, HEADS * c))).astype(np.float32)
        k, v = (rng.standard_normal((n, HEADS * c)).astype(np.float32) for _ in range(2))
        if not bounded:
            monkeypatch.setattr(T, "_logits_bounded", lambda *args: False)
        divisor = entropy_scale(n, n, c)
        got = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / divisor, heads=HEADS,
                          return_attn=keep)
        if keep:
            got, probs = got
            assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)
        assert bool(shift_calls) != bounded and got.dtype == np.float32
        qh, kh, vh = (_heads(a).astype(np.float64) for a in (q, k, v))
        logits = qh @ np.swapaxes(kh, -1, -2) / divisor
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        want = np.swapaxes((w / w.sum(axis=-1, keepdims=True)) @ vh, 0, 1).reshape(n, -1)
        assert_allclose(got.data, want, atol=1e-5)


def _identity_params(dim: int) -> MhaParams:
    eye = lambda: Tensor(np.eye(dim, dtype=np.float32))
    zero = lambda: Tensor(np.zeros(dim, dtype=np.float32))
    return MhaParams(eye(), zero(), eye(), zero(), eye(), zero(), eye(), zero())


def _random_params(rng, dim: int) -> MhaParams:
    parts = []
    for _ in range(4):
        parts.append(Tensor(rng.standard_normal((dim, dim)).astype(np.float32) * 0.2))
        parts.append(Tensor(rng.standard_normal(dim).astype(np.float32) * 0.1))
    return MhaParams(*parts)


class TestMultiHeadAttention:
    def test_indivisible_split_rejected(self):
        with pytest.raises(ConfigError):
            BLOCKS["sa"](ParamStore(0), "blk", 48, 32, 2)

    def test_single_head_identity_projections_collapse_to_sdpa(self, rng):
        dim = 8
        q, kv = (Tensor(rng.standard_normal((5, dim)).astype(np.float32)) for _ in range(2))
        got = multi_head_attention(q, kv, _identity_params(dim), 1)
        want = T.attention(q, kv, kv, 1 / math.sqrt(dim))
        assert_allclose(got.data, want.data, atol=1e-6)

    def test_batched_matches_per_sample(self, rng):
        dim = 8
        params = _random_params(rng, dim)
        qb = rng.standard_normal((3, 5, dim)).astype(np.float32)
        kvb = rng.standard_normal((3, 4, dim)).astype(np.float32)
        batched = multi_head_attention(Tensor(qb), Tensor(kvb), params, 2).data
        for i in range(3):
            single = multi_head_attention(Tensor(qb[i]), Tensor(kvb[i]), params, 2).data
            assert_allclose(batched[i], single, atol=1e-5)

    def test_records_five_nodes(self, rng):
        dim = 8
        params = _random_params(rng, dim)
        q, k = (Tensor(rng.standard_normal((2, n, dim)), requires_grad=True) for n in (5, 3))
        out = multi_head_attention(q, k, params, 2)
        ops = sorted(n.op for n in Graph.trace(out).nodes if n.op != "leaf")
        assert ops == ["attention", "linear", "linear", "linear", "linear"]

    def test_width_mismatch_rejected(self, rng):
        params = _random_params(rng, 8)
        for q, kv in ((np.zeros((3, 6)), np.zeros((3, 8))), (np.zeros((3, 8)), np.zeros((3, 6)))):
            with pytest.raises(ConfigError):
                multi_head_attention(Tensor(q), Tensor(kv), params, 2)

    def test_returned_attention_is_head_averaged(self, rng):
        dim = 8
        params = _random_params(rng, dim)
        q = Tensor(rng.standard_normal((5, dim)).astype(np.float32))
        k = Tensor(rng.standard_normal((3, dim)).astype(np.float32))
        out, attn = multi_head_attention(q, k, params, 2, return_attn=True)
        assert isinstance(attn, np.ndarray)
        assert attn.shape == (5, 3)
        assert_allclose(attn.sum(axis=-1), np.ones(5), atol=1e-5)
        qp = (q.data @ params.wq.data + params.bq.data).reshape(5, 2, 4)
        kp = (k.data @ params.wk.data + params.bk.data).reshape(3, 2, 4)
        logits = np.einsum("nhc,mhc->hnm", qp, kp) / entropy_scale(5, 3, 4)
        heads = np.exp(logits - logits.max(axis=-1, keepdims=True))
        heads /= heads.sum(axis=-1, keepdims=True)
        assert_allclose(attn, heads.mean(axis=0), atol=1e-6)
        plain = multi_head_attention(q, k, params, 2)
        assert np.array_equal(out.data, plain.data)
