import math
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import naive_conv2d, naive_matmul, weighted_sum
from metavit import tensor as T
from metavit.errors import ConfigError, ContractError, DimensionError, InputError
from metavit.tensor import Graph, MacCounter, Tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        assert_allclose(out.data, a.data)

    def test_against_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert_allclose(got, naive_matmul(a, b), rtol=1e-6)
        # frozen small case from the same oracle
        got2 = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert_allclose(got2.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_case(self):
        out = T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.ones((4, 5))))
        assert out.shape == (3, 5)
        assert not out.data.any()

    def test_batched_broadcast(self, rng):
        a = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((5, 2))
        got = T.matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            assert_allclose(got[i], a[i] @ w, rtol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_associative_and_distributive(self, rng):
        a = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        c = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        left = T.matmul(T.matmul(a, b), c)
        right = T.matmul(a, T.matmul(b, c))
        assert_allclose(left.data, right.data, atol=1e-5)
        dist = T.matmul(a, T.add(b, c))
        split = T.add(T.matmul(a, b), T.matmul(a, c))
        assert_allclose(dist.data, split.data, atol=1e-5)


class TestAdd:
    def test_unequal_shapes_name_both(self):
        with pytest.raises(DimensionError) as err:
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
        assert "(2, 3)" in str(err.value) and "(3,)" in str(err.value)


class TestLinear:
    def test_rank3_matches_reshape_matmul_reshape_add(self, rng):
        xa, wa, ba = (rng.standard_normal(shape) for shape in ((2, 5, 4), (4, 3), (3,)))
        g = rng.standard_normal((2, 5, 3))  # the gradient at y of sum(y * g)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xa, wa, ba))
        y = T.linear(x, w, b)
        T.backward(weighted_sum(y, g))
        rows, grows = xa.reshape(10, 4), g.reshape(10, 3)
        want_grads = [(grows @ wa.T).reshape(2, 5, 4), rows.T @ grows, grows.sum(axis=0)]
        assert_allclose(y.data, (rows @ wa + ba).reshape(2, 5, 3), rtol=1e-12, atol=1e-12)
        for got, reference in zip((x.grad, w.grad, b.grad), want_grads):
            assert got.shape == reference.shape
            assert_allclose(got, reference, rtol=1e-12, atol=1e-12)

    def test_one_node_and_one_mac_count(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        w, b = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(3))
        with MacCounter() as meter:
            y = T.linear(x, w, b)
            plain = T.linear(x, w, Tensor(np.zeros(3)))
        assert y.op == "linear" and y.node.parents == (x, w, b) and y.shape == (2, 5, 3)
        assert_allclose(y.data, plain.data + b.data, rtol=1e-12)
        assert len(Graph.trace(y)) == 4
        assert meter.total == 2 * (10 * 4 * 3)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.ones((2, 5, 4))), Tensor(np.ones((3, 2))), Tensor(np.ones(2)))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert_allclose(out.data, [[0.25] * 4])

    def test_ln3_row(self):
        out = T.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        assert_allclose(out.data, [[0.25, 0.75]], atol=1e-6)

    def test_shift_invariance(self):
        out = T.softmax_rows(Tensor([[5.0, 5.0 + math.log(3.0)]]))
        assert_allclose(out.data, [[0.25, 0.75]], atol=1e-6)

    def test_rows_sum_to_one_and_shift_invariant(self, rng):
        for _ in range(25):
            x = rng.standard_normal((5, 7)).astype(np.float32)
            out = T.softmax_rows(Tensor(x)).data
            assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-6)
            shifted = T.softmax_rows(Tensor(x + 7.5)).data
            assert np.abs(out - shifted).max() < 1e-6
        # large shifts in the 64-bit gradient-check mode
        x64 = rng.standard_normal((5, 7)) * 10
        out64 = T.softmax_rows(Tensor(x64)).data
        shifted64 = T.softmax_rows(Tensor(x64 + 123.0)).data
        assert np.abs(out64 - shifted64).max() < 1e-6

    def test_large_logits_stay_finite(self):
        out = T.softmax_rows(Tensor([[1e4, 0.0, -1e4]]))
        assert np.isfinite(out.data).all()


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert_allclose(out.data, np.zeros((2, 4)), atol=1e-3)

    def test_closed_form_three_values(self):
        x = np.array([[1.0, 2.0, 3.0]])
        expected = (x - x.mean()) / np.sqrt(x.var() + 1e-5)  # 64-bit closed form
        out = T.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert_allclose(out.data, expected, atol=1e-9)
        assert_allclose(out.data, [[-1.22474, 0.0, 1.22474]], atol=1e-4)

    def test_zero_gamma_broadcasts_beta(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        beta = rng.standard_normal(5)
        out = T.layer_norm(x, Tensor(np.zeros(5)), Tensor(beta))
        assert_allclose(out.data, np.broadcast_to(beta, (3, 5)))

    def test_normalizes_mean_and_variance(self, rng):
        x = Tensor(rng.standard_normal((6, 16)) * 4 + 7)
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-5
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3

    @pytest.mark.parametrize("shape", [(3136, 64), (16, 192)])
    def test_float32_close_to_float64_formula(self, rng, shape):
        arrays = [(rng.standard_normal(shape) * 3 + 1).astype(np.float32)]
        arrays += [rng.standard_normal(shape[-1]).astype(np.float32) for _ in range(2)]
        x, gamma, beta = (a.astype(np.float64) for a in arrays)
        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        want = gamma * (centered / np.sqrt(var + 1e-5)) + beta
        got = T.layer_norm(*(Tensor(a) for a in arrays))
        assert got.dtype == np.float32
        assert_allclose(got.data, want, atol=5e-6)
        weight = rng.standard_normal(shape)
        grads = []
        for dtype in (np.float32, np.float64):
            leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            T.backward(weighted_sum(T.layer_norm(*leaves), weight))
            grads.append([t.grad for t in leaves])
        for g32, g64 in zip(*grads):
            assert g32.dtype == np.float32
            assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()

    def test_affine_must_be_one_feature_vector(self):
        x = Tensor(np.ones((2, 4)))
        with pytest.raises(DimensionError):
            T.layer_norm(x, Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))))


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(T.gelu(Tensor([10.0])).data[0] - 10.0) < 1e-4
        assert abs(T.gelu(Tensor([-10.0])).data[0]) < 1e-4

    def test_monotone_above_the_dip(self):
        # exact GELU has its minimum near -0.75 and increases from there on
        x = np.linspace(-0.7, 3, 301)
        y = T.gelu(Tensor(x)).data
        assert (np.diff(y) > 0).all()

    def test_float32_monotone_above_the_dip(self):
        x = np.linspace(-0.7, 3, 3001, dtype=np.float32)
        y = T.gelu(Tensor(x)).data
        assert y.dtype == np.float32
        assert (np.diff(y) > 0).all()

    def test_float32_within_2e6_of_exact(self):
        # +-4 sqrt(2) is where the Eigen/XLA rational erf clips its argument
        edge = 4 * math.sqrt(2)
        x = np.concatenate([np.linspace(-10, 10, 400_001), [-edge, edge]]).astype(np.float32)
        exact = T.gelu(Tensor(x.astype(np.float64))).data  # scipy erf
        got = T.gelu(Tensor(x)).data
        assert got.dtype == np.float32
        assert np.abs(got - exact).max() < 2e-6

    def test_float32_within_2e6_of_exact_on_random_points(self):
        x = np.random.default_rng(15).uniform(-10, 10, 2_000_000).astype(np.float32)
        leaves = [Tensor(x.astype(dtype), requires_grad=True) for dtype in (np.float32, np.float64)]
        got, exact = (T.gelu(leaf) for leaf in leaves)
        assert np.abs(got.data - exact.data).max() < 2e-6
        for out in (got, exact):
            T.backward(weighted_sum(out))
        assert leaves[0].grad.dtype == np.float32
        assert_allclose(leaves[0].grad, leaves[1].grad, rtol=1e-6, atol=2e-6)

    def test_float32_within_2e6_of_exact_far_left(self):
        x = -np.logspace(1, 38, 20_001).astype(np.float32)
        exact = T.gelu(Tensor(x.astype(np.float64))).data
        assert np.abs(T.gelu(Tensor(x)).data - exact).max() < 2e-6

    def test_float32_non_finite_as_float64(self):
        x = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
            got = T.gelu(Tensor(x)).data
            want = T.gelu(Tensor(x.astype(np.float64))).data
        assert_allclose(got, want, rtol=0, atol=0)

    def test_float32_normal_cdf_in_unit_interval(self):
        big = np.logspace(-45, math.log10(np.finfo(np.float32).max), 20_001)
        x = np.concatenate([-big[::-1], [0.0], big]).astype(np.float32)
        phi = T._normal_cdf_float32(x)
        assert phi.min() >= 0.0 and phi.max() <= 1.0
        assert phi[0] == 0.0 and phi[-1] == 1.0

    def test_float32_finite_inputs_raise_no_warning(self):
        big = np.logspace(-45, math.log10(np.finfo(np.float32).max), 20_001)
        x = np.concatenate([-big, [0.0], big]).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with T.no_grad():
                T.gelu(Tensor(x))
            leaf = Tensor(x, requires_grad=True)
            weight = 1 / (1 + np.abs(x))  # keeps the summed loss finite
            T.backward(weighted_sum(T.gelu(leaf), weight))
        assert np.isfinite(leaf.grad).all()

    def test_chunks_match_one_chunk(self, rng, monkeypatch):
        x = (rng.standard_normal((5, 9)) * 3).astype(np.float32)
        whole = T.gelu(Tensor(x)).data
        monkeypatch.setattr(T, "_CHUNK_ELEMENTS", 7)  # 6 chunks of 7 and one of 3
        assert np.array_equal(T.gelu(Tensor(x)).data, whole)
        assert np.array_equal(T.gelu(Tensor(x[:, :1])).data, whole[:, :1])  # one short chunk

    def test_float32_gradient_close_to_float64(self, rng):
        x = rng.standard_normal(4000) * 3
        weight = rng.standard_normal(4000)
        grads = []
        for dtype in (np.float32, np.float64):
            leaf = Tensor(x.astype(dtype), requires_grad=True)
            T.backward(weighted_sum(T.gelu(leaf), weight))
            grads.append(leaf.grad)
        assert grads[0].dtype == np.float32
        assert_allclose(grads[0], grads[1], rtol=1e-6, atol=2e-6)

    def test_float32_gradient_bit_equals_stepwise_derivative(self, rng, monkeypatch):
        # the derivative formed in forward, chunk by chunk, equals the steps
        # d = Phi + x pdf(x), then d * g, taken over the whole array
        edge = 4 * math.sqrt(2)
        x = np.concatenate([rng.standard_normal(40) * 4, [-edge, edge, -9.5, 9.5, 0.0]])
        x = x.astype(np.float32)
        g = rng.standard_normal(x.size).astype(np.float32)
        monkeypatch.setattr(T, "_CHUNK_ELEMENTS", 7)  # 6 chunks of 7 and one of 3
        want = np.square(x)
        want *= -0.5
        np.exp(want, out=want)
        want *= 1.0 / math.sqrt(2.0 * math.pi)
        want *= x
        want += T._normal_cdf_float32(x)
        want *= g
        leaf = Tensor(x, requires_grad=True)
        T.backward(weighted_sum(T.gelu(leaf), g))
        assert leaf.grad.dtype == np.float32
        assert np.array_equal(leaf.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_not_written(self, rng, dtype):
        x = rng.standard_normal((3, 4)).astype(dtype)
        kept = x.copy()
        with T.no_grad():
            out = T.gelu(Tensor(x))
        assert np.array_equal(x, kept)
        assert not np.shares_memory(out.data, x)


def _nhwc(a):
    """Channels-first (..., C, H, W) to the channels-last layout conv2d takes."""
    return np.moveaxis(a, -3, -1)


def _nchw(a):
    """Channels-last conv2d output back to (..., C, H, W) for comparison."""
    return np.moveaxis(a, -1, -3)


class TestConv2d:
    def test_1x1_identity(self, rng):
        x = rng.standard_normal((2, 5, 5))
        w = np.zeros((2, 2, 1, 1))
        w[0, 0] = w[1, 1] = 1.0
        out = T.conv2d(Tensor(_nhwc(x)), Tensor(w), Tensor(np.zeros(2)))
        assert_allclose(_nchw(out.data), x)

    def test_all_ones_kernel_border_sums(self):
        x = Tensor(_nhwc(np.ones((1, 5, 5))))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = _nchw(T.conv2d(x, w, Tensor(np.zeros(1))).data)[0]
        assert out[2, 2] == 9.0
        assert out[0, 2] == 6.0
        assert out[0, 0] == 4.0

    def test_stride2_shape_arithmetic(self):
        x = Tensor(_nhwc(np.zeros((3, 224, 224), dtype=np.float32)))
        w = Tensor(np.zeros((8, 3, 3, 3), dtype=np.float32))
        out = T.conv2d(x, w, Tensor(np.zeros(8, dtype=np.float32)), stride=2)
        assert _nchw(out.data).shape == (8, 112, 112)

    # a (2 half + 1)-square kernel, which conv2d pads by half
    @pytest.mark.parametrize("stride,half,groups", [(1, 0, 1), (2, 1, 1), (1, 1, 2), (2, 1, 4)])
    def test_against_sliding_window_oracle(self, rng, stride, half, groups):
        cin, cout = (4, 8) if groups == 1 else (groups, groups)  # dense or depthwise
        x = rng.standard_normal((2, cin, 6, 7))
        w = rng.standard_normal((cout, cin // groups, 2 * half + 1, 2 * half + 1))
        b = rng.standard_normal(cout)
        got = T.conv2d(Tensor(_nhwc(x)), Tensor(w), Tensor(b), stride=stride).data
        assert_allclose(_nchw(got), naive_conv2d(x, w, b, stride, half, groups),
                        rtol=1e-6, atol=1e-8)

    def test_groups1_equals_im2col_reference(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        got = _nchw(T.conv2d(Tensor(_nhwc(x)), Tensor(w), Tensor(b)).data)
        # independent im2col assembled with stride tricks and einsum
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        s0, s1, s2, s3 = xp.strides
        win = np.lib.stride_tricks.as_strided(xp, (1, 8, 8, 3, 3, 3), (s0, s2, s3, s1, s2, s3))
        ref = np.einsum("bhwikl,oikl->bohw", win, w) + b[None, :, None, None]
        assert_allclose(got, ref, atol=1e-5)

    def test_depthwise_matches_grouped_oracle(self, rng):
        d = 6
        x = rng.standard_normal((2, d, 5, 5))
        w = rng.standard_normal((d, 1, 3, 3))
        b = rng.standard_normal(d)
        got = T.conv2d(Tensor(_nhwc(x)), Tensor(w), Tensor(b)).data
        assert_allclose(_nchw(got), naive_conv2d(x, w, b, 1, 1, d), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("cin,cout", [(1, 1), (1, 3), (5, 5)])
    def test_kind_read_from_weight_shape(self, rng, cin, cout):
        # (Cout, 1, 3, 3) is dense on one input channel and depthwise on Cin > 1
        groups = 1 if cin == 1 else cin
        x = rng.standard_normal((2, cin, 5, 6))
        w = rng.standard_normal((cout, 1, 3, 3))
        b = rng.standard_normal(cout)
        got = T.conv2d(Tensor(_nhwc(x)), Tensor(w), Tensor(b)).data
        assert_allclose(_nchw(got), naive_conv2d(x, w, b, 1, 1, groups), rtol=1e-6, atol=1e-8)

    def test_bad_groups_rejected(self):
        # weights on Cin=4 that are neither dense (Cout, 4, k, k) nor depthwise
        # (4, 1, k, k): 2 input channels per group, and one per group with Cout != Cin
        for wshape in ((6, 2, 3, 3), (4, 2, 3, 3), (8, 1, 3, 3)):
            with pytest.raises(DimensionError):
                T.conv2d(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros(wshape)),
                         Tensor(np.zeros(wshape[0])))

    def test_kernel_larger_than_padded_input_rejected(self):
        # padded by k // 2, only an empty axis is still smaller than an odd kernel
        with pytest.raises(DimensionError, match="non-empty grid"):
            T.conv2d(Tensor(_nhwc(np.zeros((1, 0, 2)))), Tensor(np.zeros((1, 1, 3, 3))),
                     Tensor(np.zeros(1)))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(DimensionError, match="stride >= 1"):
            T.conv2d(Tensor(np.zeros((6, 6, 2))), Tensor(np.zeros((2, 2, 3, 3))),
                     Tensor(np.zeros(2)), stride=stride)

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "3d"])
    @pytest.mark.parametrize("kind,k,stride,trim", [
        (kind, k, stride, trim)
        for kind in ("dense", "depthwise") for k in (1, 3, 5)
        for stride in (1, 2, 3) for trim in range(k)
    ])
    def test_gradients_equal_loop_vjp(self, rng, kind, k, stride, trim, batched):
        # float64 over a (7 - trim) x (6 - trim) input, so that the padded
        # extents take k consecutive values on each axis, odd and even alike
        cin, cout = (3, 4) if kind == "dense" else (3, 3)
        shape = (7 - trim, 6 - trim, cin)
        x = Tensor(rng.standard_normal((2,) + shape if batched else shape), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin if kind == "dense" else 1, k, k)),
                   requires_grad=True)
        b = Tensor(rng.standard_normal(cout), requires_grad=True)
        out = T.conv2d(x, w, b, stride=stride)
        g = rng.standard_normal(out.shape)
        T.backward(weighted_sum(out, g))
        xb, gb = (x.data, g) if batched else (x.data[None], g[None])
        dx, dw, db = _loop_conv2d_vjp(xb, w.data, gb, stride, k // 2)
        assert_allclose(x.grad, dx if batched else dx[0], rtol=0, atol=1e-10)
        assert_allclose(w.grad, dw, rtol=0, atol=1e-10)
        assert_allclose(b.grad, db, rtol=0, atol=1e-10)


def _loop_conv2d_vjp(x, w, g, stride, padding):
    """dx, dw and db of a channels-last conv2d at output gradient ``g``, one
    output position and kernel tap at a time; x is (B, H, W, Cin) and g is
    (B, Ho, Wo, Cout). A (Cin, 1, k, k) weight with Cin > 1 is depthwise."""
    bsz, h, wd, cin = x.shape
    cout, cin_g, k, _ = w.shape
    depthwise = cin_g == 1 and cout == cin > 1
    pads = ((0, 0), (padding, padding), (padding, padding), (0, 0))
    xp = np.pad(x, pads)
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for bi in range(bsz):
        for y in range(g.shape[1]):
            for xx in range(g.shape[2]):
                gv = g[bi, y, xx]
                for i in range(k):
                    for j in range(k):
                        r, c = y * stride + i, xx * stride + j
                        if depthwise:
                            dw[:, 0, i, j] += gv * xp[bi, r, c]
                            dxp[bi, r, c] += gv * w[:, 0, i, j]
                        else:
                            dw[:, :, i, j] += np.outer(gv, xp[bi, r, c])
                            dxp[bi, r, c] += w[:, :, i, j].T @ gv
    return dxp[:, padding:padding + h, padding:padding + wd], dw, g.sum(axis=(0, 1, 2))


class TestGlobalAvgPool:
    def test_constant(self):
        out = T.global_avg_pool(Tensor(np.full((5, 3), 2.5)))
        assert_allclose(out.data, [2.5, 2.5, 2.5])

    def test_symmetry(self):
        out = T.global_avg_pool(Tensor([[1.0, 3.0], [3.0, 1.0]]))
        assert_allclose(out.data, [2.0, 2.0])

    def test_against_naive_mean(self, rng):
        x = rng.standard_normal((5, 4)).astype(np.float32)
        want = np.array([x[:, j].sum() / 5 for j in range(4)])
        assert_allclose(T.global_avg_pool(Tensor(x)).data, want, atol=1e-6)


class TestBackward:
    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.add(x, x))

    def test_matmul_chain_finite_differences(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = rng.standard_normal((3, 2))

        def loss_fn():
            return weighted_sum(T.matmul(a, b), w)

        loss = loss_fn()
        T.backward(loss)
        h = 1e-5
        worst = 0.0
        for leaf in (a, b):
            flat = leaf.data.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up = loss_fn().item()
                flat[idx] = keep - h
                down = loss_fn().item()
                flat[idx] = keep
                numeric = (up - down) / (2 * h)
                analytic = leaf.grad.reshape(-1)[idx]
                worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0))
        assert worst < 1e-4

    def test_softmax_cross_entropy_closed_form(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        labels = np.array([0, 2, 4, 1])
        loss = T.cross_entropy(logits, labels)
        T.backward(loss)
        z = logits.data
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        assert_allclose(logits.grad, (p - onehot) / 4, atol=1e-8)

    @pytest.mark.parametrize("labels", [[0, -1], [0, 3], [0.7, 1.2], [0, np.nan], ["a", "b"]])
    def test_cross_entropy_labels_must_be_classes(self, labels):
        with pytest.raises(InputError, match="label"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_cross_entropy_names_the_bad_label(self):
        with pytest.raises(InputError, match=r"label -1 is not an integer in \[0, 3\)"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, -1])

    def test_cross_entropy_integral_float_labels_accepted(self):
        z = Tensor(np.zeros((2, 3)))
        assert T.cross_entropy(z, [0.0, 2.0]).item() == T.cross_entropy(z, [0, 2]).item()

    @pytest.mark.parametrize("smoothing", [2.0, 1.0, -0.1, np.nan])
    def test_cross_entropy_smoothing_in_unit_interval(self, smoothing):
        with pytest.raises(ConfigError, match="label_smoothing"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], label_smoothing=smoothing)

    @pytest.mark.parametrize("shape", [(5,), (2, 4, 5)])
    def test_cross_entropy_needs_batched_logits(self, shape):
        with pytest.raises(DimensionError, match="cross_entropy"):
            T.cross_entropy(Tensor(np.zeros(shape)), np.zeros(1 if len(shape) == 1 else 2))

    def test_each_op_visited_once(self, rng):
        # diamond: y = x+x used twice; gradient must accumulate once per use
        x = Tensor([2.0], requires_grad=True)
        y = T.add(x, x)
        loss = weighted_sum(T.add(y, y))
        graph = Graph.trace(loss)
        assert len(set(id(n) for n in graph.nodes)) == len(graph.nodes)
        T.backward(loss)
        assert_allclose(x.grad, [4.0])

    def test_grads_populated_on_all_leaves(self, rng):
        leaves = [Tensor(rng.standard_normal((2, 2)), requires_grad=True) for _ in range(3)]
        loss = weighted_sum(T.matmul(T.add(leaves[0], leaves[1]), leaves[2]))
        T.backward(loss)
        assert all(leaf.grad is not None for leaf in leaves)

    def test_graph_consumed_by_backward(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4))
        h = T.gelu(T.linear(x, w, Tensor(np.zeros(4))))
        loss = weighted_sum(T.layer_norm(T.add(h, h), gamma, beta))
        nodes = list(Graph.trace(loss).nodes)
        inner = [n for n in nodes if isinstance(n, T.Node)]
        assert len(inner) >= 5 and all(n.vjp is not None for n in inner)
        T.backward(loss)
        for n in inner:
            assert n.grad is None and n.vjp is None and n.parents == (), n.op
        assert all(leaf.grad is not None for leaf in (x, w, gamma))

    def test_second_backward_through_used_graph_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = weighted_sum(x, [2.0, 4.0])
        T.backward(loss)
        with pytest.raises(ContractError):
            T.backward(loss)
        assert_allclose(x.grad, [2.0, 4.0])

    def test_dropped_intermediates_freed_by_backward(self, rng):
        x = Tensor(rng.standard_normal((8, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16)))
        unread = T.gelu(T.matmul(x, w))  # feeds layer_norm, whose VJP keeps only xhat
        read = T.gelu(T.matmul(x, w))  # feeds linear, whose VJP keeps its input rows
        normed = T.layer_norm(unread, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        loss = weighted_sum(T.add(normed, T.linear(read, w, Tensor(np.zeros(16)))))
        unread_buffer, read_buffer = (
            weakref.ref(t.data if t.data.base is None else t.data.base) for t in (unread, read)
        )
        del unread, read
        assert unread_buffer() is None  # no VJP reads it
        assert read_buffer() is not None  # linear's VJP still reads it
        T.backward(loss)
        assert read_buffer() is None
        assert x.grad is not None

    def test_leaf_grads_private_when_vjp_returns_one_array_twice(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        T.backward(weighted_sum(T.add(a, b)))
        assert a.grad is not b.grad
        assert a.grad.flags.writeable and b.grad.flags.writeable
        a.grad += 1.0
        assert_allclose(a.grad, np.full((2, 3), 2.0))
        assert_allclose(b.grad, np.ones((2, 3)))

    def test_leaf_grad_from_broadcast_view_is_owned(self):
        # global_avg_pool's VJP returns a read-only broadcast_to view
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        T.backward(weighted_sum(T.global_avg_pool(x), 3.0))
        assert x.grad.flags.writeable and x.grad.flags.owndata
        assert_allclose(x.grad, np.ones((3, 2)))

    def test_leaf_keeps_its_dtype(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32), requires_grad=True)
        w = Tensor(np.array([[3.0], [-4.0]], dtype=np.float64))
        b = Tensor(np.zeros(1, dtype=np.float64))
        once = T.linear(x, w, b)
        assert once.dtype == np.float64
        T.backward(once)
        assert x.grad.dtype == np.float32
        assert_allclose(x.grad, [[3.0, -4.0]])
        x.grad = None
        T.backward(T.add(T.linear(x, w, b), T.linear(x, w, b)))  # accumulated twice
        assert x.grad.dtype == np.float32
        assert_allclose(x.grad, [[6.0, -8.0]])


class TestEmptyAxes:
    def test_attention_without_keys(self):
        q, kv = Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 0, 4)))
        with pytest.raises(DimensionError, match="non-empty"):
            T.attention(q, kv, kv, 0.5)

    def test_attention_with_empty_leading_axis(self):
        q, kv = Tensor(np.zeros((0, 5, 4))), Tensor(np.zeros((0, 3, 4)))
        with pytest.raises(DimensionError, match="non-empty"):
            T.attention(q, kv, kv, 0.5)

    def test_layer_norm_over_no_features(self):
        with pytest.raises(DimensionError, match="feature width"):
            T.layer_norm(Tensor(np.zeros((3, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
    def test_cross_entropy_without_classes_or_rows(self, shape):
        with pytest.raises(DimensionError, match="cross_entropy"):
            T.cross_entropy(Tensor(np.zeros(shape)), np.zeros(shape[0], dtype=np.int64))

    def test_global_avg_pool_over_no_tokens(self):
        with pytest.raises(DimensionError, match="N >= 1"):
            T.global_avg_pool(Tensor(np.zeros((2, 0, 3))))


class TestItem:
    def test_one_element_of_any_rank(self):
        assert Tensor(np.full((1, 1), 2.5)).item() == 2.5

    @pytest.mark.parametrize("shape", [(3,), (0,), (1, 2)])
    def test_other_sizes_rejected(self, shape):
        with pytest.raises(ContractError, match="one-element"):
            Tensor(np.arange(math.prod(shape), dtype=np.float64).reshape(shape)).item()


class TestNoGradAndMeters:
    def test_no_grad_skips_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = T.add(x, x)
        assert y.node is None and y.op == "leaf" and not y.requires_grad

    def test_mac_counter_counts_matmul(self):
        a = Tensor(np.zeros((4, 5), dtype=np.float32))
        b = Tensor(np.zeros((5, 6), dtype=np.float32))
        with MacCounter() as meter:
            T.matmul(a, b)
        assert meter.total == 4 * 5 * 6

    def test_kernels_produce_finite_outputs(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32) * 50
        for out in (
            T.softmax_rows(Tensor(x)),
            T.gelu(Tensor(x)),
            T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))),
        ):
            assert np.isfinite(out.data).all()
