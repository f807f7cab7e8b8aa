"""Activations, LUTs, normalization, attention, linear kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    Numerics,
    apply_quantized_lut,
    batch_norm,
    batched_matmul,
    choose_qparams,
    dequantize,
    fold_batch_norm,
    fully_connected,
    fully_connected_quantized,
    gelu,
    hard_sigmoid,
    hard_swish,
    layer_norm,
    log_softmax,
    multi_head_attention,
    quantize,
    quantized_lut,
    relu,
    relu6,
    sigmoid,
    softmax,
    tanh,
)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])

    def test_relu6_clamps(self):
        np.testing.assert_array_equal(relu6(np.array([-1.0, 3.0, 9.0])), [0, 3, 6])

    def test_hard_swish_matches_definition(self, rng):
        x = rng.normal(0, 3, 100).astype(np.float32)
        np.testing.assert_allclose(
            hard_swish(x), x * np.clip(x + 3, 0, 6) / 6, atol=1e-6
        )

    def test_hard_sigmoid_range(self, rng):
        out = hard_sigmoid(rng.normal(0, 10, 1000).astype(np.float32))
        assert out.min() >= 0 and out.max() <= 1

    def test_sigmoid_symmetry(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0])), [0.5])
        np.testing.assert_allclose(
            sigmoid(np.array([2.0])) + sigmoid(np.array([-2.0])), [1.0], atol=1e-6
        )

    def test_gelu_near_relu_for_large(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_tanh(self):
        np.testing.assert_allclose(tanh(np.array([0.0])), [0.0])


class TestSoftmax:
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, logits):
        p = softmax(np.asarray(logits, dtype=np.float32))
        assert p.sum() == pytest.approx(1.0, abs=1e-5)
        assert np.all(p >= 0)

    def test_shift_invariance(self, rng):
        x = rng.normal(0, 5, (3, 7)).astype(np.float32)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(0, 2, (2, 5)).astype(np.float32)
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-5)

    def test_overflow_safe(self):
        p = softmax(np.array([1e4, 0.0], dtype=np.float32))
        assert np.isfinite(p).all()


class TestQuantizedLUT:
    def test_lut_matches_float_within_scale(self, rng):
        in_qp = choose_qparams(-4.0, 4.0, Numerics.INT8)
        out_qp = choose_qparams(0.0, 1.0, Numerics.INT8)
        lut = quantized_lut(sigmoid, in_qp, out_qp)
        assert lut.shape == (256,)
        x = rng.normal(0, 2, 200).astype(np.float32)
        xq = quantize(x, in_qp)
        got = dequantize(apply_quantized_lut(xq, lut, in_qp), out_qp)
        want = sigmoid(dequantize(xq, in_qp))
        assert np.abs(got - want).max() <= float(out_qp.scale[0])

    def test_uint8_lut_size(self):
        in_qp = choose_qparams(0.0, 6.0, Numerics.UINT8)
        lut = quantized_lut(relu6, in_qp, in_qp)
        assert lut.shape == (256,)


class TestNormalization:
    def test_batch_norm_identity(self, rng):
        x = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        out = batch_norm(x, np.zeros(3), np.ones(3) - 1e-3, np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, x, atol=1e-3)

    def test_fold_batch_norm_equivalence(self, rng):
        from repro.kernels import conv2d

        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 3, 5)).astype(np.float32)
        mean = rng.normal(0, 0.2, 5).astype(np.float32)
        var = (1 + rng.uniform(-0.3, 0.3, 5)).astype(np.float32)
        gamma = (1 + rng.normal(0, 0.1, 5)).astype(np.float32)
        beta = rng.normal(0, 0.1, 5).astype(np.float32)
        want = batch_norm(conv2d(x, w), mean, var, gamma, beta)
        wf, bf = fold_batch_norm(w, None, mean, var, gamma, beta)
        got = conv2d(x, wf, bf)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_fold_depthwise(self, rng):
        from repro.kernels import depthwise_conv2d

        x = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 4, 1)).astype(np.float32)
        mean = rng.normal(0, 0.2, 4).astype(np.float32)
        var = np.ones(4, dtype=np.float32)
        gamma = (1 + rng.normal(0, 0.1, 4)).astype(np.float32)
        beta = rng.normal(0, 0.1, 4).astype(np.float32)
        want = batch_norm(depthwise_conv2d(x, w), mean, var, gamma, beta)
        wf, bf = fold_batch_norm(w, None, mean, var, gamma, beta, depthwise=True)
        np.testing.assert_allclose(depthwise_conv2d(x, wf, bf), want, atol=1e-4)

    def test_layer_norm_stats(self, rng):
        x = rng.normal(3, 5, (2, 7, 16)).astype(np.float32)
        out = layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1, atol=1e-2)


class TestLinear:
    def test_fully_connected(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)
        w = rng.normal(size=(8, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        np.testing.assert_allclose(fully_connected(x, w, b), x @ w + b, atol=1e-5)

    def test_fully_connected_3d(self, rng):
        x = rng.normal(size=(2, 5, 8)).astype(np.float32)
        w = rng.normal(size=(8, 4)).astype(np.float32)
        assert fully_connected(x, w).shape == (2, 5, 4)

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    def test_quantized_fc(self, rng, numerics):
        x = rng.normal(0, 1, (3, 16)).astype(np.float32)
        w = rng.normal(0, 0.3, (16, 8)).astype(np.float32)
        b = rng.normal(0, 0.1, 8).astype(np.float32)
        ref = fully_connected(x, w, b)
        x_qp = choose_qparams(float(x.min()), float(x.max()), numerics)
        w_qp = choose_qparams(w.min(axis=0), w.max(axis=0), numerics, symmetric=True, axis=1)
        bq = np.round(b / (x_qp.scale[0] * w_qp.scale)).astype(np.int32)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = fully_connected_quantized(
            quantize(x, x_qp), quantize(w, w_qp), bq, x_qp, w_qp, out_qp
        )
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])


class TestAttention:
    def test_shapes(self, rng):
        q = rng.normal(size=(2, 6, 16)).astype(np.float32)
        out = multi_head_attention(q, q, q, num_heads=4)
        assert out.shape == (2, 6, 16)

    def test_head_divisibility(self, rng):
        q = rng.normal(size=(1, 4, 10)).astype(np.float32)
        with pytest.raises(ValueError):
            multi_head_attention(q, q, q, num_heads=3)

    def test_masked_positions_ignored(self, rng):
        q = rng.normal(size=(1, 5, 8)).astype(np.float32)
        k = q.copy()
        v = q.copy()
        mask = np.array([[1, 1, 1, 0, 0]], dtype=np.float32)
        out_masked = multi_head_attention(q, k, v, 2, mask)
        # changing the masked values must not affect the output
        v2 = v.copy()
        v2[:, 3:] += 100.0
        k2 = k.copy()
        k2[:, 3:] -= 50.0
        out_masked2 = multi_head_attention(q, k2, v2, 2, mask)
        np.testing.assert_allclose(out_masked, out_masked2, atol=1e-4)

    def test_uniform_attention_averages(self):
        # identical keys -> uniform attention -> context is the mean of values
        q = np.ones((1, 3, 4), dtype=np.float32)
        k = np.ones((1, 3, 4), dtype=np.float32)
        v = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
        out = multi_head_attention(q, k, v, 1)
        np.testing.assert_allclose(out[0, 0], v[0].mean(axis=0), atol=1e-5)

    def test_batched_matmul(self, rng):
        a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        b = rng.normal(size=(2, 3, 5, 6)).astype(np.float32)
        np.testing.assert_allclose(batched_matmul(a, b), a @ b, atol=1e-5)


# -- byte-identity oracles for the construction-path kernels -----------------
# Each optimized kernel must reproduce its straightforward formulation bit for
# bit (same float32 operation sequence per element); these references are
# that formulation, kept only here.


def _resize_bilinear_four_gather(x, out_h, out_w, align_corners=False):
    """The direct form: four full-output 2-D gathers, then the two blends."""
    n, in_h, in_w, c = x.shape
    if (in_h, in_w) == (out_h, out_w):
        return np.asarray(x, dtype=np.float32)
    if align_corners and out_h > 1 and out_w > 1:
        ys = np.linspace(0, in_h - 1, out_h)
        xs = np.linspace(0, in_w - 1, out_w)
    else:
        ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
        xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0).astype(np.float32)[None, :, None, None]
    wx = (xs - x0).astype(np.float32)[None, None, :, None]
    x = np.asarray(x, dtype=np.float32)
    top = x[:, y0][:, :, x0] * (1 - wx) + x[:, y0][:, :, x1] * wx
    bot = x[:, y1][:, :, x0] * (1 - wx) + x[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def _assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestResizeOracle:
    @given(
        n=st.integers(1, 7),
        in_hw=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        out_hw=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        c=st.integers(1, 4),
        align_corners=st.booleans(),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        block_samples=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_four_gather(self, n, in_hw, out_hw, c, align_corners, dtype,
                                 block_samples, seed):
        from unittest import mock

        from repro.kernels import pooling

        rng = np.random.default_rng(seed)
        if dtype is np.uint8:
            x = rng.integers(0, 256, (n, *in_hw, c)).astype(np.uint8)
        else:
            x = rng.normal(0, 3, (n, *in_hw, c)).astype(dtype)
        want = _resize_bilinear_four_gather(x, *out_hw, align_corners)
        # shrink the block so batches land below, on and above its boundary
        elems = block_samples * out_hw[0] * out_hw[1] * c
        with mock.patch.object(pooling, "_RESIZE_BLOCK_ELEMS", elems):
            got = pooling.resize_bilinear(x, *out_hw, align_corners)
        _assert_bits_equal(got, want)

    @pytest.mark.parametrize("out_size", [46, 54, 96])
    def test_real_block_boundary(self, out_size):
        from repro.kernels.pooling import _RESIZE_BLOCK_ELEMS, resize_bilinear

        block = _RESIZE_BLOCK_ELEMS // (out_size * out_size * 3)
        rng = np.random.default_rng(out_size)
        for n in (max(block - 1, 1), block, block + 1, 2 * block + 1):
            x = rng.integers(0, 256, (n, 60, 60, 3)).astype(np.uint8)
            _assert_bits_equal(resize_bilinear(x, out_size, out_size),
                               _resize_bilinear_four_gather(x, out_size, out_size))

    def test_identity_size_is_float32_input(self, rng):
        from repro.kernels import resize_bilinear

        x = rng.integers(0, 256, (3, 5, 5, 3)).astype(np.uint8)
        _assert_bits_equal(resize_bilinear(x, 5, 5), x.astype(np.float32))


class TestPadInputOracle:
    @pytest.mark.parametrize(
        "dtype, value",
        [(np.float32, 0.0), (np.float32, -np.inf), (np.float64, np.float64(-3.0)),
         (np.float64, np.float64(0.0)), (np.float32, np.float64(0.1)), (np.float64, 128)],
    )
    @pytest.mark.parametrize("pads", [((0, 1), (0, 1)), ((1, 1), (1, 1)), ((2, 0), (0, 3)),
                                      ((0, 0), (1, 2)), ((3, 2), (0, 0))])
    def test_matches_np_pad(self, rng, dtype, value, pads):
        from repro.kernels import pad_input

        x = rng.normal(size=(2, 4, 5, 3)).astype(dtype)
        want = np.pad(x, ((0, 0), pads[0], pads[1], (0, 0)), constant_values=value)
        _assert_bits_equal(pad_input(x, *pads, value=value), want)

    def test_no_padding_returns_input(self, rng):
        from repro.kernels import pad_input

        x = rng.normal(size=(1, 3, 3, 2)).astype(np.float32)
        assert pad_input(x, (0, 0), (0, 0)) is x


class TestInPlaceEpilogueOracle:
    @staticmethod
    def _bn_params(rng, c, dtypes):
        mean, var, gamma, beta = (
            rng.normal(0, 0.5, c), 1 + rng.uniform(0, 1, c),
            1 + rng.normal(0, 0.3, c), rng.normal(0, 0.5, c),
        )
        return [p.astype(d) for p, d in zip((mean, var, gamma, beta), dtypes)]

    @pytest.mark.parametrize("dtypes", [
        (np.float32,) * 4,
        (np.float64,) * 4,
        (np.float32, np.float64, np.float32, np.float32),  # float64 inv only
        (np.float32, np.float32, np.float64, np.float32),  # float64 inv only
        (np.float64, np.float32, np.float32, np.float32),  # float64 x - mean
        (np.float32, np.float32, np.float32, np.float64),  # float64 beta only
    ])
    def test_batch_norm_matches_out_of_place(self, rng, dtypes):
        x = rng.normal(0, 2, (3, 5, 5, 6)).astype(np.float32)
        mean, var, gamma, beta = self._bn_params(rng, 6, dtypes)
        inv = gamma / np.sqrt(var + 1e-3)
        want = ((x - mean) * inv + beta).astype(np.float32)
        _assert_bits_equal(batch_norm(x, mean, var, gamma, beta, 1e-3), want)

    def test_float64_inv_is_not_narrowed(self, rng):
        # a float32 buffer multiplied in place by a float64 inv would round
        # after the multiply; the promoted (float64) product must survive
        x = rng.normal(0, 2, (4, 8, 8, 5)).astype(np.float32)
        mean, var, gamma, beta = self._bn_params(
            rng, 5, (np.float32, np.float32, np.float64, np.float32)
        )
        inv = gamma / np.sqrt(var + 1e-3)
        narrowed = (x - mean)
        narrowed *= inv
        narrowed = (narrowed + beta).astype(np.float32)
        exact = ((x - mean) * inv + beta).astype(np.float32)
        assert narrowed.tobytes() != exact.tobytes()  # the hazard is real here
        _assert_bits_equal(batch_norm(x, mean, var, gamma, beta, 1e-3), exact)

    @pytest.mark.parametrize("k, stride, padding", [(3, 1, "same"), (3, 2, "same"),
                                                    (1, 1, "valid"), (1, 2, "same")])
    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    def test_conv_epilogue_matches_out_of_place(self, rng, k, stride, padding, param_dtype):
        from repro.kernels import conv_output_shape, im2col, prepack_conv2d
        from repro.kernels.conv import conv2d_prepacked

        x = rng.normal(size=(2, 7, 7, 4)).astype(np.float32)
        w = rng.normal(0, 0.3, (k, k, 4, 5)).astype(param_dtype)
        b = rng.normal(0, 0.3, 5).astype(param_dtype)
        pack = prepack_conv2d(w, b)
        out_h, out_w, ph, pw = conv_output_shape(7, 7, k, k, stride, padding)
        xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
        cols = im2col(xp, k, k, stride, out_h, out_w).reshape(-1, k * k * 4)
        want = ((cols @ pack.w_mat).reshape(2, out_h, out_w, 5) + pack.bias).astype(np.float32)
        _assert_bits_equal(conv2d_prepacked(x, pack, stride=stride, padding=padding), want)
        buf = np.empty_like(want)
        assert conv2d_prepacked(x, pack, stride=stride, padding=padding, out=buf) is buf
        _assert_bits_equal(buf, want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    def test_depthwise_epilogue_matches_out_of_place(self, rng, stride, param_dtype):
        from repro.kernels import conv_output_shape, prepack_depthwise_conv2d
        from repro.kernels.conv import _dw_patches, depthwise_conv2d_prepacked

        x = rng.normal(size=(2, 7, 7, 6)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 6, 1)).astype(param_dtype)
        b = rng.normal(0, 0.3, 6).astype(param_dtype)
        pack = prepack_depthwise_conv2d(w, b)
        out_h, out_w, ph, pw = conv_output_shape(7, 7, 3, 3, stride, "same")
        xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
        patches = _dw_patches(xp, 3, 3, stride, out_h, out_w)
        want = (np.einsum("nhwklc,klc->nhwc", patches, pack.w) + pack.bias).astype(np.float32)
        _assert_bits_equal(depthwise_conv2d_prepacked(x, pack, stride=stride), want)
