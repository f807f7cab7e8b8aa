"""Pooling and spatial resampling kernels (NHWC layout)."""

from __future__ import annotations

import numpy as np

from .conv import conv_output_shape, im2col, pad_input

__all__ = [
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool",
    "resize_bilinear",
    "resize_nearest",
]


def _pool_window_view(x: np.ndarray, k: int, stride: int, padding: str, pad_value: float):
    """Strided (N, out_h, out_w, k, k, C) window view over the padded input.

    No patch materialization: reductions that are order-insensitive (max)
    run directly on the view instead of forcing the contiguous copy that
    ``im2col(...).reshape`` implies.
    """
    n, in_h, in_w, c = x.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, k, k, stride, padding)
    xp = pad_input(np.ascontiguousarray(x, dtype=np.float32), pads_h, pads_w, value=pad_value)
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, out_h, out_w, k, k, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )


def _pool_patches(x: np.ndarray, k: int, stride: int, padding: str, pad_value: float):
    n, in_h, in_w, c = x.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, k, k, stride, padding)
    xp = pad_input(np.ascontiguousarray(x, dtype=np.float32), pads_h, pads_w, value=pad_value)
    cols = im2col(xp, k, k, stride, out_h, out_w)
    return cols.reshape(n, out_h, out_w, k * k, c)


def avg_pool2d(x: np.ndarray, k: int, stride: int | None = None, padding: str = "valid") -> np.ndarray:
    # mean keeps the materialized-patch path: its summation order (and hence
    # float rounding) must stay identical to the historical im2col layout
    stride = stride or k
    patches = _pool_patches(x, k, stride, padding, 0.0)
    return patches.mean(axis=3).astype(np.float32)


def max_pool2d(x: np.ndarray, k: int, stride: int | None = None, padding: str = "valid") -> np.ndarray:
    stride = stride or k
    view = _pool_window_view(x, k, stride, padding, -np.inf)
    return view.max(axis=(3, 4)).astype(np.float32)


def global_avg_pool(x: np.ndarray, keepdims: bool = True) -> np.ndarray:
    out = x.mean(axis=(1, 2), keepdims=keepdims)
    return out.astype(np.float32)


# float32 output elements per resize block: keeps a block's temporaries
# (input rows, the x-interpolated rows, both y taps) resident in cache
_RESIZE_BLOCK_ELEMS = 1 << 16


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int, align_corners: bool = False) -> np.ndarray:
    """Bilinear resize matching TF's half-pixel-centers convention.

    Separable: every input row is interpolated along x once, then output rows
    blend two of those along y. Each output element sees exactly the float32
    sequence ``(a*(1-wx) + b*wx)*(1-wy) + (c*(1-wx) + d*wx)*wy`` of the
    direct four-tap form, so the result is bit-identical to it. The x taps
    gather from rows flattened to (W*C,), which avoids a slow fancy index
    over the short channel axis; samples are processed in blocks written
    into one preallocated output.
    """
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
    wy = (ys - y0).astype(np.float32)[None, :, None]
    wx = np.repeat((xs - x0).astype(np.float32), c)
    wy_rest, wx_rest = 1 - wy, 1 - wx
    # flat (W*C) offsets of each output column's left/right input pixel
    col0 = (x0[:, None] * c + np.arange(c)).ravel()
    col1 = (x1[:, None] * c + np.arange(c)).ravel()
    out = np.empty((n, out_h, out_w, c), dtype=np.float32)
    flat_out = out.reshape(n, out_h, out_w * c)
    block = max(1, _RESIZE_BLOCK_ELEMS // max(1, out_h * out_w * c))
    for s in range(0, n, block):
        xb = np.asarray(x[s : s + block], dtype=np.float32)
        xb = xb.reshape(len(xb), in_h, in_w * c)
        rows = np.take(xb, col0, axis=2)
        rows *= wx_rest
        right = np.take(xb, col1, axis=2)
        right *= wx
        rows += right
        top = np.take(rows, y0, axis=1)
        top *= wy_rest
        bottom = np.take(rows, y1, axis=1)
        bottom *= wy
        np.add(top, bottom, out=flat_out[s : s + block])
    return out


def resize_nearest(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    n, in_h, in_w, c = x.shape
    ys = np.minimum((np.arange(out_h) * in_h // out_h), in_h - 1)
    xs = np.minimum((np.arange(out_w) * in_w // out_w), in_w - 1)
    return np.ascontiguousarray(x[:, ys][:, :, xs])
