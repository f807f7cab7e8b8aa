"""Normalization kernels.

Batch norm exists in the IR so the converter can demonstrate folding it into
the preceding convolution (the standard TFLite export step); layer norm is the
MobileBERT building block (the paper's MobileBERT uses the no-norm/LayerNorm
variants — we implement standard LayerNorm).
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_norm", "layer_norm", "fold_batch_norm"]


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Inference-time batch norm over the channel (last) axis.

    Evaluates ``((x - mean) * inv + beta)`` with NumPy's usual promotion at
    each step, but writes each step into the previous temporary whenever
    that keeps the promoted dtype (a float64 parameter still widens the
    intermediate instead of being narrowed into a float32 buffer).
    """
    inv = gamma / np.sqrt(variance + eps)
    y = _inplace(np.multiply, x - mean, inv)
    y = _inplace(np.add, y, beta)
    return y.astype(np.float32, copy=False)


def _inplace(ufunc: np.ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)``, into ``a`` when the promoted dtype is ``a``'s own."""
    return ufunc(a, b, out=a if np.result_type(a, b) == a.dtype else None)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Layer norm over the last axis."""
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)


def fold_batch_norm(
    weight: np.ndarray,
    bias: np.ndarray | None,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-3,
    *,
    depthwise: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold BN statistics into conv weights/bias.

    ``weight``: (kh,kw,Cin,Cout), or (kh,kw,C,1) for depthwise where BN runs
    over C. Returns the folded (weight, bias).
    """
    inv = (gamma / np.sqrt(variance + eps)).astype(np.float32)
    if depthwise:
        w = weight * inv[None, None, :, None]
    else:
        w = weight * inv[None, None, None, :]
    b = bias if bias is not None else np.zeros_like(mean, dtype=np.float32)
    b = (b - mean) * inv + beta
    return w.astype(np.float32), b.astype(np.float32)
