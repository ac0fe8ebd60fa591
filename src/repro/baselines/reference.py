"""Numpy golden models with hardware-exact integer semantics.

All kernels use wrap-around two's-complement arithmetic in the output
element width (accumulating exactly, then truncating — congruent mod 2^n
to the per-instruction wrapping the VPU datapath performs).  These are
the correctness oracles for both the ARCANE kernels and the ISS baseline
kernels.
"""

from __future__ import annotations

import numpy as np

N_CHANNELS = 3


def _wrap_to(dtype: np.dtype, values: np.ndarray) -> np.ndarray:
    """Truncate an exact (int64) result to the element width, wrapping."""
    return values.astype(np.int64).astype(dtype)


def ref_gemm(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, alpha: int = 1, beta: int = 0
) -> np.ndarray:
    """D = alpha * (A @ B) + beta * C in the dtype of the operands."""
    dtype = a.dtype
    exact = alpha * (a.astype(np.int64) @ b.astype(np.int64)) + beta * c.astype(np.int64)
    return _wrap_to(dtype, exact)


def ref_leaky_relu(x: np.ndarray, alpha: int) -> np.ndarray:
    """max(x, 0) + (min(x, 0) >> alpha), arithmetic shift."""
    positive = np.maximum(x, 0)
    negative = np.minimum(x.astype(np.int64), 0) >> alpha
    return _wrap_to(x.dtype, positive.astype(np.int64) + negative)


def ref_maxpool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """2D max pooling, floor semantics, no padding."""
    rows, cols = x.shape
    out_rows = (rows - window) // stride + 1
    out_cols = (cols - window) // stride + 1
    patches = np.lib.stride_tricks.sliding_window_view(x, (window, window))
    return patches[: out_rows * stride : stride, : out_cols * stride : stride].max(axis=(2, 3))


def ref_conv2d(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """'Valid' cross-correlation in the element dtype (wrapping)."""
    k = f.shape[0]
    if f.shape[0] != f.shape[1]:
        raise ValueError("filter must be square")
    out_rows = x.shape[0] - k + 1
    out_cols = x.shape[1] - k + 1
    x64 = x.astype(np.int64)
    f64 = f.astype(np.int64)
    out = np.zeros((out_rows, out_cols), dtype=np.int64)
    for dr in range(k):
        for dc in range(k):
            out += f64[dr, dc] * x64[dr : dr + out_rows, dc : dc + out_cols]
    return _wrap_to(x.dtype, out)


def ref_conv_layer(x_stacked: np.ndarray, f_stacked: np.ndarray) -> np.ndarray:
    """The xmk4 golden model: 3-channel conv + ReLU + 2x2/stride-2 max pool.

    ``x_stacked`` is (3H, W) with channel planes stacked row-wise;
    ``f_stacked`` is (3K, K).
    """
    if x_stacked.shape[0] % N_CHANNELS or f_stacked.shape[0] % N_CHANNELS:
        raise ValueError("inputs must stack three channel planes row-wise")
    height = x_stacked.shape[0] // N_CHANNELS
    k = f_stacked.shape[0] // N_CHANNELS
    out_rows = height - k + 1
    out_cols = x_stacked.shape[1] - k + 1
    acc = np.zeros((out_rows, out_cols), dtype=np.int64)
    for channel in range(N_CHANNELS):
        plane = x_stacked[channel * height : (channel + 1) * height].astype(np.int64)
        kernel = f_stacked[channel * k : (channel + 1) * k].astype(np.int64)
        for dr in range(k):
            for dc in range(k):
                acc += kernel[dr, dc] * plane[dr : dr + out_rows, dc : dc + out_cols]
    conv = _wrap_to(x_stacked.dtype, acc)
    pooled = ref_maxpool(conv, 2, 2)
    return np.maximum(pooled, 0)
