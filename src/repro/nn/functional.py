"""Low-level numerical helpers shared by the layer implementations.

The pooling layers unfold their windows with :func:`im2col`; the
convolution builds its GEMM operand directly (see
:mod:`repro.nn.layers.conv`).  Both fold column gradients back with
:func:`col2im`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col_indices",
    "im2col",
    "col2im",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col_indices(
    in_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
):
    """Compute gather indices for im2col.

    Returns ``(k, i, j)`` index arrays, each of shape
    ``(C*kernel_h*kernel_w, out_h*out_w)``, indexing into a *padded*
    input of shape ``(N, C, H+2p, W+2p)``.
    """
    _, channels, height, width = in_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int):
    """Unfold ``x`` of shape (N, C, H, W) into columns (pooling windows).

    Returns an array of shape ``(N, C*kh*kw, out_h*out_w)``.
    """
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    k, i, j = im2col_indices(x.shape, kernel_h, kernel_w, stride, 0)
    return x[:, k, i, j]


def col2im(
    cols: np.ndarray,
    in_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlaps.

    ``cols`` has shape ``(N, C*kh*kw, out_h*out_w)``; the result has
    shape ``in_shape`` = (N, C, H, W).  This is the adjoint of
    :func:`im2col` and is used for input gradients of convolutions and
    pooling.
    """
    batch, channels, height, width = in_shape
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    out_h = conv_output_size(padded_h, kernel_h, stride, 0)
    out_w = conv_output_size(padded_w, kernel_w, stride, 0)
    x_padded = np.zeros((batch, channels, padded_h, padded_w), dtype=cols.dtype)
    cols = cols.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    # One strided add per kernel offset, in ascending (ky, kx) order:
    # every padded pixel receives its contributions in the same order,
    # starting from 0.0, as an unbuffered scatter-add over the columns.
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            x_padded[
                :,
                :,
                ky:ky + stride * out_h:stride,
                kx:kx + stride * out_w:stride,
            ] += cols[:, :, ky, kx]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels into shape (N, num_classes)."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
