"""Low-level numerical helpers shared by the layer implementations.

Average pooling unfolds its windows with :func:`im2col` and folds its
column gradients back with :func:`col2im`; the convolution builds its
GEMM operands directly (see :mod:`repro.nn.layers.conv`) and folds its
gradients back with :func:`col2im` too.  Max pooling uses neither: it
works on strided slices of its input (see :mod:`repro.nn.layers.pool`).

Every forward GEMM (the convolution, and ``Linear`` in eval mode)
multiplies its weight by an operand from :func:`gemm_operand`, whose
width follows one rule, :func:`gemm_width`, so that each output column
gets the same bytes at every batch size.  That is what lets the
batched detection engine promise the scores of per-sample detection.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col_indices",
    "im2col",
    "col2im",
    "conv_output_size",
    "GEMM_COLUMN_ALIGN",
    "gemm_width",
    "gemm_operand",
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


#: A forward GEMM's width is zero-padded to a multiple of this.  On the
#: OpenBLAS 0.3.31 SkylakeX build numpy ships, a product whose width is
#: not a multiple of 16 runs its last columns through narrow tail
#: kernels that round differently (measured over K = 18..576), so the
#: same column got other bytes at another batch size.
GEMM_COLUMN_ALIGN = 16

#: Products with M*N*K up to this may run OpenBLAS's DGEMM small-matrix
#: kernel; no larger product does.
SMALL_GEMM_MAX_MNK = 1_000_000

#: Up to this K the small-matrix kernel reduces K in the order of the
#: blocked kernel that larger products run; beyond it, in another.
SMALL_GEMM_MAX_SAME_K = 384


def _round_up(n: int) -> int:
    return -(-n // GEMM_COLUMN_ALIGN) * GEMM_COLUMN_ALIGN


def gemm_width(rows: int, depth: int, n_cols: int) -> int:
    """Padded width of a batch-invariant (rows, depth) @ (depth, n_cols)
    product: ``n_cols`` rounded up to a multiple of GEMM_COLUMN_ALIGN
    and, when ``depth`` > SMALL_GEMM_MAX_SAME_K, to the smallest such
    multiple that keeps the product out of the small-matrix kernel
    (M*N*K > SMALL_GEMM_MAX_MNK).  Every real column then has the bytes
    it has in a wide product, whatever ``n_cols`` is.

    Both bounds are measured on the OpenBLAS build above: over K in
    {216, 288, 384, 400, 576, 864, 1152}, M in {4, 8, ..., 128} and the
    widths 16, 32, ..., 1024, a narrow product gave other column bytes
    than a 1024-wide one in 181 of 2688 products, every one with
    K >= 400 and M*N*K <= 998,400.  They are a property of the BLAS
    build, so tests/test_kernel_bit_identity.py and the model-zoo test
    in tests/test_batch_equivalence.py check them on every machine.
    """
    width = _round_up(n_cols)
    if (depth > SMALL_GEMM_MAX_SAME_K
            and rows * depth * width <= SMALL_GEMM_MAX_MNK):
        width = _round_up(SMALL_GEMM_MAX_MNK // (rows * depth) + 1)
    return width


def gemm_operand(weight: np.ndarray, n_cols: int) -> np.ndarray:
    """The right-hand operand buffer of ``weight @ operand`` for
    ``n_cols`` real columns: C-contiguous (depth, :func:`gemm_width`)
    doubles whose padding columns are zero.  The caller writes the real
    columns into ``operand[:, :n_cols]`` and keeps
    ``(weight @ operand)[:, :n_cols]``."""
    rows, depth = weight.shape
    operand = np.empty((depth, gemm_width(rows, depth, n_cols)))
    operand[:, n_cols:] = 0.0
    return operand


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
