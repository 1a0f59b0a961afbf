"""2-D convolution with partial-sum introspection.

Activations are logical ``(N, C, H, W)`` arrays.  The forward pass
returns a view of a contiguous batch-minor ``(C, H, W, N)`` array, and
it reads its input fastest when the input is one too: it stages the
input in a zero-padded ``(C, Hp, Wp, N)`` buffer and builds the GEMM
operand from it in k*k slab copies whose rows are ``ow * N`` doubles
long, into a buffer from :func:`~repro.nn.functional.gemm_operand`.
Its width follows the one batch-invariant GEMM rule: a multiple of 16
columns, and for K = C*k*k > 384 wide enough that M*N*K > 10**6, out
of OpenBLAS's small-matrix kernel (mini_vgg's ``Conv2d(64, 64)`` on a
2x2 map pads one sample's 4 columns to 32).  Only the input is cached; the backward pass rebuilds the
``(N, oh, ow)``-ordered operand from it and folds the column gradients
back with col2im, so inference holds no operand between batches.  The
Ptolemy introspection path recomputes the partial sums of a single
output element on demand from the cached input, which is exactly the
``csps`` recompute strategy the paper's compiler emits (Sec. IV-B).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.functional import col2im, conv_output_size, gemm_operand
from repro.nn.module import Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Convolution over inputs of shape (N, C, H, W)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid conv geometry")
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        bound = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(
                0.0, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
            ),
            name="weight",
        )
        self.bias = (
            Parameter(np.zeros(out_channels), name="bias") if bias else None
        )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._in_shape: Tuple[int, ...] | None = None
        self._out_hw: Tuple[int, int] | None = None

    # -- execution ----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        batch, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride,
                                 self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride,
                                 self.padding)
        n_cols = out_h * out_w * batch
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # One (o, f) @ (f, oh*ow*N) GEMM over a batch-invariant operand
        # (see repro.nn.functional.gemm_width)
        cols = self._slab_operand(x, gemm_operand(w_mat, n_cols), out_h,
                                  out_w)
        out = (w_mat @ cols)[:, :n_cols]
        if self.bias is not None:
            out += self.bias.data[:, None]
        # copies only when the width was padded
        out = np.ascontiguousarray(out).reshape(
            self.out_channels, out_h, out_w, batch
        )
        self._cache = {"x": x}
        self._in_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out.transpose(3, 0, 1, 2)

    def _slab_operand(self, x: np.ndarray, cols: np.ndarray, out_h: int,
                      out_w: int) -> np.ndarray:
        """Write the (C*k*k, oh*ow*N) GEMM operand of ``x`` into the
        first columns of ``cols`` and return ``cols``: one strided slab
        copy per kernel offset out of the padded (C, Hp, Wp, N) staging
        buffer, each row ``ow * N`` doubles long."""
        batch, channels, height, width = x.shape
        k, stride, pad = self.kernel_size, self.stride, self.padding
        batch_minor = x.transpose(1, 2, 3, 0)
        if pad > 0:
            staging = np.zeros(
                (channels, height + 2 * pad, width + 2 * pad, batch)
            )
            staging[:, pad:pad + height, pad:pad + width] = batch_minor
        else:
            staging = batch_minor
        n_cols = out_h * out_w * batch
        slabs = cols[:, :n_cols].reshape(channels, k, k, out_h, out_w, batch)
        span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
        for ky in range(k):
            for kx in range(k):
                slabs[:, ky, kx] = staging[
                    :, ky:ky + span_h:stride, kx:kx + span_w:stride
                ]
        return cols

    def _weight_grad_operand(self, x: np.ndarray) -> np.ndarray:
        """The (f, N*p) operand of the weight gradient, with f = C*kh*kw
        and p = oh*ow, in one copy: a strided window view of the padded
        input, transposed to (C, kh, kw, N, oh, ow) and made
        contiguous."""
        batch, channels, height, width = x.shape
        k, stride, pad = self.kernel_size, self.stride, self.padding
        if pad > 0:
            padded = np.zeros(
                (batch, channels, height + 2 * pad, width + 2 * pad),
                dtype=x.dtype,
            )
            padded[:, :, pad:-pad, pad:-pad] = x
            x = padded
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[
            :, :, ::stride, ::stride
        ]
        return np.ascontiguousarray(
            windows.transpose(1, 4, 5, 0, 2, 3)
        ).reshape(channels * k * k, -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache["x"]
        cols_flat = self._weight_grad_operand(x)
        batch = grad_out.shape[0]
        grad_mat = grad_out.reshape(batch, self.out_channels, -1)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        f, n_p = cols_flat.shape
        p = n_p // batch
        grad_flat = grad_mat.transpose(1, 0, 2).reshape(self.out_channels, n_p)
        self.weight.grad += (grad_flat @ cols_flat.T).reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=(0, 2))
        grad_cols = (
            (w_mat.T @ grad_flat).reshape(f, batch, p).transpose(1, 0, 2)
        )
        return col2im(
            grad_cols,
            x.shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    # -- shape metadata -------------------------------------------------
    @property
    def input_feature_shape(self) -> Tuple[int, int, int]:
        if self._in_shape is None:
            raise RuntimeError("Conv2d.forward has not been called yet")
        return self._in_shape[1:]

    @property
    def output_feature_shape(self) -> Tuple[int, int, int]:
        if self._out_hw is None:
            raise RuntimeError("Conv2d.forward has not been called yet")
        return (self.out_channels, self._out_hw[0], self._out_hw[1])

    @property
    def input_feature_size(self) -> int:
        c, h, w = self.input_feature_shape
        return c * h * w

    @property
    def output_feature_size(self) -> int:
        c, h, w = self.output_feature_shape
        return c * h * w

    # -- Ptolemy introspection protocol ----------------------------------
    def _decompose(self, out_pos: int) -> Tuple[int, int, int]:
        c, h, w = self.output_feature_shape
        if not 0 <= out_pos < c * h * w:
            raise IndexError(f"output position {out_pos} out of range")
        c_out, rem = divmod(out_pos, h * w)
        oy, ox = divmod(rem, w)
        return c_out, oy, ox

    def _patch_coords(self, oy: int, ox: int):
        """In-bounds (channel, iy, ix, ky, kx) arrays of the receptive field."""
        _, height, width = self.input_feature_shape
        ky = np.arange(self.kernel_size)
        kx = np.arange(self.kernel_size)
        iy = oy * self.stride - self.padding + ky
        ix = ox * self.stride - self.padding + kx
        valid_y = (iy >= 0) & (iy < height)
        valid_x = (ix >= 0) & (ix < width)
        ky_grid, kx_grid = np.meshgrid(ky[valid_y], kx[valid_x], indexing="ij")
        iy_grid, ix_grid = np.meshgrid(iy[valid_y], ix[valid_x], indexing="ij")
        return ky_grid.ravel(), kx_grid.ravel(), iy_grid.ravel(), ix_grid.ravel()

    def receptive_field(self, out_pos: int) -> np.ndarray:
        """Flat input positions (within C*H*W) feeding ``out_pos``.

        Padding positions are excluded: they do not exist in the input
        feature map and contribute zero partial sums.
        """
        _, oy, ox = self._decompose(out_pos)
        _, height, width = self.input_feature_shape
        ky, kx, iy, ix = self._patch_coords(oy, ox)
        per_channel = iy * width + ix
        offsets = np.arange(self.in_channels) * (height * width)
        return (offsets[:, None] + per_channel[None, :]).ravel()

    def partial_sums(self, out_pos: int, sample: int = 0) -> np.ndarray:
        """Partial sums ``w * x`` over the receptive field of ``out_pos``,
        aligned with :meth:`receptive_field`."""
        x = self._cache["x"]
        c_out, oy, ox = self._decompose(out_pos)
        ky, kx, iy, ix = self._patch_coords(oy, ox)
        w_patch = self.weight.data[c_out][:, ky, kx]
        x_patch = x[sample][:, iy, ix]
        return (w_patch * x_patch).ravel()

    def nominal_rf_size(self) -> int:
        return self.in_channels * self.kernel_size * self.kernel_size

    def mac_count(self) -> int:
        out_c, out_h, out_w = self.output_feature_shape
        return out_c * out_h * out_w * self.nominal_rf_size()

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )
