"""2-D convolution with partial-sum introspection.

The forward pass unfolds the padded input into the GEMM operand in a
single copy (a strided window view made contiguous); the backward pass
reuses that cached operand and folds the column gradients back with
col2im, so both reduce to dense GEMMs.  The Ptolemy introspection path
recomputes the partial sums of a single output element on demand from
the cached input, which is exactly the ``csps`` recompute strategy the
paper's compiler emits (Sec. IV-B).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.functional import col2im, conv_output_size
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
        k, stride, pad = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(height, k, stride, pad)
        out_w = conv_output_size(width, k, stride, pad)
        if pad > 0:
            x_padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            x_padded = x
        # The GEMM operand in one copy: a strided window view of the
        # padded input, transposed to (C, kh, kw, N, oh, ow) and made
        # contiguous as the (f, N*p) matrix, with f = C*kh*kw and
        # p = oh*ow.
        windows = sliding_window_view(x_padded, (k, k), axis=(2, 3))[
            :, :, ::stride, ::stride
        ]
        flat = np.ascontiguousarray(
            windows.transpose(1, 4, 5, 0, 2, 3)
        ).reshape(-1, batch * out_h * out_w)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # One flattened (o,f) @ (f, N*p) GEMM instead of an einsum: BLAS
        # beats c_einsum ~2x at these shapes.  Cross-batch-size
        # bit-identity is an empirical property of the BLAS build (GEMM
        # k-reduction blocking does not depend on the column count on
        # OpenBLAS/MKL; verified bitwise for N in 1..256 here) — it is
        # not guaranteed by the standard, so the batch-equivalence tests
        # and the perf gate's cross-batch score check enforce it on
        # every machine rather than trusting this comment.
        out = (
            (w_mat @ flat)
            .reshape(self.out_channels, batch, out_h * out_w)
            .transpose(1, 0, 2)
        )
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        out = out.reshape(batch, self.out_channels, out_h, out_w)
        self._cache = {"x": x, "flat": flat}
        self._in_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, cols_flat = self._cache["x"], self._cache["flat"]
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
