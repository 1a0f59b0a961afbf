"""Pooling layers with positional importance propagation.

Max pooling computes its output as a running maximum over the k*k
strided slices of the input and caches only the input; the output keeps
the input's memory order, so a batch-minor (C, H, W, N) conv activation
(see :mod:`repro.nn.layers.conv`) reaches the next conv batch-minor.
The argmax of every window, which backward importance propagation
needs to map an important pooled position to the exact input element
that produced it, is computed on first read and then kept for the
batch, so inference never pays for it.  Average pooling maps an output
position to its whole window (every element contributed).  Average
and global pooling reduce in an order that does not depend on the
input's memory order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_size, im2col
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class _Pool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._in_shape: Tuple[int, ...] | None = None
        self._out_hw: Tuple[int, int] | None = None

    def _window_cols(self, x: np.ndarray) -> np.ndarray:
        """Per-channel windows: shape (N*C, k*k, out_h*out_w)."""
        batch, channels, height, width = x.shape
        flat = x.reshape(batch * channels, 1, height, width)
        return im2col(flat, self.kernel_size, self.kernel_size, self.stride, 0)

    def _setup_shapes(self, x: np.ndarray) -> Tuple[int, int]:
        _, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, 0)
        out_w = conv_output_size(width, self.kernel_size, self.stride, 0)
        self._in_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out_h, out_w

    def _window_slices(self, x: np.ndarray):
        """The k*k strided (N, C, out_h, out_w) views of ``x``, one per
        window offset, in ascending (ky, kx) order."""
        k, stride = self.kernel_size, self.stride
        out_h, out_w = self._out_hw
        span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
        return [
            x[:, :, ky:ky + span_h:stride, kx:kx + span_w:stride]
            for ky in range(k)
            for kx in range(k)
        ]

    def _decompose(self, positions: np.ndarray):
        out_h, out_w = self._out_hw
        c, rem = np.divmod(positions, out_h * out_w)
        oy, ox = np.divmod(rem, out_w)
        return c, oy, ox


class MaxPool2d(_Pool2d):
    """Max pooling; the per-window argmax, read by ``backward`` and
    ``propagate_back`` to route through the selected element only, is
    computed on first read."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._setup_shapes(x)
        windows = self._window_slices(x)
        # np.maximum(a, b) returns b when a == b, so the running maximum
        # as second operand keeps the first of tied values (+0.0 and -0.0
        # tie), as argmax does ...  The output keeps the input's memory
        # order, so a batch-minor conv activation stays batch-minor.
        out = windows[0].copy(order="K")
        for window in windows[1:]:
            np.maximum(window, out, out=out)
        # ... but of two NaNs it returns a: write back the first NaN of
        # each window that has one
        if np.isnan(out).any():
            for window in reversed(windows):
                np.copyto(out, window, where=np.isnan(window))
        self._cache = {"x": x}
        return out

    def _argmax(self) -> np.ndarray:
        """Window offset ky*k + kx of each output's maximum, shaped like
        the output: the first maximum wins, and the first NaN wins over
        any number, as with ``argmax``."""
        argmax = self._cache.get("argmax")
        if argmax is not None:
            return argmax
        windows = self._window_slices(self._cache["x"])
        best = windows[0].copy(order="K")
        argmax = np.zeros_like(best, dtype=np.intp)
        for i, window in enumerate(windows[1:], start=1):
            # strict >, made NaN-aware: not (window <= best) also holds
            # where window is NaN; best == best fails once best is NaN
            take = ~(window <= best)
            take &= best == best
            argmax[take] = i
            np.maximum(window, best, out=best)
        self._cache["argmax"] = argmax
        return argmax

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        argmax = self._argmax()
        grad_out = grad_out.reshape(argmax.shape)
        grad = np.zeros(self._in_shape)
        # One strided add per window offset in ascending (ky, kx) order,
        # each input pixel starting from 0.0, as col2im folds columns
        for i, grad_window in enumerate(self._window_slices(grad)):
            grad_window += np.where(argmax == i, grad_out, 0.0)
        return grad

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        """Map pooled positions to the argmax element of each window."""
        if positions.size == 0:
            return positions
        _, _, height, width = self._in_shape
        c, oy, ox = self._decompose(positions)
        ky, kx = np.divmod(self._argmax()[sample, c, oy, ox], self.kernel_size)
        iy = oy * self.stride + ky
        ix = ox * self.stride + kx
        return c * height * width + iy * width + ix


class AvgPool2d(_Pool2d):
    """Average pooling; importance propagates to the whole window."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, _, _ = x.shape
        out_h, out_w = self._setup_shapes(x)
        cols = self._window_cols(x)
        out = cols.mean(axis=1)
        self._cache = {"x_shape": x.shape, "cols_shape": cols.shape}
        return out.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        from repro.nn.functional import col2im

        batch, channels, height, width = self._cache["x_shape"]
        window = self.kernel_size * self.kernel_size
        flat_grad = grad_out.reshape(batch * channels, 1, -1) / window
        grad_cols = np.broadcast_to(
            flat_grad, self._cache["cols_shape"]
        ).copy()
        grad = col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.kernel_size,
            self.stride,
            0,
        )
        return grad.reshape(batch, channels, height, width)

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        """Every element of the window contributed; expand to all of them."""
        if positions.size == 0:
            return positions
        _, _, height, width = self._in_shape
        c, oy, ox = self._decompose(positions)
        ky, kx = np.divmod(np.arange(self.kernel_size**2), self.kernel_size)
        iy = oy[:, None] * self.stride + ky
        ix = ox[:, None] * self.stride + kx
        return np.unique(c[:, None] * height * width + iy * width + ix)


def _maps_contiguous(x: np.ndarray) -> np.ndarray:
    """``x`` (N, C, H, W) with every H*W map contiguous in memory and N
    and C in the input's memory order: a channel-major input, such as a
    batch-minor (C, H, W, N) conv activation, becomes a view of (C, N,
    H, W) memory, any other a view of (N, C, H, W) memory, copying only
    if it must.  A reduction over the maps then rounds the same however
    the layer before laid out its output."""
    if x.strides[1] > x.strides[0]:
        return np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)
    return np.ascontiguousarray(x)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"x_shape": x.shape}
        # each map is summed as one contiguous run; the (N, C) result
        # keeps the memory order of N and C
        return _maps_contiguous(x).mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._cache["x_shape"]
        scale = 1.0 / (height * width)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, (batch, channels, height, width)
        ).copy()

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        if positions.size == 0:
            return positions
        _, _, height, width = self._cache["x_shape"]
        spatial = height * width
        offsets = np.arange(spatial)
        return np.unique(
            (positions[:, None] * spatial + offsets[None, :]).ravel()
        )
