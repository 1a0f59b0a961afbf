"""Batch normalisation (train + inference), transparent to extraction."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm2d", "BatchNorm1d"]


class _BatchNorm(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _buffers(self) -> Dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def _load_buffers(self, state, prefix: str) -> None:
        self.running_mean = np.array(state[prefix + "running_mean"])
        self.running_var = np.array(state[prefix + "running_var"])

    def _reduce_axes(self, x: np.ndarray):
        raise NotImplementedError

    def _shape_for(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _batch_stats(self, x: np.ndarray, axes):
        """Per-feature mean and (biased) variance of a training batch."""
        return x.mean(axis=axes), x.var(axis=axes)

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._reduce_axes(x)
        if self.training:
            mean, var = self._batch_stats(x, axes)
            count = x.size / self.num_features
            unbiased = var * count / max(count - 1, 1)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * unbiased
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._shape_for(x, mean)) * self._shape_for(x, inv_std)
        self._cache = {"x_hat": x_hat, "inv_std": inv_std, "axes": axes}
        return self._shape_for(x, self.gamma.data) * x_hat + self._shape_for(
            x, self.beta.data
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        axes = self._cache["axes"]
        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        gamma = self._shape_for(grad_out, self.gamma.data)
        if not self.training:
            return grad_out * gamma * self._shape_for(grad_out, inv_std)
        count = grad_out.size / self.num_features
        g = grad_out * gamma
        mean_g = self._shape_for(grad_out, g.mean(axis=axes))
        mean_gx = self._shape_for(grad_out, (g * x_hat).mean(axis=axes) * count / count)
        return (
            (g - mean_g - x_hat * mean_gx)
            * self._shape_for(grad_out, inv_std)
        )

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        """Element-wise affine transform: positions pass through."""
        return positions


class BatchNorm2d(_BatchNorm):
    """Per-channel normalisation of (N, C, H, W) inputs."""

    def _reduce_axes(self, x: np.ndarray):
        return (0, 2, 3)

    def _shape_for(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v[None, :, None, None]

    def _batch_stats(self, x: np.ndarray, axes):
        # Each channel's (N, H, W) block is reduced as one contiguous
        # row, whatever the memory order of x (a conv output is
        # batch-minor): the sums then do not depend on how the layer
        # before laid out its output.
        rows = x.transpose(1, 0, 2, 3).reshape(self.num_features, -1)
        return rows.mean(axis=1), rows.var(axis=1)


class BatchNorm1d(_BatchNorm):
    """Per-feature normalisation of (N, D) inputs."""

    def _reduce_axes(self, x: np.ndarray):
        return (0,)

    def _shape_for(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v[None, :]
