"""Fully-connected layer with partial-sum introspection."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import gemm_operand
from repro.nn.module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """``y = x @ W.T + b`` over inputs of shape (N, in_features).

    This is an *extraction unit*: Ptolemy decomposes each output neuron
    ``y_j`` into its partial sums ``W[j, i] * x_i`` (the bias is not a
    partial sum, matching the paper's formulation in Fig. 3).

    In eval mode the product is ``W @ x.T`` over an operand from
    :func:`~repro.nn.functional.gemm_operand`, whose width follows the
    convolution's batch-invariant rule (a multiple of 16, and
    M*N*K > 10**6 when K > 384): each sample's row gets the same bytes
    at every batch size, whatever the memory order of ``x``.  Training
    keeps the plain ``x @ W.T``; like BatchNorm, train and eval modes
    may round differently.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng or np.random.default_rng()
        bound = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, bound, size=(out_features, in_features)), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features

    # -- execution ----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        self._cache = {"x": x}
        if self.training:
            out = x @ self.weight.data.T
        else:
            batch = x.shape[0]
            operand = gemm_operand(self.weight.data, batch)
            operand[:, :batch] = x.T
            out = (self.weight.data @ operand)[:, :batch].T.copy()
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache["x"]
        self.weight.grad += grad_out.T @ x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data

    # -- shape metadata -------------------------------------------------
    @property
    def input_feature_size(self) -> int:
        return self.in_features

    @property
    def output_feature_size(self) -> int:
        return self.out_features

    # -- Ptolemy introspection protocol ----------------------------------
    def receptive_field(self, out_pos: int) -> np.ndarray:
        """Flat input positions feeding output neuron ``out_pos``.

        For a dense layer every input feeds every output.
        """
        if not 0 <= out_pos < self.out_features:
            raise IndexError(f"output position {out_pos} out of range")
        return np.arange(self.in_features)

    def partial_sums(self, out_pos: int, sample: int = 0) -> np.ndarray:
        """Partial sums ``W[out_pos, i] * x_i`` for the cached sample."""
        x = self._cache["x"]
        return self.weight.data[out_pos] * x[sample]

    def nominal_rf_size(self) -> int:
        """Receptive-field size used for hardware cost modelling."""
        return self.in_features

    def mac_count(self) -> int:
        """MACs for one sample (drives the accelerator timing model)."""
        return self.in_features * self.out_features

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"
