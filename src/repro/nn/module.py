"""Module and Parameter abstractions.

The framework deliberately avoids a taped autograd: every layer knows how
to compute its own backward pass from values cached during the forward
pass.  This keeps the execution model transparent, which matters here
because Ptolemy's path extraction introspects the very same cached
values (inputs, and the argmax indices and partial sums recomputed
from them).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  A module
    is stateless between calls except for the forward cache, which the
    matching backward call (and Ptolemy's extraction machinery) consumes.
    """

    def __init__(self):
        self.training = False
        self._cache: dict = {}

    # -- execution ----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Return the gradient w.r.t. the input, accumulating parameter
        gradients as a side effect."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameter management ------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All trainable parameters, in deterministic order."""
        params: List[Parameter] = []
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state (de)serialisation ----------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for key, value in self.__dict__.items():
            if isinstance(value, Parameter):
                state[prefix + key] = value.data
            elif isinstance(value, Module):
                state.update(value.state_dict(prefix + key + "."))
        for key, value in self._buffers().items():
            state[prefix + key] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for key, value in list(self.__dict__.items()):
            if isinstance(value, Parameter):
                value.data = np.array(state[prefix + key], dtype=np.float64)
                value.grad = np.zeros_like(value.data)
            elif isinstance(value, Module):
                value.load_state_dict(state, prefix + key + ".")
        self._load_buffers(state, prefix)

    def _buffers(self) -> Dict[str, np.ndarray]:
        """Non-trainable persistent state (e.g. batch-norm statistics)."""
        return {}

    def _load_buffers(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        pass

    # -- misc -----------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
