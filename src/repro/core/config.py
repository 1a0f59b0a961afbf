"""Algorithmic knobs of the Ptolemy detection framework (Sec. III-C).

Three knobs control how activation paths are extracted:

* **Extraction direction** — backward (from the predicted class) or
  forward (per-layer, overlappable with inference).  Directions may not
  be mixed within one network (Sec. III-D).
* **Thresholding mechanism** — cumulative (sort partial sums, take the
  minimal set reaching ``theta`` of the neuron value) or absolute
  (compare against ``phi``).  Selectable per layer.
* **Selective extraction** — skip layers entirely: a termination layer
  for backward extraction ("early-termination") or a start layer for
  forward extraction ("late-start").

The four named variants evaluated in the paper (Sec. VI-B) are exposed
as constructors: :meth:`ExtractionConfig.bwcu`, ``bwab``, ``fwab`` and
``hybrid``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

__all__ = [
    "Direction",
    "Thresholding",
    "LayerSpec",
    "ExtractionConfig",
]


class Direction(enum.Enum):
    """Which way important neurons are identified across layers."""

    BACKWARD = "backward"
    FORWARD = "forward"


class Thresholding(enum.Enum):
    """How important neurons are selected within a layer."""

    CUMULATIVE = "cumulative"
    ABSOLUTE = "absolute"


@dataclass(frozen=True)
class LayerSpec:
    """Extraction settings for one extraction unit (conv/linear layer).

    ``threshold`` is ``theta`` for cumulative mode (a coverage fraction
    in [0, 1]) and ``phi`` for absolute mode (a raw partial-sum or
    activation threshold, usually produced by phi calibration).
    """

    mechanism: Thresholding
    threshold: float
    extract: bool = True

    def __post_init__(self):
        if self.mechanism is Thresholding.CUMULATIVE and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"cumulative threshold theta must be in [0, 1], got {self.threshold}"
            )


@dataclass
class ExtractionConfig:
    """A complete per-network extraction recipe.

    ``layers[i]`` configures extraction unit ``i`` (0-based, topological
    order over the network's conv/linear layers).
    """

    direction: Direction
    layers: List[LayerSpec]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("ExtractionConfig needs at least one layer spec")

    # -- constructors for the paper's variants ---------------------------
    @classmethod
    def bwcu(cls, num_layers: int, theta: float = 0.5,
             termination_layer: int = 1) -> "ExtractionConfig":
        """Backward extraction with cumulative thresholds (BwCu).

        ``termination_layer`` follows the paper's 1-based indexing
        (Fig. 16): extraction covers layers ``termination_layer .. L``;
        1 extracts everything, ``L`` extracts only the last layer.
        """
        return cls(
            Direction.BACKWARD,
            _selective(num_layers, Thresholding.CUMULATIVE, theta,
                       first_extracted=termination_layer),
        )

    @classmethod
    def bwab(cls, num_layers: int, phi: float = 0.0,
             termination_layer: int = 1) -> "ExtractionConfig":
        """Backward extraction with absolute thresholds (BwAb)."""
        return cls(
            Direction.BACKWARD,
            _selective(num_layers, Thresholding.ABSOLUTE, phi,
                       first_extracted=termination_layer),
        )

    @classmethod
    def fwab(cls, num_layers: int, phi: float = 0.0,
             start_layer: int = 1) -> "ExtractionConfig":
        """Forward extraction with absolute thresholds (FwAb).

        ``start_layer`` is 1-based (Fig. 17): extraction covers layers
        ``start_layer .. L`` ("late-start").
        """
        return cls(
            Direction.FORWARD,
            _selective(num_layers, Thresholding.ABSOLUTE, phi,
                       first_extracted=start_layer),
        )

    @classmethod
    def fwcu(cls, num_layers: int, theta: float = 0.5,
             start_layer: int = 1) -> "ExtractionConfig":
        """Forward extraction with cumulative thresholds."""
        return cls(
            Direction.FORWARD,
            _selective(num_layers, Thresholding.CUMULATIVE, theta,
                       first_extracted=start_layer),
        )

    @classmethod
    def hybrid(cls, num_layers: int, theta: float = 0.5,
               phi: float = 0.0) -> "ExtractionConfig":
        """The paper's Hybrid variant: BwAb on the first half of the
        network, BwCu on the rest (Sec. VI-B)."""
        half = num_layers // 2
        layers = [
            LayerSpec(Thresholding.ABSOLUTE, phi)
            if i < half
            else LayerSpec(Thresholding.CUMULATIVE, theta)
            for i in range(num_layers)
        ]
        return cls(Direction.BACKWARD, layers)

    # -- helpers ----------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def extracted_indices(self) -> List[int]:
        """0-based indices of the units that actually extract."""
        return [i for i, spec in enumerate(self.layers) if spec.extract]

    def with_phi(self, phi_per_layer: Dict[int, float]) -> "ExtractionConfig":
        """Return a copy with absolute thresholds overridden per layer
        (used by phi calibration)."""
        layers = []
        for i, spec in enumerate(self.layers):
            if spec.mechanism is Thresholding.ABSOLUTE and i in phi_per_layer:
                layers.append(
                    LayerSpec(spec.mechanism, phi_per_layer[i], spec.extract)
                )
            else:
                layers.append(spec)
        return ExtractionConfig(self.direction, layers)

    def describe(self) -> str:
        """One-line human-readable summary."""
        extracted = self.extracted_indices()
        mechanisms = {self.layers[i].mechanism.value for i in extracted}
        return (
            f"{self.direction.value}/{'+'.join(sorted(mechanisms))} "
            f"layers {min(extracted) + 1}..{max(extracted) + 1} of {self.num_layers}"
        )


def _selective(num_layers: int, mechanism: Thresholding, threshold: float,
               first_extracted: int) -> List[LayerSpec]:
    """Specs where 1-based layers ``first_extracted .. num_layers`` extract."""
    if not 1 <= first_extracted <= num_layers:
        raise ValueError(
            f"first extracted layer must be in 1..{num_layers}, "
            f"got {first_extracted}"
        )
    return [
        LayerSpec(mechanism, threshold, extract=(i + 1) >= first_extracted)
        for i in range(num_layers)
    ]
