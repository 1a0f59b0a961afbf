"""Named evaluation scenarios (the paper's two main workloads plus the
large-model suite of Sec. VII-H), with deterministic construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.data import SyntheticDataset, make_cifar_like, make_imagenet_like
from repro.nn import (
    TrainConfig,
    build_mini_alexnet,
    build_mini_densenet,
    build_mini_inception,
    build_mini_resnet18,
    build_mini_resnet50,
    build_mini_vgg,
)

__all__ = ["Scenario", "SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    """A (model, dataset, training recipe) bundle."""

    name: str
    model_builder: Callable
    dataset_builder: Callable
    num_classes: int = 6
    train_per_class: int = 40
    test_per_class: int = 20
    epochs: int = 10
    seed: int = 0

    def build_dataset(self) -> SyntheticDataset:
        return self.dataset_builder(
            num_classes=self.num_classes,
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            seed=self.seed,
        )

    def build_model(self):
        return self.model_builder(num_classes=self.num_classes, seed=self.seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, seed=self.seed)


#: The paper's workloads: AlexNet@ImageNet and ResNet18@CIFAR (Sec. VI-A),
#: ResNet18@CIFAR-10-like for the DeepFense comparison (Sec. VII-D), and
#: the large-model suite (Sec. VII-H).
SCENARIOS: Dict[str, Scenario] = {
    "alexnet_imagenet": Scenario(
        "alexnet_imagenet", build_mini_alexnet, make_imagenet_like
    ),
    "resnet18_cifar": Scenario(
        "resnet18_cifar", build_mini_resnet18, make_cifar_like, epochs=8
    ),
    "resnet50_imagenet": Scenario(
        "resnet50_imagenet", build_mini_resnet50, make_imagenet_like, epochs=12
    ),
    "vgg_imagenet": Scenario(
        "vgg_imagenet", build_mini_vgg, make_imagenet_like, epochs=18
    ),
    "densenet_imagenet": Scenario(
        "densenet_imagenet", build_mini_densenet, make_imagenet_like, epochs=18
    ),
    "inception_imagenet": Scenario(
        "inception_imagenet", build_mini_inception, make_imagenet_like, epochs=18
    ),
}


def shrink_for_smoke(
    train_per_class: int = 10,
    test_per_class: int = 8,
    epochs: int = 2,
) -> None:
    """Shrink every scenario in place to tiny CI-smoke sizes.

    Used by ``benchmarks/conftest.py --smoke``, ``--smoke`` CLI runs
    and ``scripts/suite_gate.py``, so benchmark plumbing can run
    end-to-end in minutes.  Idempotent; only ever shrinks, never grows.
    """
    import dataclasses

    for name, scenario in list(SCENARIOS.items()):
        SCENARIOS[name] = dataclasses.replace(
            scenario,
            train_per_class=min(scenario.train_per_class, train_per_class),
            test_per_class=min(scenario.test_per_class, test_per_class),
            epochs=min(scenario.epochs, epochs),
        )
