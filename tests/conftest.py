"""Shared fixtures: small trained models and datasets, built once per
session (training is deterministic, so every test sees identical state)."""

from __future__ import annotations

import sys
from pathlib import Path

# Make the in-repo package importable from any working directory —
# pytest (and CI) must not depend on the invoker exporting PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np
import pytest
from hypothesis import settings

# The nightly soak of tests/test_runtime_lifecycle.py's state machine
# (`pytest --hypothesis-profile=nightly`); registered here because the
# hypothesis plugin loads a profile before test modules are imported.
settings.register_profile(
    "nightly", max_examples=2000, stateful_step_count=100
)

from repro.data import make_imagenet_like
from repro.nn import (
    TrainConfig,
    build_mini_alexnet,
    build_mlp,
    train_classifier,
)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """5-class synthetic dataset, ImageNet-like regime."""
    return make_imagenet_like(
        num_classes=5, train_per_class=30, test_per_class=10, seed=7
    )


@pytest.fixture(scope="session")
def trained_alexnet(small_dataset):
    """MiniAlexNet trained to (near-)perfect accuracy on the dataset."""
    model = build_mini_alexnet(num_classes=5, seed=3)
    train_classifier(
        model,
        small_dataset.x_train,
        small_dataset.y_train,
        TrainConfig(epochs=8, seed=3),
    )
    return model


def build_serving_model():
    """Worker-side model factory matching :func:`trained_alexnet` —
    module-level so the sharded service's workers can pickle it."""
    return build_mini_alexnet(num_classes=5, seed=3)


@pytest.fixture(scope="session")
def serving_detector(small_dataset, trained_alexnet):
    """A fitted FwAb detector (the serving variant), shared by the
    runtime service/server test modules so each does not re-profile."""
    from repro.attacks import FGSM
    from repro.core import ExtractionConfig, PtolemyDetector, calibrate_phi

    model = trained_alexnet
    config = calibrate_phi(
        model,
        ExtractionConfig.fwab(model.num_extraction_units()),
        small_dataset.x_train[:4],
        quantile=0.95,
    )
    detector = PtolemyDetector(model, config, n_trees=20, seed=0)
    detector.profile(
        small_dataset.x_train, small_dataset.y_train, max_per_class=8
    )
    adv = FGSM(eps=0.1).generate(
        model, small_dataset.x_train[:20], small_dataset.y_train[:20]
    ).x_adv
    detector.fit_classifier(small_dataset.x_train[20:40], adv)
    return detector


@pytest.fixture(scope="session")
def flat_dataset(small_dataset):
    """The same dataset flattened for MLP consumption."""
    return (
        small_dataset.x_train.reshape(len(small_dataset.x_train), -1),
        small_dataset.y_train,
        small_dataset.x_test.reshape(len(small_dataset.x_test), -1),
        small_dataset.y_test,
    )


@pytest.fixture(scope="session")
def trained_mlp(flat_dataset):
    """Bias-free MLP (bias-free so ISS theta targets are exact)."""
    x_train, y_train, _, _ = flat_dataset
    model = build_mlp(
        in_features=x_train.shape[1], hidden=(24, 16), num_classes=5, seed=5
    )
    for node in model.extraction_units():
        node.module.bias = None
    train_classifier(model, x_train, y_train, TrainConfig(epochs=12, seed=5))
    return model


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x (test helper)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = f(x)
        flat[i] = old - eps
        down = f(x)
        flat[i] = old
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


@pytest.fixture(scope="session")
def numgrad():
    return numerical_gradient
