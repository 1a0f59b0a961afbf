"""Fig. 5 — inter-class path similarity matrices.

Paper result: class paths are distinctive.  AlexNet@ImageNet averages
~36% inter-class similarity; ResNet18@CIFAR averages ~61% — higher
because CIFAR's few classes are similar to each other.  We reproduce
the *contrast*: the similar-classes (CIFAR-like) regime must show
clearly higher inter-class path similarity than the distinct-classes
(ImageNet-like) regime, and both must sit well below 1.
"""

import itertools

import numpy as np
import pytest

from repro.core import ExtractionConfig, PathExtractor, profile_class_paths, symmetric_similarity
from repro.eval import Workbench, render_matrix


def _similarity_matrix(workbench, theta=0.5, max_per_class=15):
    model = workbench.model
    config = ExtractionConfig.bwcu(model.num_extraction_units(), theta=theta)
    extractor = PathExtractor(model, config)
    class_paths = profile_class_paths(
        extractor,
        workbench.dataset.x_train,
        workbench.dataset.y_train,
        max_per_class=max_per_class,
    )
    classes = sorted(class_paths.paths)
    n = len(classes)
    matrix = np.eye(n)
    for i, j in itertools.combinations(range(n), 2):
        sim = symmetric_similarity(
            class_paths.path_for(classes[i]), class_paths.path_for(classes[j])
        )
        matrix[i, j] = matrix[j, i] = sim
    return classes, matrix


def _off_diagonal(matrix):
    n = matrix.shape[0]
    return np.array([matrix[i, j] for i in range(n) for j in range(n) if i != j])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fig5_class_path_similarity(benchmark):
    wb_imagenet = Workbench.get("alexnet_imagenet")
    wb_cifar = Workbench.get("resnet18_cifar")

    def run():
        return (
            _similarity_matrix(wb_imagenet),
            _similarity_matrix(wb_cifar),
        )

    (classes_a, mat_a), (classes_b, mat_b) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print()
    print(render_matrix("Fig 5a: MiniAlexNet @ imagenet-like (theta=0.5)",
                        classes_a, mat_a))
    print(render_matrix("Fig 5b: MiniResNet18 @ cifar-like (theta=0.5)",
                        classes_b, mat_b))
    if min(len(classes_a), len(classes_b)) < 2:
        pytest.skip("fewer than two classes have a canary path")
    off_a, off_b = _off_diagonal(mat_a), _off_diagonal(mat_b)
    print(f"mean inter-class similarity: imagenet-like {off_a.mean():.3f} "
          f"(paper 0.362), cifar-like {off_b.mean():.3f} (paper 0.612)")

    # shape assertions: distinctive paths, and the CIFAR regime is more
    # self-similar than the ImageNet regime (the paper's explanation)
    assert off_a.mean() < 0.6
    assert off_a.max() < 0.9
    assert off_b.mean() > off_a.mean()
