"""Batch/per-sample equivalence: the batched detection engine must be
bit-identical to the per-sample pipeline — same packed masks, same
similarity floats, same forest scores, same AUCs — across extraction
variants, batch sizes, and edge cases (empty batch, batch of one,
all-zero paths)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import FGSM
from repro.core import (
    ExtractionConfig,
    PathExtractor,
    PtolemyDetector,
    calibrate_phi,
    profile_class_paths,
)
from repro.core.bitmask import Bitmask, pack_bool_matrix
from repro.core.extraction import _select_cumulative, _select_cumulative_batch
from repro.core.path import (
    ActivationPath,
    PackedPathBatch,
    PathLayout,
    batch_path_similarity,
    batch_per_tap_similarity,
    path_similarity,
    per_tap_similarity,
)
from repro.core.profiling import ClassPathSet
from repro.nn import Graph
from repro.nn.models import MODEL_BUILDERS
from repro.nn.layers import (
    Add,
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
)


# -- shared fixtures --------------------------------------------------------


@pytest.fixture(scope="module")
def fitted_detectors(small_dataset, trained_alexnet):
    """One fitted detector per extraction variant, on the shared model."""
    model = trained_alexnet
    n = model.num_extraction_units()
    sample = small_dataset.x_train[:4]
    configs = {
        "BwCu": ExtractionConfig.bwcu(n, theta=0.5),
        "FwAb": calibrate_phi(
            model, ExtractionConfig.fwab(n), sample, quantile=0.95
        ),
        "FwCu": ExtractionConfig.fwcu(n, theta=0.5),
    }
    adv = FGSM(eps=0.1).generate(
        model, small_dataset.x_train[:20], small_dataset.y_train[:20]
    ).x_adv
    detectors = {}
    for name, config in configs.items():
        detector = PtolemyDetector(model, config, n_trees=20, seed=0)
        detector.profile(
            small_dataset.x_train, small_dataset.y_train, max_per_class=8
        )
        detector.fit_classifier(small_dataset.x_train[20:40], adv)
        detectors[name] = detector
    return detectors


# -- selection-kernel equivalence -------------------------------------------


class TestCumulativeSelection:
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_batch_kernel_matches_scalar(self, seed, theta):
        rng = np.random.default_rng(seed)
        psums = rng.normal(size=(7, 23))
        # include non-negative rows (the forward-cumulative regime)
        psums[::2] = np.abs(psums[::2])
        psums[3] = 0.0  # all-zero row: no important inputs
        flags = _select_cumulative_batch(psums, theta)
        for i in range(psums.shape[0]):
            chosen = _select_cumulative(psums[i], theta)
            reference = np.zeros(psums.shape[1], dtype=bool)
            reference[chosen] = True
            assert np.array_equal(flags[i], reference), f"row {i}"

    def test_degenerate_negative_total_keeps_strongest(self):
        psums = np.array([[-5.0, 2.0, -1.0]])
        flags = _select_cumulative_batch(psums, 0.5)
        chosen = _select_cumulative(psums[0], 0.5)
        assert flags[0].sum() == 1 and chosen.size == 1
        assert flags[0][chosen[0]]


# -- packed-path similarity equivalence -------------------------------------


class TestPackedSimilarity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_similarity_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        sizes = tuple(int(s) for s in rng.integers(1, 150, size=3))
        layout = PathLayout(("a", "b", "c"), sizes)
        paths = [
            ActivationPath(
                layout,
                [Bitmask.from_bool(rng.random(s) < 0.3) for s in sizes],
            )
            for _ in range(5)
        ]
        canary = ActivationPath(
            layout, [Bitmask.from_bool(rng.random(s) < 0.5) for s in sizes]
        )
        batch = PackedPathBatch.from_paths(layout, paths)
        row = canary.packed_words()
        sims = batch_path_similarity(batch, row)
        taps = batch_per_tap_similarity(batch, row)
        for i, path in enumerate(paths):
            assert sims[i] == path_similarity(path, canary)
            assert np.array_equal(taps[i], per_tap_similarity(path, canary))

    def test_all_zero_path_scores_zero(self):
        layout = PathLayout(("a",), (65,))
        empty = layout.empty_path()
        batch = PackedPathBatch.from_paths(layout, [empty])
        canary_row = np.ones(
            batch.words.shape[1], dtype=np.uint64
        )  # full canary
        assert batch_path_similarity(batch, canary_row)[0] == 0.0
        assert path_similarity(empty, empty) == 0.0

    def test_round_trip_preserves_paths(self):
        rng = np.random.default_rng(0)
        layout = PathLayout(("a", "b"), (70, 129))
        paths = [
            ActivationPath(
                layout,
                [
                    Bitmask.from_bool(rng.random(s) < 0.4)
                    for s in layout.tap_sizes
                ],
            )
            for _ in range(4)
        ]
        packed = PackedPathBatch.from_paths(layout, paths)
        assert packed.to_paths() == paths
        flags = [
            np.stack([p.masks[t].to_bool() for p in paths])
            for t in range(layout.num_taps)
        ]
        assert np.array_equal(
            PackedPathBatch.from_tap_bools(layout, flags).words,
            packed.words,
        )


# -- extractor equivalence ---------------------------------------------------


class TestExtractorEquivalence:
    @pytest.mark.parametrize("variant", ["BwCu", "FwAb", "FwCu"])
    def test_extract_batch_is_bit_identical(
        self, variant, fitted_detectors, small_dataset
    ):
        extractor = fitted_detectors[variant].extractor
        xs = small_dataset.x_test[:7]
        batch = extractor.extract_batch(xs)
        singles = [extractor.extract(xs[i : i + 1]) for i in range(len(xs))]
        assert np.array_equal(
            batch.predicted_classes,
            [s.predicted_class for s in singles],
        )
        assert np.array_equal(
            batch.logits, np.stack([s.logits for s in singles])
        )
        for unpacked, single in zip(batch.paths(), singles):
            assert unpacked == single.path

    def test_batch_of_one(self, fitted_detectors, small_dataset):
        extractor = fitted_detectors["FwAb"].extractor
        x = small_dataset.x_test[:1]
        batch = extractor.extract_batch(x)
        single = extractor.extract(x)
        assert batch.batch_size == 1
        assert batch.paths()[0] == single.path

    def test_empty_batch(self, fitted_detectors, small_dataset):
        extractor = fitted_detectors["FwAb"].extractor
        batch = extractor.extract_batch(small_dataset.x_test[:0])
        assert batch.batch_size == 0
        assert batch.predicted_classes.shape == (0,)
        assert batch.packed.words.shape[0] == 0


@st.composite
def pooled_graphs(draw):
    """A small random graph around a max pool whose windows may overlap
    (kernel > stride), with an optional residual block and a second
    pooling layer, and a batch of inputs for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel, stride = draw(st.sampled_from([(2, 2), (3, 2), (3, 1), (2, 1)]))
    image = draw(st.sampled_from([5, 6, 7, 9]))
    channels = draw(st.integers(1, 3))
    graph = Graph("pooled")
    graph.add("conv1", Conv2d(2, channels, 3, padding=1, rng=rng))
    graph.add("relu1", ReLU())
    pooled = graph.add("pool1", MaxPool2d(kernel, stride))
    size = (image - kernel) // stride + 1
    if draw(st.booleans()):
        graph.add("conv2", Conv2d(channels, channels, 3, padding=1, rng=rng))
        relu = graph.add("relu2", ReLU())
        graph.add("add", Add(), [relu, pooled])
    second = draw(st.sampled_from([None, MaxPool2d, AvgPool2d]))
    if second is not None and size >= 2:
        graph.add("pool2", second(2, 1))
        size -= 1
    graph.add("flatten", Flatten())
    graph.add("fc", Linear(channels * size * size, 4, rng=rng))
    batch = draw(st.integers(1, 5))
    return graph, rng.normal(size=(batch, 2, image, image))


class TestPooledGraphEquivalence:
    @given(
        pooled_graphs(),
        st.sampled_from(["BwCu", "BwAb"]),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_backward_masks_match_per_sample(
        self, case, variant, threshold
    ):
        graph, xs = case
        n = graph.num_extraction_units()
        if variant == "BwCu":
            config = ExtractionConfig.bwcu(n, theta=threshold)
        else:
            config = ExtractionConfig.bwab(n, phi=threshold - 0.5)
        extractor = PathExtractor(graph, config)
        batch = extractor.extract_batch(xs)
        singles = [extractor.extract(xs[i:i + 1]) for i in range(len(xs))]
        assert np.array_equal(
            batch.predicted_classes, [s.predicted_class for s in singles]
        )
        for unpacked, single in zip(batch.paths(), singles):
            assert unpacked == single.path


# -- model-zoo forward equivalence ------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(MODEL_BUILDERS))
def test_zoo_forward_is_batch_invariant(name, seed):
    """In eval mode a batch of 5 and a batch of 40 give every node the
    bytes that one-sample forwards give it.  At 40 samples
    mini_inception's Conv2d(16, 4, 5) on 8x8 maps (K = 400) leaves the
    small-matrix kernel that a few samples' product runs."""
    model = MODEL_BUILDERS[name](num_classes=6, seed=seed)
    model.train(False)
    rng = np.random.default_rng(seed + 100)
    xs = rng.normal(size=(40, 64) if name == "mlp" else (40, 3, 16, 16))
    singles = []
    for i in range(len(xs)):
        model.forward(xs[i:i + 1])
        singles.append(dict(model.activations))
    for batch in (5, 40):
        model.forward(xs[:batch])
        for node in model.nodes:
            per_sample = np.concatenate(
                [acts[node.name] for acts in singles[:batch]]
            )
            assert model.activations[node.name].tobytes() == (
                per_sample.tobytes()
            ), f"{name} node {node.name} at batch {batch}"


# -- detector equivalence ----------------------------------------------------


class TestDetectorEquivalence:
    @pytest.mark.parametrize("variant", ["BwCu", "FwAb", "FwCu"])
    def test_scores_and_decisions_match(
        self, variant, fitted_detectors, small_dataset
    ):
        detector = fitted_detectors[variant]
        xs = small_dataset.x_test[:10]
        batch = detector.detect_batch(xs, threshold=0.4)
        for i in range(len(xs)):
            outcome = detector.detect(xs[i : i + 1], threshold=0.4)
            assert batch.scores[i] == outcome.score
            assert batch.similarities[i] == outcome.similarity
            assert int(batch.predicted_classes[i]) == outcome.predicted_class
            assert bool(batch.is_adversarial[i]) == outcome.is_adversarial

    def test_features_match(self, fitted_detectors, small_dataset):
        detector = fitted_detectors["FwAb"]
        xs = small_dataset.x_test[:6]
        features, _ = detector.features_batch(xs)
        for i in range(len(xs)):
            single, _ = detector.features_for(xs[i : i + 1])
            assert np.array_equal(features[i], single)

    def test_auc_matches_per_sample_scores(
        self, fitted_detectors, small_dataset, trained_alexnet
    ):
        detector = fitted_detectors["FwAb"]
        adv = FGSM(eps=0.1).generate(
            trained_alexnet,
            small_dataset.x_test[:10],
            small_dataset.y_test[:10],
        ).x_adv
        benign = small_dataset.x_test[10:20]
        auc_batched = detector.evaluate_auc(benign, adv)
        per_sample = np.concatenate([
            [detector.score(x[None]) for x in benign],
            [detector.score(x[None]) for x in adv],
        ])
        from repro.core import roc_auc

        labels = np.concatenate([np.zeros(len(benign)), np.ones(len(adv))])
        assert auc_batched == roc_auc(labels, per_sample)

    def test_empty_batch_detection(self, fitted_detectors, small_dataset):
        result = fitted_detectors["FwAb"].detect_batch(
            small_dataset.x_test[:0]
        )
        assert len(result) == 0
        assert result.scores.shape == (0,)
        assert result.outcomes() == []

    def test_unknown_class_features_are_zero(
        self, fitted_detectors, small_dataset
    ):
        """A predicted class absent from profiling must produce the
        scalar path's all-zero (maximally suspicious) features."""
        detector = fitted_detectors["FwAb"]
        canaries = detector._packed_canaries()
        xs = small_dataset.x_test[:4]
        features, result = detector.features_batch(xs)
        rows, known = canaries.rows_for(
            np.full(len(xs), 10_000, dtype=np.int64)
        )
        assert not known.any()
        assert not rows.any()


# -- profiler equivalence ----------------------------------------------------


class TestProfilerEquivalence:
    def test_micro_batched_profile_matches_sequential(
        self, fitted_detectors, small_dataset
    ):
        config = fitted_detectors["FwAb"].config
        model = fitted_detectors["FwAb"].model
        cap = 5

        batched = profile_class_paths(
            PathExtractor(model, config),
            small_dataset.x_train,
            small_dataset.y_train,
            max_per_class=cap,
            batch_size=13,
        )

        extractor = PathExtractor(model, config)
        extractor.warm_up(small_dataset.x_train[:1])
        sequential = ClassPathSet(extractor.layout)
        counts = {}
        for i in range(len(small_dataset.x_train)):
            label = int(small_dataset.y_train[i])
            if counts.get(label, 0) >= cap:
                continue
            result = extractor.extract(small_dataset.x_train[i : i + 1])
            if result.predicted_class != label:
                continue
            sequential.path_for(label).aggregate(result.path)
            counts[label] = counts.get(label, 0) + 1

        assert sorted(batched.paths) == sorted(sequential.paths)
        for cid in batched.paths:
            a, b = batched.paths[cid], sequential.paths[cid]
            assert a.num_samples == b.num_samples
            assert all(x == y for x, y in zip(a.masks, b.masks))

    def test_packed_canaries_round_trip(self, fitted_detectors):
        detector = fitted_detectors["FwAb"]
        packed = detector.class_paths.packed()
        for row, cid in enumerate(packed.class_ids):
            expected = detector.class_paths.path_for(int(cid)).packed_words()
            assert np.array_equal(packed.words[row], expected)


# -- forest equivalence ------------------------------------------------------


class TestForestEquivalence:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_vectorized_walk_matches_per_row(self, seed):
        from repro.core import RandomForest

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 5))
        y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        forest = RandomForest(n_trees=8, max_depth=5, seed=seed % 1000)
        forest.fit(x, y)
        test = rng.normal(size=(33, 5))
        batched = forest.predict_proba(test)  # vectorized walk (N > 8)
        per_row = np.array(
            [forest.predict_proba(row[None])[0] for row in test]
        )  # scalar walk (N = 1)
        assert np.array_equal(batched, per_row)


def test_pack_bool_matrix_matches_bitmask(rng):
    flags = rng.random((9, 77)) < 0.5
    words = pack_bool_matrix(flags)
    for i in range(flags.shape[0]):
        assert np.array_equal(words[i], Bitmask.from_bool(flags[i]).words)


def test_reprofile_invalidates_packed_canary_cache(
    small_dataset, trained_alexnet
):
    """profile() must drop the packed-canary cache: a freed ClassPathSet's
    id() can be reused, so the cache key alone cannot detect re-profiling."""
    model = trained_alexnet
    config = ExtractionConfig.fwcu(model.num_extraction_units(), theta=0.5)
    detector = PtolemyDetector(model, config, n_trees=4, seed=0)
    detector.profile(
        small_dataset.x_train, small_dataset.y_train, max_per_class=4
    )
    first = detector._packed_canaries()
    assert detector._canary_cache is not None
    detector.profile(
        small_dataset.x_train, small_dataset.y_train, max_per_class=8
    )
    assert detector._canary_cache is None
    second = detector._packed_canaries()
    assert second is not first
