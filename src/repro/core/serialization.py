"""Persistence for class paths and fitted detectors.

The paper's deployment stores offline-generated canary class paths and
reuses them over time (Fig. 4); this module provides that storage:
class-path sets serialise to ``.npz`` archives, and whole detectors
(config + class paths + forest) to a directory.

The same array representation also serves the sharded runtime:
:func:`detector_to_state` flattens a fitted detector into one picklable
dict of plain arrays that a worker process can rebuild with
:func:`detector_from_state`.  The service serialises that state once at
startup and broadcasts it to every shard — model state never travels
per-request.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Mapping, Union

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.classifier import RandomForest
from repro.core.classifier.tree import DecisionTree, _TreeNode
from repro.core.config import Direction, ExtractionConfig, LayerSpec, Thresholding
from repro.core.path import ClassPath, PathLayout
from repro.core.profiling import ClassPathSet

__all__ = [
    "save_class_paths",
    "load_class_paths",
    "class_paths_to_arrays",
    "class_paths_from_arrays",
    "config_to_dict",
    "config_from_dict",
    "forest_to_arrays",
    "forest_from_arrays",
    "detector_to_state",
    "detector_from_state",
    "save_detector",
    "load_detector",
]

_PathLike = Union[str, os.PathLike]

#: Version tag of the :func:`detector_to_state` payload layout.
DETECTOR_STATE_FORMAT = 1


# -- class paths -----------------------------------------------------------

def class_paths_to_arrays(class_paths: ClassPathSet) -> Dict[str, np.ndarray]:
    """Flatten a ClassPathSet into a flat ``{name: array}`` dict — the
    shared representation behind the ``.npz`` archive and the sharded
    service's startup broadcast."""
    layout = class_paths.layout
    arrays = {
        "tap_names": np.array(layout.tap_names),
        "tap_sizes": np.array(layout.tap_sizes, dtype=np.int64),
        "class_ids": np.array(sorted(class_paths.paths), dtype=np.int64),
    }
    for cid in sorted(class_paths.paths):
        canary = class_paths.path_for(cid)
        arrays[f"class{cid}_samples"] = np.array(canary.num_samples)
        for tap_i, mask in enumerate(canary.masks):
            arrays[f"class{cid}_tap{tap_i}"] = mask.to_bool()
    return arrays


def class_paths_from_arrays(
    arrays: Mapping[str, np.ndarray],
) -> ClassPathSet:
    """Inverse of :func:`class_paths_to_arrays` (also accepts the lazy
    mapping ``np.load`` returns)."""
    layout = PathLayout(
        tuple(str(n) for n in arrays["tap_names"]),
        tuple(int(s) for s in arrays["tap_sizes"]),
    )
    class_paths = ClassPathSet(layout)
    for cid in arrays["class_ids"]:
        cid = int(cid)
        canary = ClassPath(layout, cid)
        canary.num_samples = int(arrays[f"class{cid}_samples"])
        canary.masks = [
            Bitmask.from_bool(arrays[f"class{cid}_tap{tap_i}"])
            for tap_i in range(layout.num_taps)
        ]
        class_paths.paths[cid] = canary
    return class_paths


def save_class_paths(class_paths: ClassPathSet, path: _PathLike) -> None:
    """Write a ClassPathSet to an ``.npz`` archive."""
    np.savez_compressed(path, **class_paths_to_arrays(class_paths))


def load_class_paths(path: _PathLike) -> ClassPathSet:
    """Read a ClassPathSet written by :func:`save_class_paths`."""
    with np.load(path, allow_pickle=False) as data:
        return class_paths_from_arrays(data)


# -- extraction configs ------------------------------------------------------

def config_to_dict(config: ExtractionConfig) -> dict:
    """JSON-safe representation of an ExtractionConfig."""
    return {
        "direction": config.direction.value,
        "layers": [
            {
                "mechanism": spec.mechanism.value,
                "threshold": spec.threshold,
                "extract": spec.extract,
            }
            for spec in config.layers
        ],
    }


def config_from_dict(data: dict) -> ExtractionConfig:
    """Inverse of :func:`config_to_dict`.  Other keys are ignored, so
    states saved with the old ``"backend"`` kernel choice still load."""
    return ExtractionConfig(
        Direction(data["direction"]),
        [
            LayerSpec(
                Thresholding(layer["mechanism"]),
                float(layer["threshold"]),
                bool(layer["extract"]),
            )
            for layer in data["layers"]
        ],
    )


# -- random forest -----------------------------------------------------------

def _tree_to_lists(tree: DecisionTree) -> dict:
    """Flatten a tree into parallel arrays (preorder) — the same array
    form the batched evaluator uses."""
    return tree.flatten()


def _tree_from_lists(data: dict, meta: dict) -> DecisionTree:
    def build(idx: int):
        node = _TreeNode(
            feature=int(data["feature"][idx]),
            threshold=float(data["threshold"][idx]),
            probability=float(data["probability"][idx]),
        )
        if data["left"][idx] >= 0:
            node.left = build(int(data["left"][idx]))
            node.right = build(int(data["right"][idx]))
        return node

    tree = DecisionTree(max_depth=meta["max_depth"])
    tree._root = build(0)
    tree.node_count = len(data["feature"])
    tree.depth = meta["max_depth"]
    return tree


_TREE_KEYS = ("feature", "threshold", "left", "right", "probability")


def forest_to_arrays(forest: RandomForest) -> Dict[str, np.ndarray]:
    """Flatten every tree of a fitted forest into one flat array dict."""
    arrays: Dict[str, np.ndarray] = {}
    for i, tree in enumerate(forest.trees):
        for key, value in _tree_to_lists(tree).items():
            arrays[f"tree{i}_{key}"] = value
    return arrays


def forest_from_arrays(
    arrays: Mapping[str, np.ndarray], meta: dict
) -> RandomForest:
    """Rebuild a RandomForest from :func:`forest_to_arrays` output plus
    its ``{"n_trees", "max_depth", "seed"}`` metadata."""
    forest = RandomForest(
        n_trees=meta["n_trees"],
        max_depth=meta["max_depth"],
        seed=meta["seed"],
    )
    forest.trees = [
        _tree_from_lists(
            {key: arrays[f"tree{i}_{key}"] for key in _TREE_KEYS},
            {"max_depth": forest.max_depth},
        )
        for i in range(forest.n_trees)
    ]
    return forest


def _forest_meta(detector) -> dict:
    return {
        "n_trees": detector.forest.n_trees,
        "max_depth": detector.forest.max_depth,
        "seed": detector.forest.seed,
    }


# -- in-memory detector state (sharded-service broadcast) --------------------

def detector_to_state(detector, include_model: bool = True) -> dict:
    """Flatten a profiled detector into one picklable dict.

    The dict contains only plain types and numpy arrays — model weights
    (optional), extraction config, canary class paths, and the fitted
    forest — so it pickles compactly and deterministically.  This is
    the payload :class:`repro.runtime.ShardedDetectionService`
    broadcasts to its workers exactly once at startup.
    """
    if detector.class_paths is None:
        raise ValueError("detector has no class paths to serialise")
    state = {
        "format": DETECTOR_STATE_FORMAT,
        "model_state": (
            detector.model.state_dict() if include_model else None
        ),
        "config": config_to_dict(detector.config),
        "feature_mode": detector.feature_mode,
        "forest_meta": _forest_meta(detector),
        "fitted": detector._fitted,
        "forest_arrays": (
            forest_to_arrays(detector.forest) if detector._fitted else None
        ),
        "class_paths": class_paths_to_arrays(detector.class_paths),
    }
    return state


def detector_from_state(model, state: dict):
    """Rebuild the detector serialised by :func:`detector_to_state`.

    ``model`` must be architecture-compatible (e.g. freshly built by the
    scenario's model factory); when the state carries weights they are
    loaded into it, so the rebuilt detector is bit-identical to the
    original.
    """
    from repro.core.detector import PtolemyDetector

    if state.get("format") != DETECTOR_STATE_FORMAT:
        raise ValueError(
            f"unsupported detector state format {state.get('format')!r}"
        )
    if state["model_state"] is not None:
        model.load_state_dict(state["model_state"])
    meta = state["forest_meta"]
    detector = PtolemyDetector(
        model,
        config_from_dict(state["config"]),
        feature_mode=state["feature_mode"],
        n_trees=meta["n_trees"],
        max_depth=meta["max_depth"],
        seed=meta["seed"],
    )
    detector.class_paths = class_paths_from_arrays(state["class_paths"])
    # fix the extractor layout without re-profiling
    detector.extractor._layout = detector.class_paths.layout
    if state["fitted"]:
        detector.forest = forest_from_arrays(state["forest_arrays"], meta)
        detector._fitted = True
    return detector


# -- whole detectors ------------------------------------------------------

def save_detector(detector, directory: _PathLike) -> None:
    """Persist a fitted PtolemyDetector (class paths, config, forest).

    The model itself is saved separately with :func:`repro.nn.save_model`;
    a detector directory is only valid with its matching model.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if detector.class_paths is None:
        raise ValueError("detector has no class paths to save")
    save_class_paths(detector.class_paths, directory / "class_paths.npz")
    meta = {
        "feature_mode": detector.feature_mode,
        "config": config_to_dict(detector.config),
        "fitted": detector._fitted,
        "forest": _forest_meta(detector),
    }
    (directory / "detector.json").write_text(json.dumps(meta, indent=2))
    if detector._fitted:
        np.savez_compressed(
            directory / "forest.npz", **forest_to_arrays(detector.forest)
        )


def load_detector(model, directory: _PathLike):
    """Rebuild a PtolemyDetector saved by :func:`save_detector`."""
    from repro.core.detector import PtolemyDetector

    directory = Path(directory)
    meta = json.loads((directory / "detector.json").read_text())
    config = config_from_dict(meta["config"])
    detector = PtolemyDetector(
        model,
        config,
        feature_mode=meta["feature_mode"],
        n_trees=meta["forest"]["n_trees"],
        max_depth=meta["forest"]["max_depth"],
        seed=meta["forest"]["seed"],
    )
    detector.class_paths = load_class_paths(directory / "class_paths.npz")
    # fix the extractor layout without re-profiling
    detector.extractor._layout = detector.class_paths.layout
    if meta["fitted"]:
        with np.load(directory / "forest.npz") as data:
            detector.forest = forest_from_arrays(data, meta["forest"])
        detector._fitted = True
    return detector
