"""repro.core — the Ptolemy detection framework (the paper's primary
contribution): path extraction, canary class paths, similarity, and
the random-forest adversarial classifier."""

from repro.core.config import Direction, ExtractionConfig, LayerSpec, Thresholding
from repro.core.bitmask import (
    Bitmask,
    batch_and_popcount,
    batch_containment,
    batch_jaccard,
    batch_or,
    batch_popcount,
    pack_bool_matrix,
    unpack_word_matrix,
)
from repro.core.path import (
    ActivationPath,
    ClassPath,
    PackedPathBatch,
    PathLayout,
    batch_path_similarity,
    batch_per_tap_similarity,
    path_similarity,
    per_tap_similarity,
    symmetric_similarity,
)
from repro.core.trace import ExtractionTrace, UnitTrace
from repro.core.extraction import (
    BatchExtractionResult,
    ExtractionResult,
    PathExtractor,
    calibrate_phi,
)
from repro.core.profiling import (
    ClassPathSet,
    PackedCanaries,
    profile_class_paths,
    saturation_curve,
)
from repro.core.metrics import DetectionReport, detection_report, roc_auc, roc_curve
from repro.core.classifier import DecisionTree, RandomForest
from repro.core.detector import (
    BatchDetectionResult,
    DetectionOutcome,
    PtolemyDetector,
)
from repro.core.explain import TapDivergence, divergence_report, input_saliency
from repro.core.monitor import (
    InferenceMonitor,
    MonitorDecision,
    MonitorStats,
    calibrate_threshold,
)
from repro.core.interface import DetectionProgram, fig6_program
from repro.core.serialization import (
    config_from_dict,
    config_to_dict,
    detector_from_state,
    detector_to_state,
    load_class_paths,
    load_detector,
    save_class_paths,
    save_detector,
)

__all__ = [
    "Direction",
    "ExtractionConfig",
    "LayerSpec",
    "Thresholding",
    "Bitmask",
    "batch_and_popcount",
    "batch_containment",
    "batch_jaccard",
    "batch_or",
    "batch_popcount",
    "pack_bool_matrix",
    "unpack_word_matrix",
    "ActivationPath",
    "ClassPath",
    "PackedPathBatch",
    "PathLayout",
    "path_similarity",
    "per_tap_similarity",
    "symmetric_similarity",
    "batch_path_similarity",
    "batch_per_tap_similarity",
    "ExtractionTrace",
    "UnitTrace",
    "ExtractionResult",
    "BatchExtractionResult",
    "PathExtractor",
    "calibrate_phi",
    "ClassPathSet",
    "PackedCanaries",
    "profile_class_paths",
    "saturation_curve",
    "DetectionReport",
    "detection_report",
    "roc_auc",
    "roc_curve",
    "DecisionTree",
    "RandomForest",
    "DetectionOutcome",
    "BatchDetectionResult",
    "PtolemyDetector",
    "TapDivergence",
    "divergence_report",
    "input_saliency",
    "InferenceMonitor",
    "MonitorDecision",
    "MonitorStats",
    "calibrate_threshold",
    "DetectionProgram",
    "fig6_program",
    "save_class_paths",
    "load_class_paths",
    "config_to_dict",
    "config_from_dict",
    "save_detector",
    "load_detector",
    "detector_to_state",
    "detector_from_state",
]
