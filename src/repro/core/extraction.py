"""Important-neuron extraction (the paper's Sec. III algorithm).

Backward extraction starts from the predicted class in the last layer
and walks the network in reverse: for each important output neuron the
minimal set of receptive-field inputs covering ``theta`` of its value
(cumulative), or all inputs whose partial sum exceeds ``phi``
(absolute), becomes important in turn (Fig. 3).

Forward extraction instead selects important neurons per layer from
the layer's own output values the moment the layer finishes, which is
what lets the hardware overlap extraction with inference (Sec. III-C).

The extractor operates on a single input (batch of one) and returns
both the :class:`~repro.core.path.ActivationPath` and an
:class:`~repro.core.trace.ExtractionTrace` of operation counts for the
hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import Direction, ExtractionConfig, LayerSpec, Thresholding
from repro.core.path import ActivationPath, PackedPathBatch, PathLayout
from repro.core.trace import ExtractionTrace, UnitTrace
from repro.nn.graph import Graph, INPUT

__all__ = [
    "ExtractionResult",
    "BatchExtractionResult",
    "PathExtractor",
    "calibrate_phi",
]


@dataclass
class ExtractionResult:
    """Output of one online extraction."""

    path: ActivationPath
    predicted_class: int
    trace: ExtractionTrace
    logits: np.ndarray


@dataclass
class BatchExtractionResult:
    """Output of one batched extraction: N paths in packed-word form.

    ``traces`` is populated for the backward direction (whose engine
    walks samples individually anyway) and for forward extraction only
    on request — the vectorized forward engine never materialises
    per-sample operation counts unless asked.
    """

    packed: PackedPathBatch
    predicted_classes: np.ndarray
    logits: np.ndarray
    traces: Optional[List[ExtractionTrace]] = None

    @property
    def batch_size(self) -> int:
        return self.packed.batch_size

    def paths(self) -> List[ActivationPath]:
        """Unpack into per-sample paths (equivalence tests, explain)."""
        return self.packed.to_paths()


def _select_cumulative(psums: np.ndarray, theta: float) -> np.ndarray:
    """Indices of the minimal descending-sorted prefix of ``psums``
    whose cumulative sum reaches ``theta`` times the total (Fig. 3).

    Returns indices *into psums*.  Degenerate neurons are handled so
    paths never silently vanish: a neuron whose psum total is negative
    (e.g. a low-confidence predicted logit) keeps its single strongest
    positive contributor; an exactly-zero total has no important
    inputs.  The ISS ``acum`` instruction implements the same rule.
    """
    total = psums.sum()
    target = theta * total
    # stable descending sort: matches the hardware sort-unit semantics
    # (and the ISS), so compiled programs are bit-identical on ties
    order = np.argsort(-psums, kind="stable")
    if target <= 0.0:
        if total < 0.0 and psums.size and psums[order[0]] > 0.0:
            return order[:1]
        return np.empty(0, dtype=np.int64)
    csum = np.cumsum(psums[order])
    # cumulative sums of a descending sequence rise then fall; take the
    # first index reaching the target (always exists: max(csum) >= total)
    k = int(np.argmax(csum >= target)) + 1
    return order[:k]


def _select_absolute(psums: np.ndarray, phi: float) -> np.ndarray:
    """Indices where the partial sum exceeds the absolute threshold."""
    return np.flatnonzero(psums > phi)


def _select_cumulative_batch(psums: np.ndarray, theta: float) -> np.ndarray:
    """Row-wise :func:`_select_cumulative` over an ``(N, L)`` matrix,
    returned as a boolean selection matrix.

    Every step is the vectorized twin of the scalar path — same stable
    sort, same cumulative-sum order, same degenerate-row rules — so the
    selected sets are bit-identical per row (asserted by the
    batch-equivalence tests).
    """
    n, length = psums.shape
    totals = psums.sum(axis=1)
    targets = theta * totals
    order = np.argsort(-psums, axis=1, kind="stable")
    sorted_psums = np.take_along_axis(psums, order, axis=1)
    csums = np.cumsum(sorted_psums, axis=1)
    k = np.argmax(csums >= targets[:, None], axis=1) + 1
    degenerate = targets <= 0.0
    if degenerate.any():
        keep_one = degenerate & (totals < 0.0) & (sorted_psums[:, 0] > 0.0)
        k = np.where(degenerate, np.where(keep_one, 1, 0), k)
    flags = np.zeros((n, length), dtype=bool)
    flags[np.arange(n)[:, None], order] = (
        np.arange(length)[None, :] < k[:, None]
    )
    return flags


class PathExtractor:
    """Extracts activation paths from a model under a given config."""

    def __init__(self, model: Graph, config: ExtractionConfig):
        self.model = model
        self.config = config
        self.units = model.extraction_units()
        if len(self.units) != config.num_layers:
            raise ValueError(
                f"config has {config.num_layers} layer specs but the model "
                f"has {len(self.units)} extraction units"
            )
        self._unit_index = {node.name: i for i, node in enumerate(self.units)}
        self._layout: Optional[PathLayout] = None

    # -- layout ----------------------------------------------------------
    @property
    def layout(self) -> PathLayout:
        if self._layout is None:
            raise RuntimeError(
                "layout unknown until the first extract()/warm_up() call"
            )
        return self._layout

    def warm_up(self, x: np.ndarray) -> PathLayout:
        """Run one forward pass to fix feature-map shapes and the layout."""
        self.model.forward(x[:1])
        self._layout = self._build_layout()
        return self._layout

    def _build_layout(self) -> PathLayout:
        names: List[str] = []
        sizes: List[int] = []
        for i in self.config.extracted_indices():
            node = self.units[i]
            names.append(node.name)
            if self.config.direction is Direction.BACKWARD:
                sizes.append(node.module.input_feature_size)
            else:
                sizes.append(node.module.output_feature_size)
        return PathLayout(tuple(names), tuple(sizes))

    # -- extraction ----------------------------------------------------
    def extract(self, x: np.ndarray,
                reuse_forward: bool = False) -> ExtractionResult:
        """Extract the activation path of a single input.

        ``x`` must be a batch of exactly one sample (extraction reads
        per-sample caches such as max-pool argmax indices).  With
        ``reuse_forward=True`` the extractor consumes the model's
        existing forward state instead of re-running inference — used
        by fault injection, where the faulty activations must not be
        recomputed (and matching how the hardware extracts from the
        feature maps the accelerator actually produced).
        """
        if x.shape[0] != 1:
            raise ValueError("extraction requires a batch of exactly one input")
        if reuse_forward:
            if not self.model.activations:
                raise RuntimeError("reuse_forward=True requires a prior forward")
            logits = self.model.activations[self.model.output_name]
        else:
            logits = self.model.forward(x)
        if self._layout is None:
            self._layout = self._build_layout()
        predicted = int(logits[0].argmax())
        if self.config.direction is Direction.BACKWARD:
            masks, trace = self._extract_backward(predicted)
        else:
            masks, trace = self._extract_forward()
        path = ActivationPath(self._layout, masks)
        return ExtractionResult(path, predicted, trace, logits[0].copy())

    def extract_batch(
        self,
        x: np.ndarray,
        reuse_forward: bool = False,
        collect_traces: bool = False,
    ) -> BatchExtractionResult:
        """Extract the activation paths of a whole batch at once.

        One batched inference feeds all samples; forward-direction
        selection then runs as matrix kernels over the stacked feature
        maps, while backward extraction walks each sample's cached
        per-sample state (partial sums, pooling argmaxes).  Results are
        bit-identical to calling :meth:`extract` per sample — the model
        forward is batch-invariant and every selection step reuses the
        scalar path's exact operation order.
        """
        if x.ndim < 2:
            raise ValueError("extract_batch expects a batched input")
        if x.shape[0] == 0:
            if self._layout is None:
                raise RuntimeError(
                    "layout unknown; warm_up() before extracting an "
                    "empty batch"
                )
            num_classes = self.model.activations[
                self.model.output_name
            ].shape[1] if self.model.activations else 0
            return BatchExtractionResult(
                PackedPathBatch.from_paths(self._layout, []),
                np.empty(0, dtype=np.int64),
                np.empty((0, num_classes)),
                traces=[] if collect_traces else None,
            )
        if reuse_forward:
            if not self.model.activations:
                raise RuntimeError("reuse_forward=True requires a prior forward")
            logits = self.model.activations[self.model.output_name]
            if logits.shape[0] != x.shape[0]:
                raise ValueError(
                    "cached forward batch does not match the input batch"
                )
        else:
            logits = self.model.forward(x)
        if self._layout is None:
            self._layout = self._build_layout()
        predicted = logits.argmax(axis=1).astype(np.int64)
        traces: Optional[List[ExtractionTrace]] = None
        if self.config.direction is Direction.BACKWARD:
            paths: List[ActivationPath] = []
            traces = []
            for i in range(x.shape[0]):
                masks, trace = self._extract_backward(
                    int(predicted[i]), sample=i
                )
                paths.append(ActivationPath(self._layout, masks))
                traces.append(trace)
            # backward traces come for free (the walk builds them anyway)
            packed = PackedPathBatch.from_paths(self._layout, paths)
        else:
            packed, traces = self._extract_forward_batch(
                x.shape[0], collect_traces
            )
        return BatchExtractionResult(
            packed, predicted, logits.copy(), traces=traces
        )

    # -- forward batch engine ---------------------------------------------
    def _extract_forward_batch(
        self, batch_size: int, collect_traces: bool
    ) -> Tuple[PackedPathBatch, Optional[List[ExtractionTrace]]]:
        """Vectorized forward extraction over the cached batch forward."""
        tap_flags: List[np.ndarray] = []
        unit_meta: List[Tuple] = []
        for unit_idx in self.config.extracted_indices():
            node = self.units[unit_idx]
            spec = self.config.layers[unit_idx]
            acts = self.model.activations[node.name]
            if spec.mechanism is Thresholding.CUMULATIVE:
                # rank outputs by value; cover theta of the positive mass,
                # summed along one contiguous row per sample
                values = np.ascontiguousarray(acts).reshape(batch_size, -1)
                positive = np.clip(values, 0.0, None)
                flags = _select_cumulative_batch(positive, spec.threshold)
            else:
                # compare in the activation's own memory order (a conv
                # output is batch-minor); packing reorders only the
                # booleans
                flags = (acts > spec.threshold).reshape(batch_size, -1)
            tap_flags.append(flags)
            unit_meta.append((node, unit_idx, spec, flags.shape[1]))
        packed = PackedPathBatch.from_tap_bools(self._layout, tap_flags)
        if not collect_traces:
            return packed, None
        traces: List[ExtractionTrace] = []
        per_tap_ones = [flags.sum(axis=1) for flags in tap_flags]
        for i in range(batch_size):
            trace = ExtractionTrace(Direction.FORWARD)
            for tap, (node, unit_idx, spec, size) in enumerate(unit_meta):
                unit_trace = UnitTrace(
                    name=node.name,
                    index=unit_idx,
                    extracted=True,
                    mechanism=spec.mechanism,
                    in_size=node.module.input_feature_size,
                    out_size=node.module.output_feature_size,
                    rf_size=node.module.nominal_rf_size(),
                    mac_count=node.module.mac_count(),
                )
                if spec.mechanism is Thresholding.CUMULATIVE:
                    unit_trace.n_psums_sorted = size
                else:
                    unit_trace.n_compared = size
                unit_trace.n_out_processed = size
                unit_trace.n_important = int(per_tap_ones[tap][i])
                trace.units.append(unit_trace)
            traces.append(trace)
        return packed, traces

    # -- backward engine ---------------------------------------------------
    def _extract_backward(
        self, predicted: int, sample: int = 0
    ) -> Tuple[List[Bitmask], ExtractionTrace]:
        trace = ExtractionTrace(Direction.BACKWARD)
        importance: Dict[str, np.ndarray] = {
            self.model.output_name: np.array([predicted], dtype=np.int64)
        }
        masks: Dict[int, Bitmask] = {}
        for node in reversed(self.model.nodes):
            positions = importance.pop(node.name, None)
            if positions is None or positions.size == 0:
                continue
            if node.name in self._unit_index:
                unit_idx = self._unit_index[node.name]
                spec = self.config.layers[unit_idx]
                if not spec.extract:
                    continue  # early-termination: stop the walk here
                in_positions, unit_trace = self._extract_unit_backward(
                    node.module, unit_idx, node.name, positions, spec,
                    sample=sample,
                )
                trace.units.append(unit_trace)
                masks[unit_idx] = Bitmask.from_positions(
                    node.module.input_feature_size, in_positions
                )
                self._merge(importance, node.inputs[0], in_positions)
            elif node.is_multi_input:
                split = node.module.propagate_back_multi(positions, sample)
                for input_name, pos in zip(node.inputs, split):
                    self._merge(importance, input_name, pos)
            else:
                mapped = node.module.propagate_back(positions, sample)
                self._merge(importance, node.inputs[0], mapped)
        trace.units.sort(key=lambda u: u.index)
        ordered = [
            masks.get(i, Bitmask(self.units[i].module.input_feature_size))
            for i in self.config.extracted_indices()
        ]
        return ordered, trace

    @staticmethod
    def _merge(importance: Dict[str, np.ndarray], name: str,
               positions: np.ndarray) -> None:
        if name == INPUT or positions.size == 0:
            return
        existing = importance.get(name)
        if existing is None:
            importance[name] = np.unique(positions)
        else:
            importance[name] = np.union1d(existing, positions)

    def _extract_unit_backward(
        self,
        module,
        unit_idx: int,
        name: str,
        out_positions: np.ndarray,
        spec: LayerSpec,
        sample: int = 0,
    ) -> Tuple[np.ndarray, UnitTrace]:
        unit_trace = UnitTrace(
            name=name,
            index=unit_idx,
            extracted=True,
            mechanism=spec.mechanism,
            in_size=module.input_feature_size,
            out_size=module.output_feature_size,
            rf_size=module.nominal_rf_size(),
            mac_count=module.mac_count(),
        )
        collected: List[np.ndarray] = []
        for out_pos in out_positions:
            psums = module.partial_sums(int(out_pos), sample)
            rf = module.receptive_field(int(out_pos))
            unit_trace.n_out_processed += 1
            if spec.mechanism is Thresholding.CUMULATIVE:
                chosen = _select_cumulative(psums, spec.threshold)
                unit_trace.n_psums_sorted += psums.size
            else:
                chosen = _select_absolute(psums, spec.threshold)
                unit_trace.n_compared += psums.size
            if chosen.size:
                collected.append(rf[chosen])
        in_positions = (
            np.unique(np.concatenate(collected))
            if collected
            else np.empty(0, dtype=np.int64)
        )
        unit_trace.n_important = int(in_positions.size)
        return in_positions, unit_trace

    # -- forward engine ----------------------------------------------------
    def _extract_forward(self) -> Tuple[List[Bitmask], ExtractionTrace]:
        trace = ExtractionTrace(Direction.FORWARD)
        masks: List[Bitmask] = []
        for unit_idx in self.config.extracted_indices():
            node = self.units[unit_idx]
            spec = self.config.layers[unit_idx]
            values = self.model.activations[node.name][0].ravel()
            unit_trace = UnitTrace(
                name=node.name,
                index=unit_idx,
                extracted=True,
                mechanism=spec.mechanism,
                in_size=node.module.input_feature_size,
                out_size=node.module.output_feature_size,
                rf_size=node.module.nominal_rf_size(),
                mac_count=node.module.mac_count(),
            )
            if spec.mechanism is Thresholding.CUMULATIVE:
                # rank outputs by value; cover theta of the positive mass
                positive = np.clip(values, 0.0, None)
                chosen = _select_cumulative(positive, spec.threshold)
                unit_trace.n_psums_sorted = values.size
            else:
                chosen = _select_absolute(values, spec.threshold)
                unit_trace.n_compared = values.size
            unit_trace.n_out_processed = values.size
            unit_trace.n_important = int(chosen.size)
            masks.append(Bitmask.from_positions(values.size, chosen))
            trace.units.append(unit_trace)
        return masks, trace


def calibrate_phi(
    model: Graph,
    config: ExtractionConfig,
    x_sample: np.ndarray,
    quantile: float = 0.98,
    max_outputs_per_unit: int = 64,
    seed: int = 0,
) -> ExtractionConfig:
    """Choose per-layer absolute thresholds ``phi`` from data.

    The paper specifies ``phi`` per layer but not how to pick it; we
    set ``phi`` to a high quantile of the quantity each layer compares:
    partial sums for backward-absolute layers, output activations for
    forward-absolute layers.  Returns a config copy with thresholds
    filled in.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    rng = np.random.default_rng(seed)
    units = model.extraction_units()
    if len(units) != config.num_layers:
        raise ValueError("config/model layer count mismatch")
    phi: Dict[int, float] = {}
    absolute_units = [
        i
        for i, spec in enumerate(config.layers)
        if spec.extract and spec.mechanism is Thresholding.ABSOLUTE
    ]
    if not absolute_units:
        return config
    samples: Dict[int, List[np.ndarray]] = {i: [] for i in absolute_units}
    for row in range(min(len(x_sample), 8)):
        model.forward(x_sample[row : row + 1])
        for i in absolute_units:
            module = units[i].module
            if config.direction is Direction.BACKWARD:
                out_size = module.output_feature_size
                picks = rng.choice(
                    out_size,
                    size=min(max_outputs_per_unit, out_size),
                    replace=False,
                )
                collected = [module.partial_sums(int(p)) for p in picks]
                samples[i].append(np.concatenate(collected))
            else:
                samples[i].append(
                    model.activations[units[i].name][0].ravel()
                )
    for i in absolute_units:
        pooled = np.concatenate(samples[i])
        phi[i] = float(np.quantile(pooled, quantile))
    return config.with_phi(phi)
