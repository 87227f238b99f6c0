"""Cross-device calibration procedure (paper Sec. 3.2).

For every calibration input the traced model is executed on each device of
the fleet with full trace recording; for every operator and every device
pair, element-wise absolute/relative errors are reduced to percentile
profiles in one sorted pass per (sample, operator) over all pairs
(:func:`~repro.calibration.profiles.max_over_pairs`); the per-operator
envelope over pairs and inputs becomes the raw material for threshold
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.profiles import (
    PERCENTILE_GRID,
    OperatorCalibration,
    PercentileProfile,
    elementwise_errors,
    max_over_pairs,
)
from repro.graph.graph import GraphModule
from repro.graph.interpreter import Interpreter
from repro.tensorlib.device import DeviceProfile, DEVICE_FLEET


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the offline calibration pass."""

    devices: Tuple[DeviceProfile, ...] = DEVICE_FLEET
    percentile_grid: Tuple[float, ...] = PERCENTILE_GRID
    relative_epsilon: float = 1e-12
    #: Skip operators that produce integer outputs (argmax, index tensors).
    skip_integer_outputs: bool = True

    def __post_init__(self) -> None:
        if len(self.devices) < 2:
            raise ValueError("calibration requires at least two devices")


@dataclass
class CalibrationResult:
    """Output of :meth:`Calibrator.calibrate`."""

    model_name: str
    config: CalibrationConfig
    operators: Dict[str, OperatorCalibration] = field(default_factory=dict)
    num_samples: int = 0

    def operator_names(self) -> List[str]:
        return sorted(self.operators, key=lambda name: self.operators[name].position)

    def mean_error_by_position(self) -> Tuple[np.ndarray, np.ndarray]:
        """(normalized position, mean abs error) series — the Fig. 4 curve."""
        ordered = self.operator_names()
        if not ordered:
            return np.array([]), np.array([])
        n = max(len(ordered) - 1, 1)
        positions = np.array(
            [self.operators[name].position / n for name in ordered], dtype=np.float64
        )
        errors = np.array(
            [self.operators[name].mean_abs_error for name in ordered], dtype=np.float64
        )
        return positions, errors

    def mean_error_by_operator_type(self, kind: str = "abs") -> Dict[str, float]:
        """Mean error per operator type (averaged over node instances)."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for calib in self.operators.values():
            value = calib.mean_abs_error if kind == "abs" else calib.mean_rel_error
            sums[calib.op_type] = sums.get(calib.op_type, 0.0) + value
            counts[calib.op_type] = counts.get(calib.op_type, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}

    def error_magnitude_histogram(self, bins: Sequence[float]) -> Dict[str, float]:
        """Fraction of operators whose mean empirical error falls in each decade bin.

        ``bins`` is a descending sequence of magnitudes (e.g. 1e-1 ... 1e-8);
        operator ``i`` is assigned to the first bin ``b`` with error >= b,
        mirroring the Fig. 7 heatmap rows.
        """
        errors = np.array([c.mean_abs_error for c in self.operators.values()])
        if errors.size == 0:
            return {f"{b:.0e}": 0.0 for b in bins}
        counts = {f"{b:.0e}": 0 for b in bins}
        for err in errors:
            assigned = False
            for b in bins:
                if err >= b:
                    counts[f"{b:.0e}"] += 1
                    assigned = True
                    break
            if not assigned:
                counts[f"{bins[-1]:.0e}"] += 1
        total = float(errors.size)
        return {key: count / total for key, count in counts.items()}


class Calibrator:
    """Runs the cross-device calibration pass for one traced model."""

    def __init__(self, config: Optional[CalibrationConfig] = None) -> None:
        self.config = config or CalibrationConfig()

    def calibrate(
        self,
        graph_module: GraphModule,
        dataset: Iterable[Dict[str, np.ndarray]],
    ) -> CalibrationResult:
        """Calibrate per-operator error percentile profiles for ``graph_module``.

        ``dataset`` yields input dictionaries (placeholder name -> tensor);
        the paper uses 50 representative inputs per model.
        """
        config = self.config
        operators = graph_module.graph.operators
        positions = {node.name: idx for idx, node in enumerate(operators)}
        op_types = {node.name: node.target for node in operators}

        per_sample: Dict[str, List[PercentileProfile]] = {name: [] for name in positions}
        envelopes: Dict[str, Optional[PercentileProfile]] = {name: None for name in positions}
        err_sums: Dict[str, float] = {name: 0.0 for name in positions}
        rel_sums: Dict[str, float] = {name: 0.0 for name in positions}
        err_max: Dict[str, float] = {name: 0.0 for name in positions}
        err_counts: Dict[str, int] = {name: 0 for name in positions}

        interpreters = [Interpreter(device) for device in config.devices]
        num_samples = 0

        for sample in dataset:
            num_samples += 1
            traces = [
                interp.run(graph_module, sample, record=True) for interp in interpreters
            ]
            for name in positions:
                abs_rows: List[np.ndarray] = []
                rel_rows: List[np.ndarray] = []
                for j in range(len(traces)):
                    for k in range(j + 1, len(traces)):
                        y_j = traces[j].values[name]
                        y_k = traces[k].values[name]
                        if config.skip_integer_outputs and np.asarray(y_j).dtype.kind in ("i", "u", "b"):
                            continue
                        abs_err, rel_err = elementwise_errors(
                            y_j, y_k, config.relative_epsilon
                        )
                        # Relative error is asymmetric in its denominator
                        # (Eq. 2 normalizes by the first device's output);
                        # take both directions so the committed thresholds
                        # cover whichever side a future checker normalizes by.
                        _, rel_err_rev = elementwise_errors(
                            y_k, y_j, config.relative_epsilon
                        )
                        abs_rows.append(abs_err)
                        rel_rows.append(np.maximum(rel_err, rel_err_rev))
                        err_sums[name] += float(abs_err.mean())
                        rel_sums[name] += float(rel_err.mean())
                        err_max[name] = max(err_max[name], float(abs_err.max()))
                        err_counts[name] += 1
                if not abs_rows:
                    continue
                sample_profile = max_over_pairs(abs_rows, rel_rows, config.percentile_grid)
                per_sample[name].append(sample_profile)
                current = envelopes[name]
                envelopes[name] = (
                    sample_profile if current is None else current.max_with(sample_profile)
                )

        result = CalibrationResult(
            model_name=graph_module.name, config=config, num_samples=num_samples
        )
        n_pairs = len(config.devices) * (len(config.devices) - 1) // 2
        for name, envelope in envelopes.items():
            if envelope is None:
                continue
            count = max(err_counts[name], 1)
            result.operators[name] = OperatorCalibration(
                node_name=name,
                op_type=op_types[name],
                position=positions[name],
                envelope=envelope,
                per_sample_profiles=per_sample[name],
                mean_abs_error=err_sums[name] / count,
                mean_rel_error=rel_sums[name] / count,
                max_abs_error=err_max[name],
                num_pairs=n_pairs,
                num_samples=num_samples,
            )
        return result
