"""Threshold construction and the tolerance check (Eq. 7 and Eq. 15).

A :class:`ThresholdTable` holds, for every operator node, the alpha-scaled
absolute and relative error percentile thresholds.  Its :meth:`check` method
implements the challenger's selection statistic: given an observed error
tensor for an operator, compute its percentile profile and return the maximum
ratio of observed percentile to committed threshold; a ratio above 1 flags
the operator (Eq. 15).  A non-finite ratio (a NaN or infinite observed
percentile) always flags, with ratio +inf.

The serialized table is part of the model commitment — the coordinator
records its Merkle root ``r_e`` alongside the weight and graph roots, so the
thresholds cannot change mid-dispute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.calibrator import CalibrationResult
from repro.calibration.profiles import (
    PERCENTILE_GRID,
    PercentileProfile,
    elementwise_errors,
    percentile_profiles,
)
from repro.utils.serialization import canonical_bytes

#: The paper's default safety factor applied to calibrated percentile values.
DEFAULT_SAFETY_FACTOR = 3.0

#: Thresholds below this floor are clamped up to it before ratio computation,
#: preventing division blow-ups on operators whose calibrated error is
#: exactly zero at low percentiles (e.g. structural operators).
THRESHOLD_FLOOR = 1e-12


@dataclass
class ExceedanceReport:
    """Outcome of checking one operator's observed error against its thresholds."""

    node_name: str
    max_ratio: float
    worst_percentile: float
    worst_kind: str
    exceeded: bool

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.exceeded


@dataclass
class ThresholdTable:
    """Per-operator empirical error percentile thresholds tau_abs / tau_rel."""

    model_name: str
    alpha: float
    grid: Tuple[float, ...]
    abs_thresholds: Dict[str, np.ndarray] = field(default_factory=dict)
    rel_thresholds: Dict[str, np.ndarray] = field(default_factory=dict)
    op_types: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_calibration(cls, result: CalibrationResult,
                         alpha: float = DEFAULT_SAFETY_FACTOR) -> "ThresholdTable":
        """Apply the multiplicative safety factor to the calibrated envelopes (Eq. 7)."""
        grid: Tuple[float, ...] = PERCENTILE_GRID
        table = cls(model_name=result.model_name, alpha=float(alpha), grid=grid)
        for name, calib in result.operators.items():
            if calib.envelope.grid != grid:
                grid = calib.envelope.grid
                table.grid = grid
            table.abs_thresholds[name] = alpha * calib.envelope.abs_values
            table.rel_thresholds[name] = alpha * calib.envelope.rel_values
            table.op_types[name] = calib.op_type
        return table

    def scaled(self, factor: float) -> "ThresholdTable":
        """Return a copy with every threshold multiplied by ``factor``.

        Used by the attack-sensitivity sweeps (Table 2's scale alpha) and by
        the onboarding discussion experiments.
        """
        scaled = ThresholdTable(
            model_name=self.model_name,
            alpha=self.alpha * factor,
            grid=self.grid,
            op_types=dict(self.op_types),
        )
        scaled.abs_thresholds = {k: factor * v for k, v in self.abs_thresholds.items()}
        scaled.rel_thresholds = {k: factor * v for k, v in self.rel_thresholds.items()}
        return scaled

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_operator(self, node_name: str) -> bool:
        return node_name in self.abs_thresholds

    def operator_names(self) -> List[str]:
        return sorted(self.abs_thresholds)

    def abs_threshold(self, node_name: str) -> np.ndarray:
        return self.abs_thresholds[node_name]

    def rel_threshold(self, node_name: str) -> np.ndarray:
        return self.rel_thresholds[node_name]

    def cap_curve(self, node_name: str) -> Tuple[np.ndarray, np.ndarray]:
        """The nondecreasing cap curve C_i used by the attack projection (Sec. 4.3).

        Returns (ranks in [0, 1], caps) where caps are the absolute-error
        thresholds made monotone along the grid.
        """
        caps = np.maximum.accumulate(np.asarray(self.abs_thresholds[node_name], dtype=np.float64))
        ranks = np.asarray(self.grid, dtype=np.float64) / 100.0
        return ranks, caps

    # ------------------------------------------------------------------
    # The tolerance check (Eq. 15)
    # ------------------------------------------------------------------

    def check(self, node_name: str, proposed: np.ndarray, reference: np.ndarray,
              epsilon: float = 1e-12) -> ExceedanceReport:
        """Compare proposer vs. challenger outputs for one operator.

        Computes the observed percentile profile of the element-wise
        absolute/relative errors and returns the maximum observed/threshold
        ratio across the grid and both error kinds.  A claim whose shape
        differs from the reference's is exceeded outright.
        """
        if not self.has_operator(node_name):
            raise KeyError(f"no thresholds calibrated for operator {node_name!r}")
        if np.shape(proposed) != np.shape(reference):
            return self._shape_mismatch_report(node_name)
        abs_err, rel_err = elementwise_errors(proposed, reference, epsilon)
        observed_abs, observed_rel = percentile_profiles([abs_err, rel_err], self.grid)
        return self._ratio_report(node_name, observed_abs, observed_rel)

    def check_profile(self, node_name: str, profile: PercentileProfile) -> ExceedanceReport:
        """Check a pre-computed percentile profile against the thresholds."""
        return self._ratio_report(node_name, profile.abs_values, profile.rel_values)

    def _shape_mismatch_report(self, node_name: str) -> ExceedanceReport:
        """A claim shaped unlike the reference is unbounded at every percentile."""
        return ExceedanceReport(
            node_name=node_name,
            max_ratio=float("inf"),
            worst_percentile=float(self.grid[0]),
            worst_kind="abs",
            exceeded=True,
        )

    def _ratio_report(self, node_name: str, observed_abs: np.ndarray,
                      observed_rel: np.ndarray) -> ExceedanceReport:
        tau_abs = np.maximum(self.abs_thresholds[node_name], THRESHOLD_FLOOR)
        tau_rel = np.maximum(self.rel_thresholds[node_name], THRESHOLD_FLOOR)
        ratios_abs = np.asarray(observed_abs, dtype=np.float64) / tau_abs
        ratios_rel = np.asarray(observed_rel, dtype=np.float64) / tau_rel
        # A NaN ratio compares False against every bound; any non-finite
        # ratio is therefore reported as an unbounded exceedance.
        for kind, ratios in (("abs", ratios_abs), ("rel", ratios_rel)):
            finite = np.isfinite(ratios)
            if not finite.all():
                return ExceedanceReport(
                    node_name=node_name,
                    max_ratio=float("inf"),
                    worst_percentile=float(self.grid[int(np.argmin(finite))]),
                    worst_kind=kind,
                    exceeded=True,
                )
        max_abs_idx = int(np.argmax(ratios_abs))
        max_rel_idx = int(np.argmax(ratios_rel))
        if ratios_abs[max_abs_idx] >= ratios_rel[max_rel_idx]:
            max_ratio = float(ratios_abs[max_abs_idx])
            worst_percentile = float(self.grid[max_abs_idx])
            worst_kind = "abs"
        else:
            max_ratio = float(ratios_rel[max_rel_idx])
            worst_percentile = float(self.grid[max_rel_idx])
            worst_kind = "rel"
        return ExceedanceReport(
            node_name=node_name,
            max_ratio=max_ratio,
            worst_percentile=worst_percentile,
            worst_kind=worst_kind,
            exceeded=max_ratio > 1.0,
        )

    # ------------------------------------------------------------------
    # Commitment payload
    # ------------------------------------------------------------------

    def leaf_payloads(self) -> Dict[str, bytes]:
        """Canonical per-operator byte payloads merkleized into root r_e."""
        payloads: Dict[str, bytes] = {}
        for name in self.operator_names():
            payloads[name] = canonical_bytes({
                "node": name,
                "op_type": self.op_types.get(name, ""),
                "alpha": self.alpha,
                "grid": list(self.grid),
                "abs": self.abs_thresholds[name],
                "rel": self.rel_thresholds[name],
            })
        return payloads

    def to_dict(self) -> Dict[str, object]:
        return {
            "model_name": self.model_name,
            "alpha": self.alpha,
            "grid": list(self.grid),
            "operators": {
                name: {
                    "op_type": self.op_types.get(name, ""),
                    "abs": self.abs_thresholds[name].tolist(),
                    "rel": self.rel_thresholds[name].tolist(),
                }
                for name in self.operator_names()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ThresholdTable":
        table = cls(
            model_name=str(payload["model_name"]),
            alpha=float(payload["alpha"]),
            grid=tuple(payload["grid"]),
        )
        for name, entry in dict(payload["operators"]).items():
            table.abs_thresholds[name] = np.asarray(entry["abs"], dtype=np.float64)
            table.rel_thresholds[name] = np.asarray(entry["rel"], dtype=np.float64)
            table.op_types[name] = str(entry.get("op_type", ""))
        return table
