"""Percentile-profile data structures.

A :class:`PercentileProfile` is the percentile-value vector of one error
tensor over the calibration grid ``P`` (Eqs. 3-4 in the paper); an
:class:`OperatorCalibration` aggregates the per-(device pair, sample)
profiles of one operator together with their max-envelope (Eqs. 5-6) and the
summary statistics used by the attack-headroom and heatmap experiments.

:func:`percentile_profiles` is the one routine that turns error tensors into
percentile vectors: both calibration passes hand it every device pair of one
(sample, operator) at once, and the Eq. 15 checks use its one-row case.
:func:`non_finite_errors` is the element-wise rule for NaN and inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The paper's percentile grid P = {0, 1, 5, 10, 15, ..., 90, 95, 99, 100}.
PERCENTILE_GRID: Tuple[float, ...] = tuple(
    [0.0, 1.0] + [float(p) for p in range(5, 95, 5)] + [95.0, 99.0, 100.0]
)

#: Small constant protecting the relative-error denominator (Eq. 2).
RELATIVE_ERROR_EPSILON = 1e-12


def percentile_profiles(rows: Sequence[np.ndarray],
                        grid: Sequence[float] = PERCENTILE_GRID) -> np.ndarray:
    """Percentile-value vectors of equally sized error rows, one sorted pass.

    Returns a ``(len(rows), len(grid))`` array whose row ``i`` is
    ``np.percentile(rows[i], grid)`` bit for bit: the rows are stacked as
    float64 and sorted together, the floor/ceil order statistics are
    gathered at NumPy's linear virtual indices ``(n - 1) * grid / 100``, and
    interpolated with NumPy's ``_lerp`` rule.  A row holding a NaN yields an
    all-NaN vector, as ``np.percentile`` does; empty rows yield zeros.
    """
    if not len(rows):
        return np.zeros((0, len(grid)), dtype=np.float64)
    # np.stack copies, so the in-place sort never touches the caller's rows.
    stacked = np.stack([np.asarray(row, dtype=np.float64).ravel() for row in rows])
    n = stacked.shape[1]
    if n == 0:
        return np.zeros((len(rows), len(grid)), dtype=np.float64)
    stacked.sort(axis=1)
    virtual = (n - 1) * np.true_divide(np.asarray(grid, dtype=np.float64), 100)
    lower = np.floor(virtual)
    upper = lower + 1
    # At or past the last order statistic both neighbours are the maximum.
    last = virtual >= n - 1
    lower[last] = -1
    upper[last] = -1
    lower = lower.astype(np.intp)
    t = virtual - lower
    a = stacked[:, lower]
    b = stacked[:, upper.astype(np.intp)]
    with np.errstate(invalid="ignore"):
        diff = b - a
        values = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    has_nan = np.isnan(stacked[:, -1])
    if has_nan.any():
        values[has_nan] = stacked[has_nan, -1:]
    return values


def percentile_profile(errors: np.ndarray,
                       grid: Sequence[float] = PERCENTILE_GRID) -> np.ndarray:
    """Percentile-value vector of ``errors`` (flattened): the one-row case."""
    return percentile_profiles([errors], grid)[0]


def non_finite_errors(a64: np.ndarray, b64: np.ndarray, abs_err: np.ndarray,
                      rel_err: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Apply the non-finite rule to the element-wise errors of ``a64`` vs ``b64``.

    An element where both sides are NaN, or the same infinity, agrees (error
    0); one where exactly one side is non-finite, or the infinities differ in
    sign, has error +inf.  Finite elements keep their errors.  Any
    non-finite side makes ``abs_err`` non-finite there, so finite inputs
    cost one scan of ``abs_err``.
    """
    if np.isfinite(abs_err).all():
        return abs_err, rel_err
    finite = np.isfinite(a64) & np.isfinite(b64)
    agree = (a64 == b64) | (np.isnan(a64) & np.isnan(b64))
    fill = np.where(agree, 0.0, np.inf)
    return np.where(finite, abs_err, fill), np.where(finite, rel_err, fill)


def elementwise_errors(a: np.ndarray, b: np.ndarray,
                       epsilon: float = RELATIVE_ERROR_EPSILON
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Element-wise absolute and relative errors between two tensors (Eqs. 1-2).

    Non-finite elements follow :func:`non_finite_errors`.
    """
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        abs_err = np.abs(a64 - b64)
        rel_err = abs_err / (np.abs(a64) + epsilon)
    return non_finite_errors(a64, b64, abs_err, rel_err)


@dataclass
class PercentileProfile:
    """Absolute + relative percentile-value vectors over the grid."""

    grid: Tuple[float, ...]
    abs_values: np.ndarray
    rel_values: np.ndarray

    def __post_init__(self) -> None:
        self.abs_values = np.asarray(self.abs_values, dtype=np.float64)
        self.rel_values = np.asarray(self.rel_values, dtype=np.float64)
        if self.abs_values.shape != (len(self.grid),) or self.rel_values.shape != (len(self.grid),):
            raise ValueError("profile vectors must match the percentile grid length")

    @classmethod
    def from_errors(cls, abs_err: np.ndarray, rel_err: np.ndarray,
                    grid: Sequence[float] = PERCENTILE_GRID) -> "PercentileProfile":
        abs_values, rel_values = percentile_profiles([abs_err, rel_err], grid)
        return cls(tuple(grid), abs_values, rel_values)

    def max_with(self, other: "PercentileProfile") -> "PercentileProfile":
        """Pointwise maximum (the envelope combination of Eqs. 5-6)."""
        if self.grid != other.grid:
            raise ValueError("cannot combine profiles over different grids")
        return PercentileProfile(
            self.grid,
            np.maximum(self.abs_values, other.abs_values),
            np.maximum(self.rel_values, other.rel_values),
        )

    def scaled(self, alpha: float) -> "PercentileProfile":
        return PercentileProfile(self.grid, alpha * self.abs_values, alpha * self.rel_values)

    def value_at(self, percentile: float, kind: str = "abs") -> float:
        values = self.abs_values if kind == "abs" else self.rel_values
        try:
            index = self.grid.index(float(percentile))
        except ValueError:
            raise KeyError(f"percentile {percentile} not on grid") from None
        return float(values[index])

    def to_dict(self) -> Dict[str, List[float]]:
        return {
            "grid": list(self.grid),
            "abs": self.abs_values.tolist(),
            "rel": self.rel_values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, List[float]]) -> "PercentileProfile":
        return cls(tuple(payload["grid"]), np.asarray(payload["abs"]),
                   np.asarray(payload["rel"]))


def max_over_pairs(abs_rows: List[np.ndarray], rel_rows: List[np.ndarray],
                   grid: Sequence[float] = PERCENTILE_GRID) -> PercentileProfile:
    """One sample's profile: the pointwise max over device pairs (Eqs. 5-6).

    ``abs_rows[i]`` and ``rel_rows[i]`` are pair ``i``'s error tensors; all
    of them go through one :func:`percentile_profiles` call.
    """
    values = percentile_profiles(abs_rows + rel_rows, grid)
    pairs = len(abs_rows)
    return PercentileProfile(tuple(grid), values[:pairs].max(axis=0),
                             values[pairs:].max(axis=0))


@dataclass
class OperatorCalibration:
    """All calibration data gathered for a single operator node.

    ``per_sample_profiles`` holds, for each calibration input (in order), the
    max-over-device-pairs profile for that input — this is the sequence the
    Appendix-B stability diagnostics analyse.  ``envelope`` is the max over
    all pairs and samples (Eqs. 5-6).
    """

    node_name: str
    op_type: str
    position: int
    envelope: PercentileProfile
    per_sample_profiles: List[PercentileProfile] = field(default_factory=list)
    mean_abs_error: float = 0.0
    mean_rel_error: float = 0.0
    max_abs_error: float = 0.0
    num_pairs: int = 0
    num_samples: int = 0

    def sample_series(self, percentile: float, kind: str = "abs") -> np.ndarray:
        """Per-sample sequence y_{i,p,t} for one percentile (stability input)."""
        return np.asarray(
            [profile.value_at(percentile, kind) for profile in self.per_sample_profiles],
            dtype=np.float64,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_name": self.node_name,
            "op_type": self.op_type,
            "position": self.position,
            "envelope": self.envelope.to_dict(),
            "mean_abs_error": self.mean_abs_error,
            "mean_rel_error": self.mean_rel_error,
            "max_abs_error": self.max_abs_error,
            "num_pairs": self.num_pairs,
            "num_samples": self.num_samples,
        }
