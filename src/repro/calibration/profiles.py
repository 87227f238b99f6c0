"""Percentile-profile data structures.

A :class:`PercentileProfile` is the percentile-value vector of one error
tensor over the calibration grid ``P`` (Eqs. 3-4 in the paper); an
:class:`OperatorCalibration` aggregates the per-(device pair, sample)
profiles of one operator together with their max-envelope (Eqs. 5-6) and the
summary statistics used by the attack-headroom and heatmap experiments.

:func:`pair_error_rows` is the one error routine: per (sample, operator) a
calibration pass hands it the D device rows, their D denominator rows and the
pair indices, and it returns the absolute and relative error rows of all P
pairs, both directions from one ``|a - b|``.  :func:`sort_percentiles` sorts
those rows in place and reads the grid off them; :func:`percentile_profiles`
is its copying form.  The one-tensor Eq. 15 statistic :func:`elementwise_errors` is the
one-row case.  :func:`non_finite_errors` applies the element-wise rule for
NaN and inf in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The paper's percentile grid P = {0, 1, 5, 10, 15, ..., 90, 95, 99, 100}.
PERCENTILE_GRID: Tuple[float, ...] = tuple(
    [0.0, 1.0] + [float(p) for p in range(5, 95, 5)] + [95.0, 99.0, 100.0]
)

#: Small constant protecting the relative-error denominator (Eq. 2).
RELATIVE_ERROR_EPSILON = 1e-12


def stack_rows(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Equally shaped tensors as the flattened float64 rows of a 2-D array."""
    out = np.empty((len(tensors), np.size(tensors[0])), dtype=np.float64)
    # axis=None flattens each tensor in C order straight into the rows.
    np.concatenate(tensors, axis=None, out=out.reshape(-1))
    return out


def sort_percentiles(rows: np.ndarray,
                     grid: Sequence[float] = PERCENTILE_GRID) -> np.ndarray:
    """Percentile-value vectors of the rows of a 2-D float64 array, sorted in place.

    Returns a ``(len(rows), len(grid))`` array whose row ``i`` is
    ``np.percentile(rows[i], grid)`` bit for bit: ``rows`` is sorted along
    its rows, the floor/ceil order statistics are gathered at NumPy's linear
    virtual indices ``(n - 1) * grid / 100``, and interpolated with NumPy's
    ``_lerp`` rule.  A row holding a NaN yields an all-NaN vector, as
    ``np.percentile`` does; empty rows yield zeros.
    """
    n = rows.shape[1]
    if n == 0:
        return np.zeros((len(rows), len(grid)), dtype=np.float64)
    rows.sort(axis=1)
    virtual = (n - 1) * np.true_divide(np.asarray(grid, dtype=np.float64), 100)
    lower = np.floor(virtual)
    upper = lower + 1
    # At or past the last order statistic both neighbours are the maximum.
    last = virtual >= n - 1
    lower[last] = -1
    upper[last] = -1
    lower = lower.astype(np.intp)
    t = virtual - lower
    a = rows[:, lower]
    b = rows[:, upper.astype(np.intp)]
    with np.errstate(invalid="ignore"):
        diff = b - a
        values = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    has_nan = np.isnan(rows[:, -1])
    if has_nan.any():
        values[has_nan] = rows[has_nan, -1:]
    return values


def percentile_profiles(rows: Sequence[np.ndarray],
                        grid: Sequence[float] = PERCENTILE_GRID) -> np.ndarray:
    """:func:`sort_percentiles` of a float64 copy of ``rows``.

    ``rows`` is a 2-D array or a sequence of equally shaped tensors; each of
    its entries is flattened into one row, and the caller's data is left
    untouched.
    """
    if not len(rows):
        return np.zeros((0, len(grid)), dtype=np.float64)
    return sort_percentiles(stack_rows(rows), grid)


def percentile_profile(errors: np.ndarray,
                       grid: Sequence[float] = PERCENTILE_GRID) -> np.ndarray:
    """Percentile-value vector of ``errors`` (flattened): the one-row case."""
    return percentile_profiles([errors], grid)[0]


def non_finite_errors(a64: np.ndarray, b64: np.ndarray, *errors: np.ndarray) -> None:
    """Apply the non-finite rule, in place, to error arrays of ``a64`` vs ``b64``.

    An element where both sides are NaN, or the same infinity, agrees (error
    0); one where exactly one side is non-finite, or the infinities differ in
    sign, has error +inf.  Every array in ``errors`` is overwritten at those
    elements; finite elements keep their errors.
    """
    finite = np.isfinite(a64) & np.isfinite(b64)
    agree = (a64 == b64) | (np.isnan(a64) & np.isnan(b64))
    fill = np.where(agree, 0.0, np.inf)
    for err in errors:
        np.copyto(err, fill, where=~finite)


def pair_error_rows(a_rows: np.ndarray, a_den: np.ndarray, a_index: np.ndarray,
                    b_rows: np.ndarray, b_index: Optional[np.ndarray] = None,
                    b_den: Optional[np.ndarray] = None,
                    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Element-wise absolute and relative errors of P row pairs.

    Pair ``p`` compares row ``a_index[p]`` of ``a_rows`` with row
    ``b_index[p]`` of ``b_rows`` (row ``p`` when ``b_index`` is None).
    Returns ``(errors, reverse)``.  ``errors`` is a ``(2P, n)`` float64
    array: rows ``[:P]`` hold ``|a - b|`` (Eq. 1) and rows ``[P:]`` that
    divided by the pair's row of ``a_den`` (Eq. 2's ``|a| + eps``, or the
    leaf's floored magnitude), which is indexed like ``a_rows``.  With
    ``b_den`` (indexed like ``b_rows``), ``reverse`` is the reversed
    direction, the same ``|a - b|`` divided by ``b``'s denominator, as a
    ``(P, n)`` array; without it, None.  Denominators come per distinct row,
    so D device rows need D denominator rows, not P.  Non-finite elements
    follow :func:`non_finite_errors` in every output.
    """
    pairs = len(a_index)
    errors = np.empty((2 * pairs, a_rows.shape[1]), dtype=np.float64)
    abs_rows, rel_rows = errors[:pairs], errors[pairs:]
    outputs = [abs_rows, rel_rows]
    reverse = None
    # The gathers write straight into the result rows.  mode="clip" because
    # "raise" buffers the output; the pair indices are in range by
    # construction.
    with np.errstate(invalid="ignore"):
        np.take(a_rows, a_index, axis=0, out=abs_rows, mode="clip")
        if b_index is None:
            np.subtract(abs_rows, b_rows, out=abs_rows)
        else:
            np.take(b_rows, b_index, axis=0, out=rel_rows, mode="clip")
            np.subtract(abs_rows, rel_rows, out=abs_rows)
        np.abs(abs_rows, out=abs_rows)
        np.take(a_den, a_index, axis=0, out=rel_rows, mode="clip")
        np.divide(abs_rows, rel_rows, out=rel_rows)
        if b_den is not None:
            if b_index is None:
                reverse = abs_rows / b_den
            else:
                reverse = np.take(b_den, b_index, axis=0)
                np.divide(abs_rows, reverse, out=reverse)
            outputs.append(reverse)
    # A non-finite side makes |a - b| NaN or inf, and a max propagates both,
    # so finite inputs cost one scan of the abs rows.
    if not np.isfinite(abs_rows.max(initial=0.0)):
        b_pairs = b_rows if b_index is None else b_rows[b_index]
        non_finite_errors(a_rows[a_index], b_pairs, *outputs)
    return errors, reverse


#: The pair index of the one-row case.
_ONE_PAIR = np.zeros(1, dtype=np.intp)


def tensor_pair_errors(
    a: np.ndarray, b: np.ndarray,
    denominators: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Absolute and relative errors of one tensor pair: the one-row case.

    ``denominators`` maps ``a`` as a ``(1, n)`` float64 row to its
    denominator row.  Returns both error tensors in the pair's shape; the
    shapes must be equal, never broadcast.
    """
    shape = np.shape(a)
    if np.shape(b) != shape:
        raise ValueError(f"errors need equal shapes, got {shape} and {np.shape(b)}")
    a_row = np.asarray(a, dtype=np.float64).reshape(1, -1)
    b_row = np.asarray(b, dtype=np.float64).reshape(1, -1)
    errors, _ = pair_error_rows(a_row, denominators(a_row), _ONE_PAIR, b_row)
    return errors[0].reshape(shape), errors[1].reshape(shape)


def elementwise_errors(a: np.ndarray, b: np.ndarray,
                       epsilon: float = RELATIVE_ERROR_EPSILON
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Element-wise absolute and relative errors of two equally shaped tensors
    (Eqs. 1-2), the relative one over ``|a| + epsilon``."""
    return tensor_pair_errors(a, b, lambda row: np.abs(row) + epsilon)


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


def max_over_pairs(errors: np.ndarray,
                   grid: Sequence[float] = PERCENTILE_GRID) -> PercentileProfile:
    """One sample's profile: the pointwise max over device pairs (Eqs. 5-6).

    ``errors`` holds the P pairs' absolute error rows, then their relative
    error rows, as one ``(2P, n)`` float64 array; it is sorted in place by
    one :func:`sort_percentiles` call.
    """
    values = sort_percentiles(errors, grid)
    pairs = len(errors) // 2
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
