"""FP32 accumulation orderings.

IEEE-754 addition is not associative: ``(a + b) + c`` and ``a + (b + c)``
round differently.  Real GPU kernels exploit this freedom — warp-level tree
reductions, split-K matmuls, atomics — which is exactly why two accelerators
(or two runs) disagree in the low-order bits.  This module makes that freedom
explicit: a reduction is computed by splitting the reduced axis into chunks,
summing each chunk, and then combining the chunk partials according to an
:class:`AccumulationStrategy`.  Different strategies and chunk sizes produce
*genuinely different* FP32 results, which is the raw material for the paper's
empirical calibration (Sec. 3.2) and dispute game (Sec. 5).

All arithmetic here is performed in ``float32`` unless a strategy explicitly
requests a wider accumulator (the ``FP64`` strategy is used only as the
high-precision reference for error measurement, never as a "device").
"""

from __future__ import annotations

from enum import Enum
from typing import List

import numpy as np


class AccumulationStrategy(str, Enum):
    """How chunk partial sums are combined into the final reduction value."""

    #: Left-to-right sequential accumulation of chunk partials.
    SEQUENTIAL = "sequential"
    #: Right-to-left accumulation (reverse order).
    REVERSED = "reversed"
    #: Balanced binary-tree (pairwise) combination.
    PAIRWISE = "pairwise"
    #: Kahan compensated summation over the chunk partials.
    KAHAN = "kahan"
    #: Sequential accumulation with partial sums rounded to bfloat16 precision
    #: after every combine — models reduced-precision accumulate fast paths
    #: (TF32-style tensor-core modes) that must be onboarded as their own
    #: configuration class before they can serve under a commitment.
    REDUCED_PRECISION = "reduced_precision"
    #: Accumulate in float64 and round once at the end (reference only).
    FP64 = "fp64"


def split_chunks(length: int, chunk: int) -> List[slice]:
    """Return the list of slices partitioning ``range(length)`` into chunks."""
    if chunk <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk}")
    return [slice(start, min(start + chunk, length)) for start in range(0, length, chunk)]


def accumulate_partials(partials: np.ndarray, strategy: AccumulationStrategy) -> np.ndarray:
    """Combine ``partials`` along axis 0 according to ``strategy``.

    ``partials`` has shape ``(n_chunks, ...)``; the result drops axis 0.  Each
    strategy performs the combination in float32, so the choice of strategy
    changes the rounding of the final value.  ``FP64`` is not a combine
    order: the split-K contraction and :func:`chunked_sum` take their float64
    reference path before any partials exist, and it is rejected here.
    """
    if partials.ndim == 0:
        raise ValueError("partials must have at least one dimension")
    n = partials.shape[0]
    if n == 0:
        raise ValueError("cannot accumulate zero partials")

    parts = partials.astype(np.float32, copy=False)
    if strategy is AccumulationStrategy.SEQUENTIAL:
        acc = parts[0].copy()
        for i in range(1, n):
            acc = (acc + parts[i]).astype(np.float32)
        return acc
    if strategy is AccumulationStrategy.REVERSED:
        acc = parts[n - 1].copy()
        for i in range(n - 2, -1, -1):
            acc = (acc + parts[i]).astype(np.float32)
        return acc
    if strategy is AccumulationStrategy.PAIRWISE:
        level = [parts[i] for i in range(n)]
        while len(level) > 1:
            next_level = []
            for i in range(0, len(level) - 1, 2):
                next_level.append((level[i] + level[i + 1]).astype(np.float32))
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            level = next_level
        return level[0]
    if strategy is AccumulationStrategy.KAHAN:
        acc = parts[0].astype(np.float32).copy()
        comp = np.zeros_like(acc)
        for i in range(1, n):
            y = (parts[i] - comp).astype(np.float32)
            t = (acc + y).astype(np.float32)
            comp = ((t - acc).astype(np.float32) - y).astype(np.float32)
            acc = t
        return acc
    if strategy is AccumulationStrategy.REDUCED_PRECISION:
        acc = _round_to_bfloat16(parts[0])
        for i in range(1, n):
            acc = _round_to_bfloat16((acc + parts[i]).astype(np.float32))
        return acc
    raise ValueError(f"unknown accumulation strategy: {strategy!r}")


def _round_to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round float32 values to bfloat16 precision (truncate the low 16 mantissa bits)."""
    as_int = np.asarray(values, dtype=np.float32).view(np.uint32)
    # Round-to-nearest on the dropped half-word, then clear it.
    rounded = ((as_int + 0x8000) & np.uint32(0xFFFF0000)).astype(np.uint32)
    return rounded.view(np.float32).copy()


def chunked_sum(
    values: np.ndarray,
    axis: int,
    chunk: int,
    strategy: AccumulationStrategy,
) -> np.ndarray:
    """Sum ``values`` along ``axis`` with device-specific chunking and ordering.

    The one chunked reduction every device-reading sum runs through.  Each
    chunk is summed with NumPy's native float32 reduction (standing in for
    the within-tile reduction a GPU thread block performs); the chunk
    partials are then combined via :func:`accumulate_partials`, which is
    where the cross-device divergence originates.  The ``FP64`` reference
    sums once in float64 and rounds once.
    """
    values = np.asarray(values)
    axis = axis % values.ndim
    length = values.shape[axis]
    if length == 0:
        shape = list(values.shape)
        del shape[axis]
        return np.zeros(shape, dtype=np.float32)
    slices = split_chunks(length, chunk)
    moved = np.moveaxis(values, axis, 0)
    if strategy is AccumulationStrategy.FP64:
        return moved.astype(np.float64).sum(axis=0).astype(np.float32)
    partials = np.stack(
        [moved[s].astype(np.float32).sum(axis=0, dtype=np.float32) for s in slices],
        axis=0,
    )
    return accumulate_partials(partials, strategy)
