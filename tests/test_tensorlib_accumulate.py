"""Unit and property-based tests for FP32 accumulation orderings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensorlib.accumulate import (
    AccumulationStrategy,
    accumulate_partials,
    chunked_sum,
    split_chunks,
)


def test_split_chunks_covers_range_exactly():
    slices = split_chunks(10, 3)
    covered = []
    for s in slices:
        covered.extend(range(s.start, s.stop))
    assert covered == list(range(10))


def test_split_chunks_rejects_nonpositive_chunk():
    with pytest.raises(ValueError):
        split_chunks(10, 0)


#: The FP32 combine orders.  ``FP64`` is no combine order: both device
#: primitives take their float64 reference path before any partials exist.
FULL_PRECISION_STRATEGIES = [s for s in AccumulationStrategy
                             if s not in (AccumulationStrategy.REDUCED_PRECISION,
                                          AccumulationStrategy.FP64)]


@pytest.mark.parametrize("strategy", FULL_PRECISION_STRATEGIES)
def test_accumulate_partials_close_to_fp64(strategy, rng):
    partials = rng.standard_normal((9, 16)).astype(np.float32)
    exact = partials.astype(np.float64).sum(axis=0)
    result = accumulate_partials(partials, strategy)
    assert result.dtype == np.float32
    assert np.allclose(result, exact, rtol=1e-5, atol=1e-5)


def test_accumulate_partials_single_chunk_is_identity(rng):
    partials = rng.standard_normal((1, 8)).astype(np.float32)
    for strategy in FULL_PRECISION_STRATEGIES:
        assert np.allclose(accumulate_partials(partials, strategy), partials[0], atol=1e-7)


def test_reduced_precision_accumulation_is_coarser_but_close(rng):
    """The TF32-style accumulate path is much less precise than any FP32 ordering,
    yet still approximately correct — the behaviour that forces onboarding."""
    partials = rng.standard_normal((32, 64)).astype(np.float32)
    exact = partials.astype(np.float64).sum(axis=0)
    reduced = accumulate_partials(partials, AccumulationStrategy.REDUCED_PRECISION)
    sequential = accumulate_partials(partials, AccumulationStrategy.SEQUENTIAL)
    scale = np.abs(partials).sum(axis=0) + 1.0
    err_reduced = np.abs(reduced - exact) / scale
    err_sequential = np.abs(sequential - exact) / scale
    assert np.allclose(reduced, exact, rtol=5e-2, atol=5e-2)
    assert err_reduced.max() > 10 * err_sequential.max()


def test_accumulate_partials_rejects_empty():
    with pytest.raises(ValueError):
        accumulate_partials(np.zeros((0, 4), dtype=np.float32), AccumulationStrategy.SEQUENTIAL)


def test_accumulate_partials_rejects_fp64(rng):
    with pytest.raises(ValueError):
        accumulate_partials(rng.standard_normal((3, 4)).astype(np.float32),
                            AccumulationStrategy.FP64)


def test_chunked_sum_fp64_rounds_the_float64_sum_once(rng):
    values = (rng.standard_normal((300, 5)) * 1e3).astype(np.float32)
    out = chunked_sum(values, axis=0, chunk=7, strategy=AccumulationStrategy.FP64)
    assert out.tobytes() == values.astype(np.float64).sum(axis=0).astype(np.float32).tobytes()


def test_orderings_actually_differ_in_low_bits(rng):
    # Large cancellation-heavy sums make re-association visible in FP32.
    values = (rng.standard_normal(4096) * 1e3).astype(np.float32)
    seq = chunked_sum(values, axis=0, chunk=32, strategy=AccumulationStrategy.SEQUENTIAL)
    rev = chunked_sum(values, axis=0, chunk=32, strategy=AccumulationStrategy.REVERSED)
    pair = chunked_sum(values, axis=0, chunk=64, strategy=AccumulationStrategy.PAIRWISE)
    results = {np.float32(seq).tobytes(), np.float32(rev).tobytes(), np.float32(pair).tobytes()}
    assert len(results) >= 2, "different accumulation orders should round differently"


def test_chunked_sum_matches_numpy_reasonably(rng):
    values = rng.standard_normal((64, 7)).astype(np.float32)
    for strategy in (AccumulationStrategy.SEQUENTIAL, AccumulationStrategy.PAIRWISE,
                     AccumulationStrategy.KAHAN):
        result = chunked_sum(values, axis=0, chunk=8, strategy=strategy)
        assert np.allclose(result, values.astype(np.float64).sum(axis=0), rtol=1e-5, atol=1e-4)


def test_chunked_sum_empty_axis_returns_zeros():
    values = np.zeros((0, 5), dtype=np.float32)
    out = chunked_sum(values, axis=0, chunk=4, strategy=AccumulationStrategy.SEQUENTIAL)
    assert out.shape == (5,)
    assert (out == 0).all()


def test_chunked_sum_negative_axis(rng):
    values = rng.standard_normal((3, 17)).astype(np.float32)
    out = chunked_sum(values, axis=-1, chunk=4, strategy=AccumulationStrategy.SEQUENTIAL)
    assert out.shape == (3,)
    assert np.allclose(out, values.sum(axis=1), atol=1e-4)


def test_kahan_is_at_least_as_accurate_as_sequential(rng):
    values = (rng.standard_normal(8192) * 1e4).astype(np.float32)
    exact = values.astype(np.float64).sum()
    seq = float(chunked_sum(values, axis=0, chunk=1, strategy=AccumulationStrategy.SEQUENTIAL))
    kahan = float(chunked_sum(values, axis=0, chunk=1, strategy=AccumulationStrategy.KAHAN))
    assert abs(kahan - exact) <= abs(seq - exact) + 1e-6


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(1, 300),
    chunk=st.integers(1, 64),
    strategy=st.sampled_from([AccumulationStrategy.SEQUENTIAL, AccumulationStrategy.REVERSED,
                              AccumulationStrategy.PAIRWISE, AccumulationStrategy.KAHAN]),
    seed=st.integers(0, 2**16),
)
def test_chunked_sum_always_close_to_exact(n, chunk, strategy, seed):
    values = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
    exact = values.astype(np.float64).sum()
    approx = float(chunked_sum(values, axis=0, chunk=chunk, strategy=strategy))
    scale = float(np.abs(values).sum()) + 1.0
    assert abs(approx - exact) <= 1e-5 * scale
