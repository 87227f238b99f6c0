"""The in-tree ``erf`` kernel against ``scipy.special.erf``, compared as bits.

scipy is the oracle only: the runtime evaluates Cephes' erf itself
(:mod:`repro.tensorlib.transcendental`), so ``import repro`` must not load
scipy at all.  A float32 result must carry the same bits as scipy's; a
float64 result may differ by one ulp (numpy's ``exp`` is not the C
library's).  The strided sweep visits every 509th float32 bit pattern, so it
covers both signs, every exponent and both branches, including the
saturated tail, NaN payloads and subnormals.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

special = pytest.importorskip("scipy.special")

from repro.tensorlib import erf  # noqa: E402

#: Smallest float32 whose float32 erf is 1.0.
F32_SATURATION = np.uint32(0x407AD445).view(np.float32)
SWEEP_STRIDE = 509
SWEEP_CHUNK = 1 << 20


def _assert_same_bits(x: np.ndarray) -> None:
    got, want = erf(x), special.erf(x)
    assert got.dtype == want.dtype == np.float32
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    mismatched = x[(got.view(np.uint32) != want.view(np.uint32)) & ~nan]
    assert mismatched.size == 0, mismatched[:8]


def _edges() -> np.ndarray:
    one, four = np.float32(1.0), np.float32(4.0)
    tiny = np.uint32(1).view(np.float32)
    values = [0.0, np.inf, np.nan, tiny, one,
              np.nextafter(one, np.float32(0)), np.nextafter(one, np.float32(2)),
              four, np.nextafter(four, np.float32(0)), F32_SATURATION,
              np.nextafter(F32_SATURATION, np.float32(0)), np.float32(8.0),
              np.finfo(np.float32).max, np.finfo(np.float32).tiny]
    positive = np.array(values, dtype=np.float32)
    return np.concatenate([positive, -positive])


def test_float32_edges_match_scipy_bits():
    x = _edges()
    _assert_same_bits(x)
    assert erf(np.float32(-0.0)).view(np.uint32) == np.float32(-0.0).view(np.uint32)
    assert erf(F32_SATURATION) == 1.0
    assert erf(np.nextafter(F32_SATURATION, np.float32(0))) < 1.0


def test_float32_strided_bit_sweep_matches_scipy_bits():
    step = SWEEP_STRIDE * SWEEP_CHUNK
    with np.errstate(invalid="ignore"):  # signalling-NaN bit patterns
        for start in range(0, 1 << 32, step):
            stop = min(start + step, 1 << 32)
            bits = np.arange(start, stop, SWEEP_STRIDE, dtype=np.uint64)
            _assert_same_bits(bits.astype(np.uint32).view(np.float32))


def test_float64_is_within_one_ulp_of_scipy():
    x = np.concatenate([np.linspace(-7.0, 7.0, 200_001),
                        [0.0, -0.0, 1.0, -1.0, 6.0, 30.0, np.inf, -np.inf, 5e-324]])
    got, want = erf(x), special.erf(x)
    assert got.dtype == np.float64
    assert np.array_equal(np.signbit(got), np.signbit(want))
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 1
    assert np.isnan(erf(np.array([np.nan]))).all()


def test_float64_differs_from_scipy_only_through_exp():
    """|x| <= 1 uses no exp, so it is bit-identical; above 1, wherever numpy's
    exp(-x^2) equals the C library's (``math.exp``, scipy's), so is erf."""
    small = np.linspace(-1.0, 1.0, 100_001)
    np.testing.assert_array_equal(erf(small).view(np.int64),
                                  special.erf(small).view(np.int64))
    large = np.linspace(1.0, 6.0, 50_001)[1:]
    same_exp = np.exp(-large * large) == [math.exp(-v * v) for v in large]
    assert same_exp.mean() > 0.5
    x = np.concatenate([large[same_exp], -large[same_exp]])
    np.testing.assert_array_equal(erf(x).view(np.int64),
                                  special.erf(x).view(np.int64))


def test_shapes_and_scalars_are_preserved():
    x = np.linspace(-3, 3, 24, dtype=np.float32).reshape(2, 3, 4)
    assert erf(x).shape == (2, 3, 4)
    assert erf(np.float32(0.5)).dtype == np.float32
    assert erf(0.5) == special.erf(0.5)


def test_runtime_imports_no_scipy():
    """The package, the cluster and the fleet need numpy only."""
    probe = ("import sys, repro, repro.cluster, repro.fleet; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
