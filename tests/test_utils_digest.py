"""Unit tests for the fixed-memory latency quantile digest.

The digest underwrites every tier's latency quantiles
(``ServiceStats.latency``), so two properties are pinned hard: (1) the
rank-error bound — every reported quantile is within one log-bucket (a
``growth**2`` relative factor, conservatively) of NumPy's exact
``inverted_cdf`` quantile; and (2) a lossless ``to_dict``/``from_dict``
round trip, which carries the digest across the fleet's process boundary.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.utils.digest import LatencyDigest
from repro.utils.rng import seeded_rng

QUANTILES = (0.5, 0.9, 0.99, 0.999)


def _samples(seed: int, n: int) -> np.ndarray:
    """Heavy-tailed positive latencies spanning several decades."""
    rng = seeded_rng(seed)
    return np.exp(rng.normal(loc=-4.0, scale=2.0, size=n))


class TestRankErrorBound:
    def test_quantiles_track_numpy_inverted_cdf(self):
        values = _samples(11, 20_000)
        digest = LatencyDigest()
        digest.add_many(values)
        # One bucket of slack on the index plus the representative's
        # half-bucket offset: growth**2 bounds the relative error.
        bound = digest.growth ** 2
        for q in QUANTILES:
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            approx = digest.quantile(q)
            assert exact / bound <= approx <= exact * bound, (q, exact, approx)

    def test_single_value_is_exact(self):
        digest = LatencyDigest()
        digest.add(0.125)
        for q in QUANTILES:
            assert digest.quantile(q) == 0.125

    def test_quantiles_clamp_to_observed_range(self):
        digest = LatencyDigest()
        digest.add_many([0.01, 0.02, 0.03])
        assert digest.quantile(0.001) >= 0.01
        assert digest.quantile(1.0) <= 0.03

    def test_out_of_range_values_clamp_not_crash(self):
        digest = LatencyDigest(min_value=1e-3, max_value=1.0)
        digest.add(1e-9)   # below min_value -> bucket 0
        digest.add(1e4)    # above max_value -> top bucket
        assert digest.count == 2
        assert digest.quantile(0.5) >= 1e-9
        assert digest.quantile(1.0) <= 1e4

    def test_rejects_negative_and_nan(self):
        digest = LatencyDigest()
        with pytest.raises(ValueError):
            digest.add(-0.1)
        with pytest.raises(ValueError):
            digest.add(float("nan"))

    def test_empty_digest_reports_zero(self):
        digest = LatencyDigest()
        assert digest.count == 0
        assert digest.p50 == 0.0
        assert digest.summary()["max"] == 0.0

    def test_quantile_argument_validation(self):
        digest = LatencyDigest()
        digest.add(1.0)
        with pytest.raises(ValueError):
            digest.quantile(0.0)
        with pytest.raises(ValueError):
            digest.quantile(1.5)


class TestSerialization:
    def test_dict_roundtrip_preserves_state(self):
        digest = LatencyDigest()
        digest.add_many(_samples(3, 2_000))
        clone = LatencyDigest.from_dict(digest.to_dict())
        assert clone.to_dict() == digest.to_dict()
        for q in QUANTILES:
            assert clone.quantile(q) == digest.quantile(q)

    def test_empty_dict_roundtrip(self):
        clone = LatencyDigest.from_dict(LatencyDigest().to_dict())
        assert clone.count == 0
        assert math.isinf(clone.observed_min)


class TestConfigValidation:
    def test_growth_must_exceed_one(self):
        with pytest.raises(ValueError):
            LatencyDigest(growth=1.0)

    def test_range_ordering_enforced(self):
        with pytest.raises(ValueError):
            LatencyDigest(min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            LatencyDigest(min_value=0.0)
