"""Fixed-memory latency quantile digest.

Every service tier reports p50/p99/p999 over millions of observations in a
record whose size does not grow with the request count
(``ServiceStats.latency``, one digest per front end, fed as ``process()``
returns each request).  :class:`LatencyDigest` is a log-bucketed
histogram: bucket ``i`` covers the half-open interval
``(min_value * growth**(i-1), min_value * growth**i]``, so the bucket count is
fixed by the configured dynamic range and the relative value error of any
quantile is bounded by the bucket width — at the default ``growth=1.02``,
under about one percent.

``quantile`` follows NumPy's ``inverted_cdf`` method at bucket granularity:
the value reported for rank ``ceil(q * count)`` is the geometric midpoint of
the bucket holding that rank, clamped into the exact observed range.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable


class LatencyDigest:
    """Log-bucketed quantile sketch for non-negative latencies (seconds)."""

    def __init__(self, growth: float = 1.02, min_value: float = 1e-7,
                 max_value: float = 1e5) -> None:
        if growth <= 1.0:
            raise ValueError("growth factor must be > 1")
        if not 0 < min_value < max_value:
            raise ValueError("need 0 < min_value < max_value")
        self.growth = float(growth)
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self._log_growth = math.log(self.growth)
        #: Highest regular bucket index; everything above max_value clamps here.
        self._top = 1 + int(math.ceil(
            math.log(self.max_value / self.min_value) / self._log_growth))
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.observed_min = math.inf
        self.observed_max = -math.inf

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = 1 + int(math.floor(
            math.log(value / self.min_value) / self._log_growth))
        return min(index, self._top)

    def add(self, value: float) -> None:
        value = float(value)
        if value < 0 or math.isnan(value):
            raise ValueError(f"latencies must be finite and >= 0, got {value}")
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        if value < self.observed_min:
            self.observed_min = value
        if value > self.observed_max:
            self.observed_max = value

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------

    def _representative(self, index: int) -> float:
        if index <= 0:
            value = self.min_value
        else:
            value = self.min_value * self.growth ** (index - 0.5)
        return min(max(value, self.observed_min), self.observed_max)

    def quantile(self, q: float) -> float:
        """Bucket-granular ``inverted_cdf`` quantile of everything added."""
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                return self._representative(index)
        return self._representative(max(self._buckets))  # pragma: no cover

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "min": 0.0 if self.count == 0 else self.observed_min,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max": 0.0 if self.count == 0 else self.observed_max,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical-codec-safe state dump (string bucket keys, sorted)."""
        return {
            "growth": self.growth,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "count": self.count,
            "observed_min": None if self.count == 0 else self.observed_min,
            "observed_max": None if self.count == 0 else self.observed_max,
            "buckets": {str(index): self._buckets[index]
                        for index in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "LatencyDigest":
        digest = cls(growth=float(state["growth"]),
                     min_value=float(state["min_value"]),
                     max_value=float(state["max_value"]))
        digest.count = int(state["count"])
        if state["observed_min"] is not None:
            digest.observed_min = float(state["observed_min"])
        if state["observed_max"] is not None:
            digest.observed_max = float(state["observed_max"])
        digest._buckets = {int(index): int(count)
                           for index, count in dict(state["buckets"]).items()}
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"LatencyDigest(count={self.count}, p50={self.p50:.6f}, "
                f"p99={self.p99:.6f}, p999={self.p999:.6f})")

