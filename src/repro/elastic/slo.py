"""Driver-side SLO accounting: per-phase latency quantiles and backpressure.

Every service tier already reports its end-to-end latency distribution in
``ServiceStats.latency``; what no tier can see is how a request's time
splits between waiting in the queue and being served, or how stale the
live backlog is.  :class:`SLOTracker` adds exactly that from the driver's
side, in fixed memory, via :class:`~repro.utils.digest.LatencyDigest`:

* per-phase latency digests — ``total`` (submit to completion), ``queue``
  (submit to drain start) and ``service`` (drain start to completion), each
  reporting p50/p99/p999;
* a ``queue_age`` digest fed from the front end's live queue (how stale is
  the backlog *right now*, sampled per tick);
* admission-backpressure counters: requests rejected at the door when the
  queue bound is hit, and ticks that ended with a non-empty backlog.

Trackers merge associatively (digest merge plus counter sums), so per-worker
or per-run trackers fold into fleet-wide tables without ordering effects.
:meth:`quantile_rows` emits rows shaped for ``benchmarks/reporting.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.digest import LatencyDigest

#: The latency phases every tracker carries, in reporting order.
PHASES: Tuple[str, ...] = ("total", "queue", "service")


@dataclass(frozen=True)
class SLOConfig:
    """The objective: end-to-end p99 bound, optional queue-age bound."""

    p99_latency_s: float
    queue_age_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p99_latency_s <= 0:
            raise ValueError("p99_latency_s must be positive")
        if self.queue_age_slo_s is not None and self.queue_age_slo_s <= 0:
            raise ValueError("queue_age_slo_s must be positive")


class SLOTracker:
    """Fixed-memory per-phase latency and backpressure accounting."""

    def __init__(self, config: Optional[SLOConfig] = None) -> None:
        self.config = config
        self.phases: Dict[str, LatencyDigest] = {
            phase: LatencyDigest() for phase in PHASES}
        self.queue_age = LatencyDigest()
        self.admission_rejections = 0
        self.backpressure_ticks = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def observe(self, total_s: float, queue_s: Optional[float] = None,
                service_s: Optional[float] = None) -> None:
        """Record one completed request's phase latencies."""
        self.phases["total"].add(total_s)
        if queue_s is not None:
            self.phases["queue"].add(queue_s)
        if service_s is not None:
            self.phases["service"].add(service_s)

    def observe_queue_ages(self, ages_s: Iterable[float]) -> None:
        """Sample the live backlog; a non-empty sample is a backpressure tick."""
        sampled = False
        for age in ages_s:
            self.queue_age.add(max(0.0, float(age)))
            sampled = True
        if sampled:
            self.backpressure_ticks += 1

    def admission_rejected(self, count: int = 1) -> None:
        self.admission_rejections += int(count)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def p99_burn(self) -> float:
        """Observed total p99 over the objective (>1 means the SLO is burning)."""
        if self.config is None or self.phases["total"].count == 0:
            return 0.0
        return self.phases["total"].p99 / self.config.p99_latency_s

    def queue_age_burn(self, oldest_age_s: float) -> float:
        """Live oldest-queue-age over the objective (0 when unconfigured)."""
        if self.config is None or self.config.queue_age_slo_s is None:
            return 0.0
        return oldest_age_s / self.config.queue_age_slo_s

    # ------------------------------------------------------------------
    # Merge / reporting
    # ------------------------------------------------------------------

    def merge(self, other: "SLOTracker") -> "SLOTracker":
        for phase in PHASES:
            self.phases[phase].merge(other.phases[phase])
        self.queue_age.merge(other.queue_age)
        self.admission_rejections += other.admission_rejections
        self.backpressure_ticks += other.backpressure_ticks
        return self

    def quantile_rows(self) -> List[Sequence[object]]:
        """Per-phase rows (phase, count, p50, p99, p999, max) for reporting."""
        rows: List[Sequence[object]] = []
        for phase in PHASES:
            digest = self.phases[phase]
            summary = digest.summary()
            rows.append([phase, int(summary["count"]), summary["p50"],
                         summary["p99"], summary["p999"], summary["max"]])
        return rows

    def as_dict(self) -> Dict[str, object]:
        return {
            "phases": {phase: self.phases[phase].summary() for phase in PHASES},
            "queue_age": self.queue_age.summary(),
            "admission_rejections": self.admission_rejections,
            "backpressure_ticks": self.backpressure_ticks,
            "p99_burn": self.p99_burn(),
        }
