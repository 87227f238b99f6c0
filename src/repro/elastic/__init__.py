"""Elastic serving: open-loop load, fixed-memory SLO accounting, autoscaling.

The serving tiers below this package react to whatever is already queued;
this package supplies the *traffic* and the *policy*.  The open-loop
generator (:mod:`~repro.elastic.loadgen`) materializes seeded arrival
schedules — Poisson/step/ramp rates, heavy-tail Zipf tenant popularity —
decoupled from service completion so queues genuinely build.  SLO accounting
(:mod:`~repro.elastic.slo`) layers per-phase p50/p99/p999 latency quantiles,
queue age and admission backpressure on ``ServiceStats`` through a
fixed-memory log-bucketed digest (:mod:`~repro.elastic.digest`) whose merge
is exactly associative.  The autoscaler (:mod:`~repro.elastic.autoscaler`)
turns live signals — queue depth, queue-age SLO burn, stage starvation —
into the drain/undrain/add verbs ``ProcessFleet`` and ``TAOCluster``
share (one :class:`ShardTarget` for both), and the virtual-time harness
(:mod:`~repro.elastic.harness`) ties all three together for the step-load benchmarks: scaling decisions
change *when* work runs, never *what* it computes, so an autoscaled run
stays ledger- and verdict-exact against a static fleet.
"""

from repro.elastic.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    LoadSignals,
    ScalingDecision,
    ShardTarget,
)
from repro.elastic.digest import LatencyDigest
from repro.elastic.harness import ElasticRunReport, OpenLoopDriver, TickRecord
from repro.elastic.loadgen import (
    Arrival,
    OpenLoopGenerator,
    RatePhase,
    RateSchedule,
    schedule_fingerprint,
)
from repro.elastic.slo import SLOConfig, SLOTracker

__all__ = [
    "Arrival",
    "Autoscaler",
    "AutoscalerConfig",
    "ElasticRunReport",
    "LatencyDigest",
    "LoadSignals",
    "OpenLoopDriver",
    "OpenLoopGenerator",
    "RatePhase",
    "RateSchedule",
    "ScalingDecision",
    "ShardTarget",
    "SLOConfig",
    "SLOTracker",
    "TickRecord",
    "schedule_fingerprint",
]
