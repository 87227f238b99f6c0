"""Open-loop driving harness: arrivals in, SLO + scaling telemetry out.

:class:`OpenLoopDriver` replays a materialized arrival schedule
(:mod:`repro.elastic.loadgen`) against any :class:`ServiceCore` front end in
*virtual time*: tick ``k`` covers ``[k*tick_s, (k+1)*tick_s)`` of schedule
time, all arrivals due in that window are submitted (subject to the optional
admission bound), and the front end then drains a bounded budget of
``per_worker_capacity * active_workers`` requests.  Bounding the drain is
what makes the harness open-loop in effect: when arrivals outpace capacity
the backlog genuinely builds, queue ages grow, and the autoscaler has a real
signal — while the run itself stays deterministic (no wall-clock sleeps, no
host-speed dependence in the *schedule*; measured latencies are still real).

Per tick the driver samples queue ages, evaluates the autoscaler (when one
is attached), and appends a :class:`TickRecord`; the final
:class:`ElasticRunReport` carries the worker timeline, every scaling
decision, every completed request and the merged
:class:`~repro.elastic.slo.SLOTracker` — everything the step-load benchmark
stamps into its report tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.elastic.autoscaler import Autoscaler, LoadSignals, ScalingDecision
from repro.elastic.loadgen import Arrival
from repro.elastic.slo import SLOTracker
from repro.protocol.service import ServiceCore, ServiceRequest
from repro.utils.timing import now


@dataclass
class TickRecord:
    """Telemetry for one virtual-time tick."""

    index: int
    time_s: float
    arrivals: int
    admitted: int
    rejected: int
    completed: int
    queue_depth: int
    workers: int
    oldest_age_s: float
    action: str = "hold"
    reason: str = ""
    admitted_ids: List[int] = field(default_factory=list)


@dataclass
class ElasticRunReport:
    """Everything one open-loop run observed.

    ``requests`` holds every *admitted* request resolved to its terminal
    record, in admission order — the alignment key for differential pins.
    (Front ends return per-shard request objects whose ``request_id`` is
    shard-local; admission order is the only identity that survives every
    deployment shape.)
    """

    ticks: List[TickRecord]
    slo: SLOTracker
    requests: List[ServiceRequest]
    decisions: List[ScalingDecision]
    #: Front-end request ids in admission order, aligned with ``requests``.
    admitted_ids: List[int] = field(default_factory=list)

    def workers_timeline(self) -> List[int]:
        return [tick.workers for tick in self.ticks]

    def first_tick_at_workers(self, count: int) -> Optional[int]:
        """Index of the first tick that ended with ``count`` workers."""
        for tick in self.ticks:
            if tick.workers >= count:
                return tick.index
        return None


def _active_workers(front_end: ServiceCore) -> int:
    """Workers currently accepting traffic (1 for a plain service)."""
    return int(getattr(front_end, "active_shard_count", 1))


class OpenLoopDriver:
    """Replays an arrival schedule tick by tick against a front end."""

    def __init__(
        self,
        front_end: ServiceCore,
        arrivals: Sequence[Arrival],
        make_inputs: Callable[[int], Mapping[str, np.ndarray]],
        tick_s: float = 1.0,
        per_worker_capacity: int = 32,
        autoscaler: Optional[Autoscaler] = None,
        slo_tracker: Optional[SLOTracker] = None,
        max_queue_depth: Optional[int] = None,
        max_ticks: int = 10_000,
    ) -> None:
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if per_worker_capacity < 1:
            raise ValueError("per_worker_capacity must be >= 1")
        self.front_end = front_end
        self.arrivals = sorted(arrivals, key=lambda a: (a.time_s, a.index))
        self.make_inputs = make_inputs
        self.tick_s = float(tick_s)
        self.per_worker_capacity = int(per_worker_capacity)
        self.autoscaler = autoscaler
        self.slo = slo_tracker or SLOTracker()
        self.max_queue_depth = max_queue_depth
        self.max_ticks = int(max_ticks)

    # ------------------------------------------------------------------

    def _queue_ages(self, at_s: float) -> List[float]:
        return list(self.front_end.queue_ages(at_s=at_s))

    def _queued_tenants(self) -> int:
        return len(self.front_end.queued_model_names())

    def _starved_workers(self) -> int:
        depths = getattr(self.front_end, "queue_depths", None)
        if depths is None:
            return 0
        per_worker = depths()
        backlog = sum(per_worker.values())
        if backlog == 0:
            return 0
        return sum(1 for depth in per_worker.values() if depth == 0)

    def run(self) -> ElasticRunReport:
        ticks: List[TickRecord] = []
        admitted_all: List[int] = []
        cursor = 0
        tick_index = 0
        while ((cursor < len(self.arrivals) or self.front_end.pending_count > 0)
               and tick_index < self.max_ticks):
            tick_time = (tick_index + 1) * self.tick_s
            due: List[Arrival] = []
            while (cursor < len(self.arrivals)
                   and self.arrivals[cursor].time_s < tick_time):
                due.append(self.arrivals[cursor])
                cursor += 1

            admitted_ids: List[int] = []
            rejected = 0
            for arrival in due:
                if (self.max_queue_depth is not None
                        and self.front_end.pending_count >= self.max_queue_depth):
                    rejected += 1
                    self.slo.admission_rejected()
                    continue
                admitted_ids.append(self.front_end.submit(
                    arrival.tenant, self.make_inputs(arrival.payload_seed),
                    force_challenge=arrival.force_challenge))

            workers = max(1, _active_workers(self.front_end))
            capacity = self.per_worker_capacity * workers
            drain_started = now()
            results = self.front_end.process(max_requests=capacity)
            for request in results:
                total = request.latency_s
                if total is None:
                    continue
                queue_s = max(0.0, drain_started - request.submitted_s)
                service_s = max(0.0, request.completed_s - drain_started)
                self.slo.observe(max(0.0, total), queue_s=queue_s,
                                 service_s=service_s)
            admitted_all.extend(admitted_ids)

            ages = self._queue_ages(at_s=now())
            self.slo.observe_queue_ages(ages)
            oldest = max(ages, default=0.0)
            signals = LoadSignals(
                queue_depth=self.front_end.pending_count,
                live_workers=workers,
                oldest_queue_age_s=oldest,
                queued_tenants=self._queued_tenants(),
                starved_workers=self._starved_workers(),
            )
            action, reason = "hold", ""
            if self.autoscaler is not None:
                decision = self.autoscaler.step(signals, tick=tick_index)
                action, reason = decision.action, decision.reason
            ticks.append(TickRecord(
                index=tick_index, time_s=tick_time, arrivals=len(due),
                admitted=len(admitted_ids), rejected=rejected,
                completed=len(results),
                queue_depth=self.front_end.pending_count,
                workers=max(1, _active_workers(self.front_end)),
                oldest_age_s=oldest, action=action, reason=reason,
                admitted_ids=admitted_ids,
            ))
            tick_index += 1
        decisions = [] if self.autoscaler is None else list(self.autoscaler.decisions)
        requests = [self.front_end.request(request_id)
                    for request_id in admitted_all]
        return ElasticRunReport(ticks=ticks, slo=self.slo,
                                requests=requests, decisions=decisions,
                                admitted_ids=admitted_all)
