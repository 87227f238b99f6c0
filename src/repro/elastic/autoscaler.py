"""Signal-driven autoscaling over the drain/undrain/add re-home machinery.

The serving tiers already know how to move tenants safely — the ring's
minimal-migration add/remove plus the withdraw/detach/adopt re-home path
keep every run ledger- and verdict-exact through any membership change.
What was missing is a *policy* that exercises those verbs from live load:

* **Scale up** when the backlog per active worker crosses
  ``queue_high_per_worker``, or the oldest queued request's age burns the
  queue-age SLO.  Undrain an existing drained worker when one exists (its
  process and caches are still warm); otherwise add a fresh one.
* **Scale down** when the fleet has been under ``queue_low_per_worker`` for
  ``scale_down_patience`` consecutive evaluations — drain the emptiest
  worker, never below ``min_workers``.
* **Hold** when scaling up cannot help: tenants are the routing unit, so
  when every distinct queued tenant already has a worker (workers are
  starving while the backlog sits on one hot tenant), another worker would
  receive no traffic.

The policy itself (:meth:`Autoscaler.evaluate`) is a pure function of
:class:`LoadSignals` — unit-testable without any service — and
:class:`ShardTarget` adapts it to ``ProcessFleet`` and ``TAOCluster``, which
expose one membership verb set over one placement controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol

from repro.elastic.slo import SLOConfig


@dataclass(frozen=True)
class AutoscalerConfig:
    """Thresholds and pacing for the scaling policy."""

    min_workers: int = 1
    max_workers: int = 4
    queue_high_per_worker: float = 8.0
    queue_low_per_worker: float = 1.0
    slo: Optional[SLOConfig] = None
    #: Evaluations to skip after any scaling action (lets signals settle).
    cooldown_ticks: int = 1
    #: Consecutive calm evaluations required before scaling down.
    scale_down_patience: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.min_workers <= self.max_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if self.queue_low_per_worker > self.queue_high_per_worker:
            raise ValueError("queue_low must not exceed queue_high")


@dataclass(frozen=True)
class LoadSignals:
    """One evaluation's view of the live system."""

    queue_depth: int
    live_workers: int
    oldest_queue_age_s: float = 0.0
    #: Distinct tenants with queued work (the routing grain).
    queued_tenants: int = 0
    #: Live workers with an empty queue while a fleet-wide backlog exists.
    starved_workers: int = 0


@dataclass
class ScalingDecision:
    """What the autoscaler did (or declined to do) at one evaluation."""

    tick: int
    action: str  # "up" | "down" | "hold"
    reason: str
    worker: Optional[str] = None
    workers_after: int = 0


class ScalingTarget(Protocol):
    """The verbs a serving tier must expose to be autoscaled."""

    def worker_count(self) -> int: ...
    def scale_up(self) -> Optional[str]: ...
    def scale_down(self) -> Optional[str]: ...


class Autoscaler:
    """Threshold policy with cooldown and scale-down patience."""

    def __init__(self, target: ScalingTarget,
                 config: Optional[AutoscalerConfig] = None) -> None:
        self.target = target
        self.config = config or AutoscalerConfig()
        self.decisions: List[ScalingDecision] = []
        self._cooldown = 0
        self._calm_streak = 0

    # ------------------------------------------------------------------
    # Pure policy
    # ------------------------------------------------------------------

    def evaluate(self, signals: LoadSignals) -> ScalingDecision:
        """The policy verdict for one signal snapshot (no side effects)."""
        cfg = self.config
        workers = max(1, signals.live_workers)
        per_worker = signals.queue_depth / workers
        age_burn = 0.0
        if cfg.slo is not None and cfg.slo.queue_age_slo_s is not None:
            age_burn = signals.oldest_queue_age_s / cfg.slo.queue_age_slo_s
        overloaded = per_worker > cfg.queue_high_per_worker or age_burn > 1.0
        if overloaded:
            if signals.live_workers >= cfg.max_workers:
                return ScalingDecision(0, "hold", "at max_workers")
            if (signals.starved_workers > 0
                    and 0 < signals.queued_tenants <= signals.live_workers):
                # Tenants are the routing unit: the backlog is concentrated
                # on tenants that already own a worker each, so a new worker
                # would idle while the hot queues stay hot.
                return ScalingDecision(0, "hold", "tenant-limited backlog")
            why = (f"queue-age burn {age_burn:.2f}" if age_burn > 1.0 else
                   f"queue depth {per_worker:.1f}/worker")
            return ScalingDecision(0, "up", why)
        if (per_worker < cfg.queue_low_per_worker
                and signals.live_workers > cfg.min_workers):
            return ScalingDecision(0, "down",
                                   f"queue depth {per_worker:.1f}/worker")
        return ScalingDecision(0, "hold", "within thresholds")

    # ------------------------------------------------------------------
    # Stateful stepping
    # ------------------------------------------------------------------

    def step(self, signals: LoadSignals, tick: int) -> ScalingDecision:
        """Evaluate and apply one scaling step against the target."""
        verdict = self.evaluate(signals)
        decision = ScalingDecision(tick=tick, action="hold",
                                   reason=verdict.reason,
                                   workers_after=self.target.worker_count())
        if self._cooldown > 0:
            self._cooldown -= 1
            decision.reason = f"cooldown ({verdict.action}: {verdict.reason})"
            self.decisions.append(decision)
            return decision
        if verdict.action == "down":
            self._calm_streak += 1
            if self._calm_streak < self.config.scale_down_patience:
                decision.reason = (f"calm {self._calm_streak}/"
                                   f"{self.config.scale_down_patience}")
                self.decisions.append(decision)
                return decision
        else:
            self._calm_streak = 0
        if verdict.action == "up":
            worker = self.target.scale_up()
            if worker is not None:
                decision.action = "up"
                decision.worker = worker
                self._cooldown = self.config.cooldown_ticks
        elif verdict.action == "down":
            worker = self.target.scale_down()
            if worker is not None:
                decision.action = "down"
                decision.worker = worker
                self._calm_streak = 0
                self._cooldown = self.config.cooldown_ticks
        decision.workers_after = self.target.worker_count()
        self.decisions.append(decision)
        return decision


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------

@dataclass
class ShardTarget:
    """Adapts a sharded tier (``TAOCluster`` or ``ProcessFleet``) to the
    policy verbs, through its ``add_shard`` / ``drain_shard`` /
    ``undrain_shard`` verbs and its placement controller."""

    tier: object
    config: AutoscalerConfig = field(default_factory=AutoscalerConfig)

    def worker_count(self) -> int:
        return self.tier.active_shard_count

    def scale_up(self) -> Optional[str]:
        if self.worker_count() >= self.config.max_workers:
            return None
        drained = self.tier.placement.drained_shards
        if drained:
            self.tier.undrain_shard(drained[0])
            return drained[0]
        return self.tier.add_shard()

    def scale_down(self) -> Optional[str]:
        if self.worker_count() <= max(1, self.config.min_workers):
            return None
        depths = self.tier.queue_depths()
        victim = min(self.tier.placement.live_shards,
                     key=lambda shard_id: (depths.get(shard_id, 0), shard_id))
        self.tier.drain_shard(victim)
        return victim
