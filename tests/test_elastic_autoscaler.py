"""Policy units for the autoscaler and the SLO tracker.

The policy (:meth:`Autoscaler.evaluate`) is a pure function of
:class:`LoadSignals`, so every trigger, guard and pacing rule is pinned
against a fake target — no service, no processes.  The stateful ``step``
layer (cooldown, scale-down patience) is exercised the same way.
"""

from __future__ import annotations

import pytest

from repro.elastic import (
    Autoscaler,
    AutoscalerConfig,
    LoadSignals,
    SLOConfig,
    SLOTracker,
)
from repro.protocol.service import ServiceStats


class FakeTarget:
    """Scriptable scaling target that records every verb call."""

    def __init__(self, workers: int = 1, max_workers: int = 8) -> None:
        self.workers = workers
        self.max_workers = max_workers
        self.calls = []

    def worker_count(self) -> int:
        return self.workers

    def scale_up(self):
        if self.workers >= self.max_workers:
            return None
        self.workers += 1
        self.calls.append("up")
        return f"w{self.workers}"

    def scale_down(self):
        if self.workers <= 1:
            return None
        self.workers -= 1
        self.calls.append("down")
        return f"w{self.workers + 1}"


def _config(**overrides) -> AutoscalerConfig:
    defaults = dict(min_workers=1, max_workers=4, queue_high_per_worker=8.0,
                    queue_low_per_worker=1.0, cooldown_ticks=1,
                    scale_down_patience=3)
    defaults.update(overrides)
    return AutoscalerConfig(**defaults)


class TestEvaluate:
    def test_scales_up_on_queue_depth(self):
        scaler = Autoscaler(FakeTarget(), _config())
        verdict = scaler.evaluate(LoadSignals(queue_depth=20, live_workers=2))
        assert verdict.action == "up"
        assert "queue depth" in verdict.reason

    def test_holds_within_thresholds(self):
        scaler = Autoscaler(FakeTarget(), _config())
        verdict = scaler.evaluate(LoadSignals(queue_depth=6, live_workers=2))
        assert verdict.action == "hold"

    def test_scales_up_on_queue_age_burn(self):
        config = _config(slo=SLOConfig(p99_latency_s=1.0, queue_age_slo_s=2.0))
        scaler = Autoscaler(FakeTarget(), config)
        verdict = scaler.evaluate(LoadSignals(
            queue_depth=2, live_workers=2, oldest_queue_age_s=5.0))
        assert verdict.action == "up"
        assert "queue-age burn" in verdict.reason

    def test_holds_at_max_workers(self):
        scaler = Autoscaler(FakeTarget(), _config(max_workers=2))
        verdict = scaler.evaluate(LoadSignals(queue_depth=100, live_workers=2))
        assert verdict.action == "hold"
        assert verdict.reason == "at max_workers"

    def test_tenant_limited_backlog_holds(self):
        # Two hot tenants, two workers, one of them starving: another
        # worker could not receive traffic, so the policy holds.
        scaler = Autoscaler(FakeTarget(), _config())
        verdict = scaler.evaluate(LoadSignals(
            queue_depth=40, live_workers=2, queued_tenants=2,
            starved_workers=1))
        assert verdict.action == "hold"
        assert verdict.reason == "tenant-limited backlog"

    def test_tenant_spread_backlog_scales(self):
        scaler = Autoscaler(FakeTarget(), _config())
        verdict = scaler.evaluate(LoadSignals(
            queue_depth=40, live_workers=2, queued_tenants=5,
            starved_workers=1))
        assert verdict.action == "up"

    def test_scales_down_when_calm(self):
        scaler = Autoscaler(FakeTarget(), _config())
        verdict = scaler.evaluate(LoadSignals(queue_depth=0, live_workers=3))
        assert verdict.action == "down"

    def test_never_scales_below_min(self):
        scaler = Autoscaler(FakeTarget(), _config(min_workers=2, max_workers=4))
        verdict = scaler.evaluate(LoadSignals(queue_depth=0, live_workers=2))
        assert verdict.action == "hold"


class TestStep:
    def test_scale_down_needs_patience(self):
        target = FakeTarget(workers=3)
        scaler = Autoscaler(target, _config(scale_down_patience=3))
        calm = LoadSignals(queue_depth=0, live_workers=3)
        assert scaler.step(calm, tick=0).action == "hold"
        assert scaler.step(calm, tick=1).action == "hold"
        decision = scaler.step(calm, tick=2)
        assert decision.action == "down"
        assert target.workers == 2

    def test_load_blip_resets_patience(self):
        target = FakeTarget(workers=3)
        scaler = Autoscaler(target, _config(scale_down_patience=2))
        calm = LoadSignals(queue_depth=0, live_workers=3)
        busy = LoadSignals(queue_depth=12, live_workers=3)
        scaler.step(calm, tick=0)
        scaler.step(busy, tick=1)  # a blip (still under high-water) resets the streak
        scaler.step(calm, tick=2)
        decision = scaler.step(calm, tick=3)
        assert decision.action == "down"
        assert target.workers == 2

    def test_cooldown_skips_next_evaluation(self):
        target = FakeTarget(workers=1)
        scaler = Autoscaler(target, _config(cooldown_ticks=1))
        heavy = LoadSignals(queue_depth=100, live_workers=1)
        first = scaler.step(heavy, tick=0)
        assert first.action == "up" and target.workers == 2
        second = scaler.step(LoadSignals(queue_depth=100, live_workers=2),
                             tick=1)
        assert second.action == "hold"
        assert second.reason.startswith("cooldown")
        third = scaler.step(LoadSignals(queue_depth=100, live_workers=2),
                            tick=2)
        assert third.action == "up" and target.workers == 3

    def test_decisions_are_recorded_with_ticks(self):
        target = FakeTarget(workers=1)
        scaler = Autoscaler(target, _config())
        scaler.step(LoadSignals(queue_depth=100, live_workers=1), tick=7)
        assert [d.tick for d in scaler.decisions] == [7]
        assert scaler.decisions[0].workers_after == 2


class TestConfigValidation:
    def test_worker_bounds(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=5, max_workers=4)

    def test_queue_thresholds_ordered(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(queue_low_per_worker=9.0,
                             queue_high_per_worker=8.0)

    def test_slo_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(p99_latency_s=0.0)
        with pytest.raises(ValueError):
            SLOConfig(p99_latency_s=1.0, queue_age_slo_s=-1.0)


class TestSLOTracker:
    def test_phase_observation_and_rows(self):
        tracker = SLOTracker(SLOConfig(p99_latency_s=0.5))
        for latency in (0.1, 0.2, 0.3):
            tracker.observe(latency, queue_s=latency / 2,
                            service_s=latency / 2)
        rows = tracker.quantile_rows()
        assert [row[0] for row in rows] == ["total", "queue", "service"]
        assert all(row[1] == 3 for row in rows)

    def test_p99_burn(self):
        tracker = SLOTracker(SLOConfig(p99_latency_s=0.1))
        tracker.observe(1.0)
        assert tracker.p99_burn() > 1.0
        calm = SLOTracker(SLOConfig(p99_latency_s=10.0))
        calm.observe(0.01)
        assert calm.p99_burn() < 1.0
        assert SLOTracker().p99_burn() == 0.0

    def test_queue_age_burn(self):
        tracker = SLOTracker(SLOConfig(p99_latency_s=1.0, queue_age_slo_s=2.0))
        assert tracker.queue_age_burn(4.0) == pytest.approx(2.0)
        assert SLOTracker().queue_age_burn(4.0) == 0.0

    def test_backpressure_counters(self):
        tracker = SLOTracker()
        tracker.observe_queue_ages([])
        assert tracker.backpressure_ticks == 0
        tracker.observe_queue_ages([0.5, 0.2])
        assert tracker.backpressure_ticks == 1
        tracker.admission_rejected(3)
        assert tracker.admission_rejections == 3

    def test_merge_sums_counters_and_digests(self):
        a = SLOTracker()
        a.observe(0.1)
        a.admission_rejected(2)
        a.observe_queue_ages([1.0])
        b = SLOTracker()
        b.observe(0.3)
        b.admission_rejected(1)
        a.merge(b)
        assert a.phases["total"].count == 2
        assert a.admission_rejections == 3
        assert a.backpressure_ticks == 1

    def test_tier_latency_digest_merges_into_tracker(self):
        stats = ServiceStats()
        stats.latency.add_many([0.05, 0.10, 0.15])
        tracker = SLOTracker(SLOConfig(p99_latency_s=1.0))
        tracker.phases["total"].merge(stats.latency)
        assert tracker.phases["total"].count == 3
        assert tracker.p99_burn() < 1.0
        assert "phases" in tracker.as_dict()
