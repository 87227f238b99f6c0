"""Open-loop driver end-to-end: SLO accounting, admission, autoscaling.

Two layers of pin:

* against a plain :class:`TAOService` — phase latencies add up, admission
  rejections hit the counter, backpressure ticks register;
* against a :class:`TAOCluster` under a step-load spike — the autoscaler
  scales 1 -> N from live signals, every admitted request still finalizes,
  and the run is **verdict- and ledger-exact** against a static N-shard
  cluster replaying the identical arrival schedule (the elastic layer's
  transparency guarantee, in miniature).
"""

from __future__ import annotations

import pytest

from repro.cluster import TAOCluster
from repro.elastic import (
    Autoscaler,
    AutoscalerConfig,
    OpenLoopDriver,
    OpenLoopGenerator,
    RateSchedule,
    SLOConfig,
    ShardTarget,
    SLOTracker,
)
from repro.protocol import TAOService

from test_sharded_equivalence import _fingerprint  # noqa: F401 - shared pin
from repro.protocol.service import TERMINAL_TASK_STATUSES

NUM_TENANTS = 4


@pytest.fixture(scope="module")
def elastic_graphs(mlp_module, mlp_input_factory):
    from repro.graph import trace_module
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"tenant_{i}")
            for i in range(NUM_TENANTS)]


def _arrivals(seed: int = 20260808):
    schedule = RateSchedule.step(base_rate=4.0, peak_rate=24.0,
                                 spike_at_s=3.0, spike_duration_s=4.0,
                                 duration_s=10.0)
    generator = OpenLoopGenerator(
        schedule, tuple(f"tenant_{i}" for i in range(NUM_TENANTS)),
        seed=seed, zipf_exponent=0.6, payload_pool=3,
        force_challenge_every=19)
    return generator.generate()


class TestPlainServiceDriver:
    def test_slo_accounting_and_completion(self, elastic_graphs,
                                           mlp_thresholds, mlp_input_factory):
        service = TAOService(n_way=2)
        for graph in elastic_graphs:
            service.register_model(graph, threshold_table=mlp_thresholds)
        arrivals = _arrivals()
        driver = OpenLoopDriver(service, arrivals, mlp_input_factory,
                                per_worker_capacity=16,
                                slo_tracker=SLOTracker(
                                    SLOConfig(p99_latency_s=60.0)))
        report = driver.run()

        assert len(report.requests) == len(arrivals)
        assert all(r.status in TERMINAL_TASK_STATUSES for r in report.requests)
        assert service.pending_count == 0

        tracker = report.slo
        total = tracker.phases["total"]
        assert total.count == len(arrivals)
        # Phases decompose: queue + service observations exist for each.
        assert tracker.phases["queue"].count == total.count
        assert tracker.phases["service"].count == total.count
        # The spike outruns capacity 16/tick, so backlog (and queue-age
        # samples) must have registered.
        assert tracker.backpressure_ticks >= 1
        assert tracker.queue_age.count >= 1
        rows = tracker.quantile_rows()
        assert [row[0] for row in rows] == ["total", "queue", "service"]

    def test_admission_bound_rejects_over_capacity(self, elastic_graphs,
                                                   mlp_thresholds,
                                                   mlp_input_factory):
        service = TAOService(n_way=2)
        for graph in elastic_graphs:
            service.register_model(graph, threshold_table=mlp_thresholds)
        arrivals = _arrivals()
        driver = OpenLoopDriver(service, arrivals, mlp_input_factory,
                                per_worker_capacity=8, max_queue_depth=10)
        report = driver.run()
        assert report.slo.admission_rejections >= 1
        rejected = sum(tick.rejected for tick in report.ticks)
        admitted = sum(tick.admitted for tick in report.ticks)
        assert rejected == report.slo.admission_rejections
        assert admitted + rejected == len(arrivals)
        assert len(report.requests) == admitted
        assert all(r.status in TERMINAL_TASK_STATUSES for r in report.requests)


class TestAutoscaledCluster:
    def _drive_cluster(self, cluster, graphs, thresholds, input_factory,
                       arrivals, autoscaler=None):
        for graph in graphs:
            cluster.register_model(graph, threshold_table=thresholds)
        driver = OpenLoopDriver(cluster, arrivals, input_factory,
                                per_worker_capacity=8,
                                autoscaler=autoscaler,
                                slo_tracker=SLOTracker(
                                    SLOConfig(p99_latency_s=60.0,
                                              queue_age_slo_s=30.0)))
        return driver.run()

    def test_step_load_scales_up_and_stays_exact(self, elastic_graphs,
                                                 mlp_thresholds,
                                                 mlp_input_factory):
        arrivals = _arrivals()

        elastic = TAOCluster(num_shards=1, n_way=2)
        config = AutoscalerConfig(min_workers=1, max_workers=3,
                                  queue_high_per_worker=6.0,
                                  queue_low_per_worker=0.5,
                                  cooldown_ticks=0, scale_down_patience=10)
        autoscaler = Autoscaler(ShardTarget(elastic, config), config)
        elastic_report = self._drive_cluster(
            elastic, elastic_graphs, mlp_thresholds, mlp_input_factory,
            arrivals, autoscaler=autoscaler)

        # The spike forced real scale-up, from live signals only.
        timeline = elastic_report.workers_timeline()
        assert timeline[0] == 1
        assert max(timeline) == 3
        assert elastic.active_shard_count == 3
        assert any(d.action == "up" for d in elastic_report.decisions)
        assert len(elastic_report.requests) == len(arrivals)
        assert all(r.status in TERMINAL_TASK_STATUSES
                   for r in elastic_report.requests)

        # Differential pin: a static 3-shard cluster replaying the same
        # schedule produces byte-identical verdicts and an equal ledger.
        static = TAOCluster(num_shards=3, n_way=2)
        static_report = self._drive_cluster(
            static, elastic_graphs, mlp_thresholds, mlp_input_factory,
            arrivals)
        assert len(static_report.requests) == len(arrivals)

        # requests are admission-ordered, so position aligns the two runs.
        for index, (expected, got) in enumerate(zip(static_report.requests,
                                                    elastic_report.requests)):
            assert _fingerprint(got) == _fingerprint(expected), f"arrival {index}"

        assert dict(elastic.chain.balances) == dict(static.chain.balances)
        assert elastic.chain.minted == static.chain.minted
        assert sum(elastic.chain.balances.values()) == elastic.chain.minted
