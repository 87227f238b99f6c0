"""Elastic serving headline: step-load spike, autoscale 1 -> 4, stay exact.

The elastic subsystem's contract, measured end to end on real worker
processes: an open-loop step-load spike (seeded, regenerable from the seed
alone) drives a :class:`~repro.fleet.fleet.ProcessFleet` that starts at one
worker behind an :class:`~repro.elastic.autoscaler.Autoscaler`.  The spike
must force the fleet to 4 workers from live signals only, and after
convergence the elastic fleet must keep up.  Ticks are virtual, so "keeps
up" is an exact count: it stays at 4 workers and clears the spike's backlog
in the same number of ticks as a *static* 4-worker fleet on the identical
arrival schedule.

The transparency half of the contract is enforced unconditionally: the
autoscaled run must be **verdict-byte-identical and ledger-exact** against
the static fleet — same per-request fingerprints in admission order, equal
balances on every account, equal minted totals.  Scaling events may never
change what the protocol decides, only when it gets decided.

The post-convergence p99 latency against the SLO (3x the static fleet's
p99) is wall-clock on a shared host, so the report carries it and nothing
gates on it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.elastic import (
    Autoscaler,
    AutoscalerConfig,
    LatencyDigest,
    OpenLoopDriver,
    OpenLoopGenerator,
    RateSchedule,
    SLOConfig,
    ShardTarget,
    SLOTracker,
)
from repro.fleet import ProcessFleet

from benchmarks.reporting import emit_report
from benchmarks.test_cluster_scaling import _payload, _workload

NUM_TENANTS = 6
SEED = 20260808
MAX_WORKERS = 4
PER_WORKER_CAPACITY = 6
#: Latency SLO reported for the post-convergence phase: this factor of the
#: static fleet's p99 on the same arrivals, floored so micro-latency hosts
#: don't divide by noise.
SLO_P99_FACTOR = 3.0
SLO_P99_FLOOR_S = 0.5


def _arrivals():
    schedule = RateSchedule.step(base_rate=4.0, peak_rate=24.0,
                                 spike_at_s=3.0, spike_duration_s=4.0,
                                 duration_s=10.0)
    generator = OpenLoopGenerator(
        schedule, tuple(f"mlp_head_{i}" for i in range(NUM_TENANTS)),
        seed=SEED, zipf_exponent=0.6, payload_pool=3,
        force_challenge_every=19)
    return generator.generate()


def _fingerprint(request) -> Tuple:
    """Client-observable verdict bytes (mirrors the equivalence-test pin)."""
    report = request.report
    if report is None:
        return (request.status, request.error is not None)
    dispute = report.dispute
    return (
        request.status,
        report.final_status,
        report.finalized_optimistically,
        bytes(report.result.commitment.value),
        tuple(bool(r.exceeded) for r in report.verification_reports),
        None if dispute is None else (
            dispute.proposer_cheated,
            dispute.localized_operator,
            dispute.resolved_by_timeout,
            dispute.statistics.rounds,
            dispute.statistics.gas_used,
        ),
    )


def _drive(fleet: ProcessFleet, graphs, thresholds, arrivals, autoscaler=None):
    for graph in graphs:
        fleet.register_model(graph, threshold_table=thresholds)
    driver = OpenLoopDriver(fleet, arrivals, _payload,
                            per_worker_capacity=PER_WORKER_CAPACITY,
                            autoscaler=autoscaler,
                            slo_tracker=SLOTracker(
                                SLOConfig(p99_latency_s=60.0)))
    return driver.run()


def _latencies_from_tick(fleet, report, first_tick: int) -> LatencyDigest:
    digest = LatencyDigest()
    for tick in report.ticks:
        if tick.index < first_tick:
            continue
        for request_id in tick.admitted_ids:
            latency = fleet.request(request_id).latency_s
            if latency is not None:
                digest.add(max(0.0, latency))
    return digest


def test_elastic_slo(benchmark):
    graphs, thresholds = _workload()
    graphs = graphs[:NUM_TENANTS]
    arrivals = _arrivals()

    def run():
        elastic = ProcessFleet(num_workers=1, n_way=2)
        try:
            config = AutoscalerConfig(
                min_workers=1, max_workers=MAX_WORKERS,
                queue_high_per_worker=4.0, queue_low_per_worker=0.5,
                cooldown_ticks=0, scale_down_patience=50)
            autoscaler = Autoscaler(ShardTarget(elastic, config), config)
            elastic_report = _drive(elastic, graphs, thresholds, arrivals,
                                    autoscaler=autoscaler)
            elastic_ledger = (dict(elastic.chain.balances),
                              elastic.chain.minted)
            elastic_prints = [_fingerprint(r) for r in elastic_report.requests]
            conv_tick = elastic_report.first_tick_at_workers(MAX_WORKERS)
            elastic_post = _latencies_from_tick(
                elastic, elastic_report, conv_tick if conv_tick is not None
                else len(elastic_report.ticks))
        finally:
            elastic.close()

        static = ProcessFleet(num_workers=MAX_WORKERS, n_way=2)
        try:
            static_report = _drive(static, graphs, thresholds, arrivals)
            static_ledger = (dict(static.chain.balances), static.chain.minted)
            static_prints = [_fingerprint(r) for r in static_report.requests]
            static_post = _latencies_from_tick(
                static, static_report, conv_tick if conv_tick is not None
                else len(static_report.ticks))
        finally:
            static.close()
        return (elastic_report, elastic_prints, elastic_ledger, elastic_post,
                static_report, static_prints, static_ledger, static_post,
                conv_tick)

    (elastic_report, elastic_prints, elastic_ledger, elastic_post,
     static_report, static_prints, static_ledger, static_post,
     conv_tick) = benchmark.pedantic(run, rounds=1, iterations=1)

    timeline = elastic_report.workers_timeline()
    matches = sum(a == b for a, b in zip(elastic_prints, static_prints))

    elastic_summary = elastic_post.summary()
    static_summary = static_post.summary()
    slo_p99_s = max(SLO_P99_FLOOR_S,
                    SLO_P99_FACTOR * float(static_summary["p99"]))

    timeline_rows: List[List[object]] = [
        [tick.index, tick.arrivals, tick.completed, tick.queue_depth,
         tick.workers, tick.action, tick.reason or "-"]
        for tick in elastic_report.ticks]
    quantile_rows: List[List[object]] = []
    for label, report in (("elastic 1->4", elastic_report),
                          (f"static {MAX_WORKERS}", static_report)):
        for row in report.slo.quantile_rows():
            quantile_rows.append([label] + list(row))
    post_rows = [
        ["elastic 1->4", int(elastic_summary["count"]),
         elastic_summary["p50"], elastic_summary["p99"],
         elastic_summary["p999"]],
        [f"static {MAX_WORKERS}", int(static_summary["count"]),
         static_summary["p50"], static_summary["p99"],
         static_summary["p999"]],
    ]
    emit_report(
        "elastic_slo",
        "Autoscaled ProcessFleet under a step-load spike vs a static "
        f"{MAX_WORKERS}-worker fleet ({NUM_TENANTS} tenants, "
        f"{len(arrivals)} open-loop arrivals, seed {SEED})",
        [
            ("Scale-up timeline (elastic fleet)",
             ["tick", "arrivals", "completed", "queue depth", "workers",
              "action", "reason"],
             timeline_rows),
            ("Latency quantiles, full run (seconds)",
             ["deployment", "phase", "count", "p50", "p99", "p999", "max"],
             quantile_rows),
            (f"Post-convergence latency (ticks >= {conv_tick})",
             ["deployment", "count", "p50", "p99", "p999"],
             post_rows),
        ],
        notes=(
            f"Exactness differential: {matches}/{len(arrivals)} verdict "
            "fingerprints byte-identical in admission order; ledger equal: "
            f"{elastic_ledger == static_ledger}.  Keep-up gate (exact): "
            f"the elastic fleet stays at {MAX_WORKERS} workers after "
            f"convergence and clears the backlog in "
            f"{len(elastic_report.ticks)} ticks (static fleet: "
            f"{len(static_report.ticks)}).  Reported, not gated (wall clock "
            f"on a shared host): elastic post-convergence p99 "
            f"{float(elastic_summary['p99']):.4f}s vs SLO "
            f"{SLO_P99_FACTOR:.1f}x static p99 = {slo_p99_s:.4f}s."),
    )

    # -- Transparency gates: unconditional, host-independent. --------------
    assert len(elastic_report.requests) == len(arrivals)
    assert len(static_report.requests) == len(arrivals)
    assert matches == len(arrivals), \
        f"only {matches}/{len(arrivals)} verdicts identical"
    assert elastic_ledger[0] == static_ledger[0]
    assert elastic_ledger[1] == static_ledger[1]
    assert sum(elastic_ledger[0].values()) == elastic_ledger[1]

    # -- Scale-up shape: the spike must force 1 -> 4 from live signals. ----
    assert timeline[0] == 1
    assert conv_tick is not None, f"never reached {MAX_WORKERS} workers"
    assert max(timeline) == MAX_WORKERS
    assert any(d.action == "up" for d in elastic_report.decisions)

    # -- Keep-up gate: after convergence the elastic fleet holds 4 workers
    # and clears the spike in as many (virtual) ticks as the static fleet.
    assert elastic_summary["count"] > 0 and static_summary["count"] > 0
    assert timeline[conv_tick:] == [MAX_WORKERS] * (len(timeline) - conv_tick)
    assert len(elastic_report.ticks) == len(static_report.ticks), (
        len(elastic_report.ticks), len(static_report.ticks))
    assert elastic_report.ticks[-1].queue_depth == 0
