"""Fleet throughput: *measured* wall-clock speedup from worker processes.

The cluster scaling benchmark's shards share one GIL and drain one after
another, so it cannot show parallel speedup.  This benchmark measures it:
the same cached 16-tenant MLP
serving workload is driven through a :class:`~repro.fleet.fleet.ProcessFleet`
at 1/2/4 worker *processes*, and the reported number is the parent's real
wall clock around ``process()`` — codec, RPC framing, nested chain
settlement and all.

The gates are exact counts: every deployment completes the whole stream,
every worker hosts a tenant at 2 and 4 workers (the spread the parallel
drain needs), and every deployment scores exactly 128 result-cache hits
(16 tenants x 4 payloads x 2 repeats: each tenant's repeats stay on its one
worker).  The measured speedup (target >= 1.6x at 4 workers vs 1) is
wall-clock on a shared host, so the table reports it instead of gating on
it.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Dict, List

from repro.fleet import ProcessFleet

from benchmarks.reporting import emit_table
from benchmarks.test_cluster_scaling import (
    DISTINCT_PAYLOADS,
    NUM_TENANTS,
    REPEATS,
    _payload,
    _stream,
    _workload,
)

WORKER_COUNTS = (1, 2, 4)
TARGET_WORKERS = 4
TARGET_SPEEDUP = 1.6
STREAM_TOTAL = NUM_TENANTS * DISTINCT_PAYLOADS * REPEATS


def _drive_fleet(fleet: ProcessFleet, graphs, thresholds) -> Dict[str, object]:
    """Warm up, then measure one full fleet stream at steady state."""
    for graph in graphs:
        fleet.register_model(graph, threshold_table=thresholds)
    for graph in graphs:  # absorbs plan compilation + batch certification
        fleet.submit(graph.name, _payload(1))
        fleet.submit(graph.name, _payload(2))
    fleet.process()
    gc.collect()

    wall_before = fleet.measured_wall_s
    stats_before = fleet.stats()
    for graph_index, graph in enumerate(graphs):
        for payload in _stream(graph_index):
            fleet.submit(graph.name, payload)
    processed = fleet.process()
    for request in processed:
        assert request.status == "finalized", request.status

    stats = fleet.stats()
    wall = fleet.measured_wall_s - wall_before
    completed = stats.requests_completed - stats_before.requests_completed
    homes = Counter(fleet.location(graph.name) for graph in graphs)
    return {
        "completed": completed,
        "wall_s": wall,
        "measured_rps": completed / wall,
        "cache_hits": stats.cache_hits - stats_before.cache_hits,
        "tenants_per_worker": sorted(homes.values(), reverse=True),
    }


def test_fleet_throughput(benchmark):
    graphs, thresholds = _workload()

    def run():
        scaling = {}
        for num_workers in WORKER_COUNTS:
            fleet = ProcessFleet(num_workers=num_workers)
            try:
                scaling[num_workers] = _drive_fleet(fleet, graphs, thresholds)
            finally:
                fleet.close()
        return scaling

    scaling = benchmark.pedantic(run, rounds=1, iterations=1)

    base = scaling[1]
    speedup = scaling[TARGET_WORKERS]["measured_rps"] / base["measured_rps"]
    emit_table(
        "fleet_throughput",
        "ProcessFleet measured wall-clock throughput vs worker processes "
        f"({NUM_TENANTS} tenants x {DISTINCT_PAYLOADS * REPEATS} requests, "
        "cached MLP workload)",
        ["workers", "measured wall (s)", "measured rps", "speedup vs 1 worker",
         "cache hits", "tenants per worker"],
        [[num_workers, r["wall_s"], r["measured_rps"],
          r["measured_rps"] / base["measured_rps"], r["cache_hits"],
          str(r["tenants_per_worker"])]
         for num_workers, r in scaling.items()],
        notes=("Each worker is a full TAOService in its own process behind "
               "the serialized RPC transport; 'measured rps' is the parent's "
               "wall clock around process(), including codec, framing and "
               "nested chain settlement.  Gated (exact counts): the whole "
               "stream completes, every worker hosts a tenant at 2 and 4 "
               "workers, and each tenant's repeats hit its one worker's "
               "result cache (exactly 128 hits at every worker count).  "
               f"Reported, not gated (wall clock on a shared host): measured "
               f"{TARGET_WORKERS}-worker speedup {speedup:.2f}x (target >= "
               f"{TARGET_SPEEDUP:.1f}x on a host with >= {TARGET_WORKERS} "
               "cores)."),
    )

    # Every deployment served the whole fleet stream, wall clock measured.
    for r in scaling.values():
        assert r["completed"] == STREAM_TOTAL
        assert r["wall_s"] > 0.0

    # Placement gate: no worker idles at 2 and 4 workers, so the parallel
    # drain has work for every process.
    for num_workers in (2, 4):
        tenants = scaling[num_workers]["tenants_per_worker"]
        assert len(tenants) == num_workers and min(tenants) >= 1, scaling
    # Locality: each tenant's repeats hit its one worker's result cache.
    for r in scaling.values():
        assert r["cache_hits"] == \
            NUM_TENANTS * DISTINCT_PAYLOADS * (REPEATS - 1), scaling
