"""Fleet throughput: *measured* wall-clock speedup from worker processes.

The cluster scaling benchmark reports the fleet's modeled parallel
throughput (completed / critical-path busy time) because its shards share
one GIL.  This benchmark removes the model: the same cached 16-tenant MLP
serving workload is driven through a :class:`~repro.fleet.fleet.ProcessFleet`
at 1/2/4 worker *processes*, and the reported number is the parent's real
wall clock around ``process()`` — codec, RPC framing, nested chain
settlement and all.

The acceptance gate (>= 1.6x measured speedup at 4 workers vs 1) is only
enforced when the host actually has >= 4 cores; a single-core container
cannot exceed 1x by physics, so there the table still reports the measured
numbers (stamped with the host provenance) and the gate is skipped rather
than faked.
"""

from __future__ import annotations

import gc
import os
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
GATE_WORKERS = 4
GATE_SPEEDUP = 1.6
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
    completed_before = fleet.stats().requests_completed
    for graph_index, graph in enumerate(graphs):
        for payload in _stream(graph_index):
            fleet.submit(graph.name, payload)
    processed = fleet.process()
    for request in processed:
        assert request.status == "finalized", request.status

    stats = fleet.stats()
    wall = fleet.measured_wall_s - wall_before
    completed = stats.requests_completed - completed_before
    homes = Counter(fleet.location(graph.name) for graph in graphs)
    return {
        "completed": completed,
        "wall_s": wall,
        "measured_rps": completed / wall,
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

    cores = os.cpu_count() or 1
    base = scaling[1]
    gated = cores >= GATE_WORKERS
    emit_table(
        "fleet_throughput",
        "ProcessFleet measured wall-clock throughput vs worker processes "
        f"({NUM_TENANTS} tenants x {DISTINCT_PAYLOADS * REPEATS} requests, "
        "cached MLP workload)",
        ["workers", "measured wall (s)", "measured rps", "speedup vs 1 worker",
         "tenants per worker"],
        [[num_workers, r["wall_s"], r["measured_rps"],
          r["measured_rps"] / base["measured_rps"],
          str(r["tenants_per_worker"])]
         for num_workers, r in scaling.items()],
        notes=("Each worker is a full TAOService in its own process behind "
               "the serialized RPC transport; 'measured rps' is the parent's "
               "wall clock around process(), including codec, framing and "
               "nested chain settlement.  Acceptance gate: >= "
               f"{GATE_SPEEDUP}x at {GATE_WORKERS} workers, "
               + ("ENFORCED on this host."
                  if gated else
                  f"SKIPPED on this host ({cores} core(s) < {GATE_WORKERS}: "
                  "a single core cannot exceed 1x by physics).")),
    )

    # Every deployment served the whole fleet stream, wall clock measured.
    for r in scaling.values():
        assert r["completed"] == STREAM_TOTAL
        assert r["wall_s"] > 0.0

    if gated:
        # The headline: modeled speedup realized as measured wall clock.
        assert scaling[GATE_WORKERS]["measured_rps"] >= \
            GATE_SPEEDUP * base["measured_rps"], scaling
        # And adding the first extra worker already pays.
        assert scaling[2]["measured_rps"] > base["measured_rps"], scaling
