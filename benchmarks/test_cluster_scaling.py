"""Cluster scaling: throughput vs shard count on the cached MLP workload.

16 tenant replicas of a small classifier head each serve a stream of
repeated payloads at steady state, on 1/2/4/8 shards.  The cluster drains
its shards one after another on the calling thread, so the measured
single-host wall clock stays near the 1-shard number; the process fleet is
the tier that measures parallel wall clock.  Wall-clock ratios swing with
whatever else the process has run, so the table reports them instead of
gating on them.

The gates are exact counts: every deployment completes the whole stream,
every shard hosts a tenant at 2 and 4 shards, and every deployment scores
exactly 128 result-cache hits (16 tenants x 4 payloads x 2 repeats).
Placement by commitment digest pins each tenant — and so its
content-addressed result cache — to one shard, so every repeat after a
payload's first execution hits.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

from repro.calibration import CalibrationConfig, Calibrator, ThresholdTable
from repro.cluster import TAOCluster
from repro.graph import Module, Parameter, trace_module
from repro.graph import functional as F
from repro.tensorlib import DEVICE_FLEET

from benchmarks.reporting import emit_table

NUM_TENANTS = 16
DISTINCT_PAYLOADS = 4
REPEATS = 3  # requests per payload -> 12 requests per tenant
SHARD_COUNTS = (1, 2, 4, 8)


class ServingHead(Module):
    """The small MLP classifier head used by the service benchmark."""

    def __init__(self, d_in: int = 32, d_hidden: int = 48, d_out: int = 6,
                 seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.ln_w = Parameter(np.ones(d_in))
        self.ln_b = Parameter(np.zeros(d_in))
        self.w1 = Parameter(rng.standard_normal((d_hidden, d_in)) * 0.1)
        self.b1 = Parameter(np.zeros(d_hidden))
        self.w2 = Parameter(rng.standard_normal((d_hidden, d_hidden)) * 0.1)
        self.b2 = Parameter(np.zeros(d_hidden))
        self.w3 = Parameter(rng.standard_normal((d_out, d_hidden)) * 0.1)
        self.b3 = Parameter(np.zeros(d_out))

    def forward(self, x):
        x = F.layer_norm(x, self.ln_w, self.ln_b)
        h = F.gelu(F.linear(x, self.w1, self.b1))
        h = F.relu(F.linear(h, self.w2, self.b2))
        return F.softmax(F.linear(h, self.w3, self.b3), axis=-1)


def _payload(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((4, 32)).astype(np.float32)}


def _workload():
    """16 tenant graphs over one checkpoint + one calibrated threshold table."""
    module = ServingHead()
    graphs = [trace_module(module, _payload(0), name=f"mlp_head_{i}")
              for i in range(NUM_TENANTS)]
    calibrator = Calibrator(CalibrationConfig(devices=DEVICE_FLEET))
    calibration = calibrator.calibrate(
        graphs[0], [_payload(1000 + i) for i in range(12)])
    thresholds = ThresholdTable.from_calibration(calibration, alpha=6.0)
    return graphs, thresholds


def _stream(tenant: int) -> List[Dict[str, np.ndarray]]:
    """12 requests per tenant: 4 distinct payloads, each repeated 3x."""
    return [_payload(500 + tenant * DISTINCT_PAYLOADS + index % DISTINCT_PAYLOADS)
            for index in range(DISTINCT_PAYLOADS * REPEATS)]


def _build_cluster(graphs, thresholds, num_shards: int) -> TAOCluster:
    cluster = TAOCluster(num_shards=num_shards)
    for graph in graphs:
        cluster.register_model(graph, threshold_table=thresholds)
    return cluster


def _drive(cluster: TAOCluster, graphs) -> Dict[str, float]:
    """Warm up, then measure one full fleet stream at steady state."""
    for graph in graphs:  # absorbs plan compilation + batch certification
        cluster.submit_many(graph.name, [_payload(1), _payload(2)])
    cluster.process()

    # Flush pending garbage before measuring: a major collection triggered
    # mid-drain adds tens of ms to the measured wall when the whole suite's
    # heap is behind it.
    gc.collect()

    wall_before = cluster.measured_wall_s
    stats_before = cluster.stats()

    for graph_index, graph in enumerate(graphs):
        cluster.submit_many(graph.name, _stream(graph_index))
    processed = cluster.process()
    for request in processed:
        assert request.status == "finalized", request.status

    stats = cluster.stats()
    completed = stats.requests_completed - stats_before.requests_completed
    wall = cluster.measured_wall_s - wall_before
    return {
        "completed": completed,
        "wall_s": wall,
        "measured_rps": completed / wall,
        "cache_hits": stats.cache_hits - stats_before.cache_hits,
        "tenants_per_shard": sorted(
            (len(shard.service.model_names) for shard in cluster.shards.values()),
            reverse=True),
    }


def test_cluster_scaling(benchmark):
    graphs, thresholds = _workload()

    def run():
        return {num_shards: _drive(_build_cluster(graphs, thresholds, num_shards),
                                   graphs)
                for num_shards in SHARD_COUNTS}

    scaling = benchmark.pedantic(run, rounds=1, iterations=1)

    measured_4 = scaling[4]["measured_rps"] / scaling[1]["measured_rps"]
    emit_table(
        "cluster_scaling",
        "TAOCluster throughput vs shard count "
        f"({NUM_TENANTS} tenants x {DISTINCT_PAYLOADS * REPEATS} requests, "
        "cached MLP workload)",
        ["shards", "measured wall (s)", "measured rps", "cache hits",
         "tenants per shard"],
        [[num_shards, r["wall_s"], r["measured_rps"], r["cache_hits"],
          str(r["tenants_per_shard"])]
         for num_shards, r in scaling.items()],
        notes=("Shards drain one after another on the calling thread; "
               "'measured rps' is this host's wall clock around the "
               "sequential drain; it stays near the 1-shard number and is "
               "reported, not gated (measured 4-shard wall ratio "
               f"{measured_4:.2f}x).  Parallel wall clock is measured on the "
               "process fleet (fleet_throughput).  Tenant placement is by "
               "consistent hash of the model "
               "commitment digest (64 vnodes/shard), which keeps each "
               "tenant's result cache on one shard: of each tenant's 4 "
               "payloads x 3 repeats, every repeat after the first "
               "execution is a cache hit (gated: exactly 128 hits at "
               "every shard count)."),
    )

    # Every deployment served the whole fleet stream.
    for r in scaling.values():
        assert r["completed"] == NUM_TENANTS * DISTINCT_PAYLOADS * REPEATS
    # Placement gate: consistent hashing leaves no shard idle at 2 and 4.
    for num_shards in (2, 4):
        tenants = scaling[num_shards]["tenants_per_shard"]
        assert len(tenants) == num_shards and min(tenants) >= 1, scaling

    # Locality: each tenant's repeats hit its one shard's result cache (the
    # 4-shard row replaces the retired hash-vs-random comparison).
    for r in scaling.values():
        assert r["cache_hits"] == \
            NUM_TENANTS * DISTINCT_PAYLOADS * (REPEATS - 1), scaling
