"""TAOCluster demo: a multi-tenant fleet with routing, faults and failover.

This drives the sharded serving tier end to end:

1. build a 4-shard cluster (one shared settlement chain, per-shard clocks)
   and register six tenant models — each is homed by the consistent hash of
   its commitment digest, so placement is reproducible;
2. submit a mixed fleet stream: honest traffic, repeated payloads (served
   from each tenant's shard-local result cache), one cheating proposer;
3. process — shards drain in shard-id order, disputes are localized on
   whichever shard owns the tenant;
4. drain a shard with requests still queued: its tenants fail over to their
   ring successors and the queued requests are withdrawn and re-dispatched;
5. print placement, per-request outcomes, fleet statistics and settlement
   (balances conserve against the minted total, fleet-wide, exactly).

Run with:  python examples/cluster_throughput.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CalibrationConfig,
    Calibrator,
    DEVICE_FLEET,
    TAOCluster,
    ThresholdTable,
    calibrate_committee_envelope,
    get_model_spec,
    trace_module,
)


def main() -> None:
    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    # Six tenant replicas of one checkpoint: same module, distinct names, so
    # their commitment digests (and therefore ring homes) differ.
    graphs = [trace_module(module, spec.sample_inputs(module, 1, seed=0),
                           name=f"bert_tenant_{i}")
              for i in range(6)]
    # One calibration serves every replica (identical node names/weights).
    calibration_inputs = spec.dataset(module, 12, seed=7, batch_size=1)
    calibrator = Calibrator(CalibrationConfig(devices=DEVICE_FLEET))
    calibration = calibrator.calibrate(graphs[0], calibration_inputs)
    thresholds = ThresholdTable.from_calibration(calibration, alpha=4.0)
    envelope = calibrate_committee_envelope(graphs[0], calibration_inputs)

    cluster = TAOCluster(num_shards=4)
    sessions = {}
    for graph in graphs:
        sessions[graph.name] = cluster.register_model(
            graph, threshold_table=thresholds, committee_envelope=envelope)
    print("Tenant placement (consistent hash of commitment digest):")
    for graph in graphs:
        print(f"  {graph.name:<16} -> {cluster.location(graph.name)}")

    # A fleet stream: 4 unique payloads per tenant, the first repeated 3x.
    request_ids = []
    for index, graph in enumerate(graphs):
        payloads = [spec.sample_inputs(module, 1, seed=100 * index + j)
                    for j in range(4)]
        request_ids += cluster.submit_many(graph.name, payloads)
        repeated = spec.sample_inputs(module, 1, seed=100 * index)
        request_ids += cluster.submit_many(graph.name, [repeated] * 3)

    # One cheating proposer against tenant 0.
    victim = next(n.name for n in graphs[0].graph.operators
                  if n.target == "linear")
    cheater = sessions[graphs[0].name].make_adversarial_proposer(
        "cheating-provider", {victim: np.float32(0.05)})
    cheat_id = cluster.submit(graphs[0].name,
                              spec.sample_inputs(module, 1, seed=777),
                              proposer=cheater)

    processed = cluster.process()
    print(f"\nProcessed {len(processed)} requests across "
          f"{len(cluster.shards)} shards.")

    cheat = cluster.request(cheat_id)
    print(f"Cheater localized at "
          f"{cheat.report.dispute.localized_operator} (injected at {victim}); "
          f"status={cheat.status}")

    # Failover: drain a busy shard while new requests sit in its queue.
    victim_shard = cluster.location(graphs[0].name)
    for index, graph in enumerate(graphs):
        cluster.submit(graph.name, spec.sample_inputs(module, 1,
                                                      seed=900 + index))
    print(f"\nDraining {victim_shard} with requests queued ...")
    cluster.drain_shard(victim_shard)
    for graph in graphs:
        new_home = cluster.location(graph.name)
        assert new_home != victim_shard
    print(f"  tenants re-homed, {cluster.redispatched_requests} queued "
          f"requests re-dispatched to ring successors")
    for request in cluster.process():
        assert request.status == "finalized", request.status

    stats = cluster.stats()
    print("\nFleet statistics:")
    print(f"  shards                : {stats.shards}")
    print(f"  completed             : {stats.requests_completed}")
    print(f"  cache hits            : {stats.cache_hits}")
    print(f"  disputes opened       : {stats.disputes_opened}")
    print(f"  failovers             : {stats.failovers}")
    print(f"  re-dispatched         : {stats.redispatched_requests}")
    print(f"  measured wall         : {stats.measured_wall_s * 1e3:.1f} ms")
    print("  per-shard busy (ms)   : "
          + ", ".join(f"{sid}={busy * 1e3:.1f}"
                      for sid, busy in sorted(stats.shard_busy_s.items())))

    chain = cluster.chain
    total = sum(chain.balances.values())
    print(f"\nSettlement: {len(chain.transactions)} transactions, "
          f"{chain.total_gas() / 1e6:.2f} Mgas")
    print(f"  conservation: sum(balances) == minted: "
          f"{total == chain.minted} ({total:.1f})")
    print(f"  gas by shard: "
          + ", ".join(f"{shard or 'unsharded'}={gas / 1e3:.0f}k"
                      for shard, gas in sorted(chain.gas_by_shard().items())))


if __name__ == "__main__":
    main()
