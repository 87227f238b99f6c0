"""Re-homing audit: undrain racing a prior failover must leave routing sane.

The bug class under test: a tenant is drained off its home, its second
home is disturbed while the first is out (a second drain at the cluster
tier; a worker death, restarted in place, at the fleet tier), and the
original home is then undrained.  The undrain rebalance must route every
tenant back to its ring owner — and that owner must actually *host* the
tenant's ModelEntry, with no stale copy left on any shard it passed
through.  A fresh submit per tenant then proves the
routing table operationally, and exact conservation proves none of the
migrations minted or destroyed value.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.graph import trace_module
from repro.protocol.service import TERMINAL_TASK_STATUSES


NUM_TENANTS = 6


@pytest.fixture(scope="module")
def rehoming_graphs(mlp_module, mlp_input_factory):
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"tenant_{i}")
            for i in range(NUM_TENANTS)]


def _assert_routing_consistent(front_end, hosted_names_by_shard):
    """Every tenant routed to its ring owner, hosted there and only there."""
    for name in front_end.model_names:
        record = front_end.placement.record(name)
        assert front_end.placement.ring.node_for(record.key) == record.shard_id, \
            f"{name} routed off its ring owner"
    for shard_id, hosted in hosted_names_by_shard.items():
        routed = {name for name in front_end.model_names
                  if front_end.location(name) == shard_id}
        assert routed == hosted, \
            f"{shard_id}: routing table and hosted entries disagree"


class TestClusterRehoming:
    def test_drain_failover_undrain_submit(self, rehoming_graphs,
                                           mlp_thresholds, mlp_input_factory):
        cluster = TAOCluster(num_shards=3, n_way=2)
        try:
            for graph in rehoming_graphs:
                cluster.register_model(graph, threshold_table=mlp_thresholds)
            for index, graph in enumerate(rehoming_graphs):
                cluster.submit(graph.name, mlp_input_factory(40 + index))

            probe = rehoming_graphs[0].name
            first_home = cluster.location(probe)
            cluster.drain_shard(first_home)
            second_home = cluster.location(probe)
            assert second_home != first_home

            # Second failover while the first home is still out: drain the
            # shard the probe landed on, so its tenants (the probe included)
            # carry *two* stacked re-homes when the undrain arrives.
            cluster.drain_shard(second_home)
            assert cluster.location(probe) not in (first_home, second_home)
            assert cluster.failovers >= 2

            cluster.undrain_shard(first_home)
            cluster.undrain_shard(second_home)

            # Ring placement restored exactly, and the routed shard is the
            # one actually hosting each ModelEntry — no stale copies on the
            # shards a tenant passed through.
            hosted = {shard_id: set(shard.service.model_names)
                      for shard_id, shard in cluster.shards.items()}
            _assert_routing_consistent(cluster, hosted)
            for graph in rehoming_graphs:
                entry = cluster.model(graph.name)  # resolves on routed shard
                assert entry.name == graph.name

            # Operational proof: fresh traffic to every tenant completes.
            follow_ups = [cluster.submit(graph.name, mlp_input_factory(60 + i))
                          for i, graph in enumerate(rehoming_graphs)]
            cluster.process()
            for request_id in follow_ups:
                assert (cluster.request(request_id).status
                        in TERMINAL_TASK_STATUSES)
            assert cluster.pending_count == 0
            assert sum(cluster.chain.balances.values()) == cluster.chain.minted
        finally:
            cluster.close()


class TestFleetRehoming:
    def test_drain_shard_death_undrain_submit(self, rehoming_graphs,
                                               mlp_thresholds,
                                               mlp_input_factory):
        fleet = ProcessFleet(num_workers=3, n_way=2)
        try:
            for graph in rehoming_graphs:
                fleet.register_model(graph, threshold_table=mlp_thresholds)
            request_ids = [fleet.submit(graph.name, mlp_input_factory(70 + i))
                           for i, graph in enumerate(rehoming_graphs)]

            probe = rehoming_graphs[0].name
            first_home = fleet.location(probe)
            drained = len(fleet.placement.tenants_on(first_home))
            fleet.drain_shard(first_home)
            second_home = fleet.location(probe)
            assert second_home != first_home
            assert fleet.failovers == drained

            # The worker the probe moved to dies for real; the next drain
            # discovers the EOF and restarts it in place from its journal,
            # adopted tenants and re-dispatched queue included.
            handle = fleet.workers[second_home]
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=5.0)
            results = fleet.process()
            assert len(results) == len(request_ids)
            assert fleet.workers[second_home].alive
            assert fleet.location(probe) == second_home
            assert fleet.recoveries == 1
            # Only the administrative drain moved tenants.
            assert fleet.failovers == drained

            fleet.undrain_shard(first_home)

            # Undrain re-migration: every tenant back on its ring owner,
            # the restarted worker's included.
            for name in fleet.model_names:
                record = fleet.placement.record(name)
                assert fleet.placement.ring.node_for(record.key) == record.shard_id
                assert fleet.workers[record.shard_id].alive
            assert fleet.location(probe) == first_home

            # Operational proof on the process tier: the routed worker must
            # host each registration, or these submits would fail there.
            follow_ups = [fleet.submit(graph.name, mlp_input_factory(90 + i))
                          for i, graph in enumerate(rehoming_graphs)]
            results = fleet.process()
            assert {r.request_id for r in results} == set(follow_ups)
            for request_id in follow_ups:
                assert (fleet.request(request_id).status
                        in TERMINAL_TASK_STATUSES)
            assert sum(fleet.chain.balances.values()) == fleet.chain.minted
        finally:
            fleet.close()
