"""Cross-shard differential test: sharding is observationally transparent.

The headline guarantee of the cluster layer, pinned as a test: one seeded
multi-tenant request schedule — honest traffic, repeated payloads,
adversarial proposers, forced challenges — is run through

* the plain single-process :class:`~repro.protocol.service.TAOService`,
* a 1-shard :class:`~repro.cluster.cluster.TAOCluster`,
* a 4-shard cluster, and
* a 4-shard cluster with a failover injected mid-schedule (the busiest
  shard is drained with requests still queued, so they are withdrawn and
  re-dispatched to the ring successor),

and every deployment must produce **byte-identical per-request verdicts**
(statuses, execution-commitment bytes, dispute localizations) and an
**exactly equal ledger**: the same per-account balance for every account
that exists anywhere, and the same minted total — float equality, no
tolerance.  Migration moves tenant entries whole (roles, clone accounting)
precisely so that not one ledger unit diverges.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.cluster import TAOCluster
from repro.graph import trace_module
from repro.protocol import TAOService
from repro.protocol.service import ServiceCore

NUM_TENANTS = 4
ROUNDS = 8  # requests per tenant


@pytest.fixture(scope="module")
def tenant_graphs(mlp_module, mlp_input_factory):
    """Four tenants: the shared MLP module traced under distinct names.

    Tracing the same module yields graphs over the *same* parameter arrays,
    so weight digests are shared through the hash cache exactly as a fleet
    hosting replicas of one checkpoint would share them — and the shared
    ``mlp_thresholds`` table applies to every tenant (identical node names).
    """
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"tenant_{i}")
            for i in range(NUM_TENANTS)]


def _schedule() -> List[Tuple[int, int, str]]:
    """Seeded (tenant, payload_seed, kind) schedule shared by every run."""
    rng = np.random.default_rng(20260729)
    events: List[Tuple[int, int, str]] = []
    for round_index in range(ROUNDS):
        for tenant in range(NUM_TENANTS):
            roll = rng.random()
            if roll < 0.12:
                kind = "cheat"
            elif roll < 0.22:
                kind = "force"
            else:
                kind = "honest"
            # A small payload pool per tenant so repeats hit the
            # content-addressed result cache (within and across cycles).
            payload_seed = 300 + tenant * 10 + round_index % 3
            events.append((tenant, payload_seed, kind))
    return events


def _victim(graph) -> str:
    return next(node.name for node in graph.graph.operators
                if node.target == "linear")


def _drive(front_end: ServiceCore, graphs, thresholds, input_factory,
           drain_midway: bool = False) -> List:
    """Register tenants, play the schedule, return per-request records."""
    sessions = {}
    for graph in graphs:
        sessions[graph.name] = front_end.register_model(
            graph, threshold_table=thresholds)

    events = _schedule()
    half = len(events) // 2
    request_ids: List[int] = []

    def submit(chunk):
        for tenant, payload_seed, kind in chunk:
            graph = graphs[tenant]
            proposer = None
            if kind == "cheat":
                proposer = sessions[graph.name].make_adversarial_proposer(
                    f"{graph.name}-cheat-{payload_seed}",
                    {_victim(graph): np.float32(0.05)},
                )
            request_ids.append(front_end.submit(
                graph.name, input_factory(payload_seed),
                proposer=proposer, force_challenge=(kind == "force"),
            ))

    submit(events[:half])
    front_end.process()
    submit(events[half:])
    if drain_midway:
        # Failover under load: the second half is queued but unprocessed;
        # draining the busiest shard withdraws and re-dispatches its share.
        assert isinstance(front_end, TAOCluster)
        busiest = max(
            front_end.shards,
            key=lambda sid: (front_end.shards[sid].service.pending_count, sid),
        )
        front_end.drain_shard(busiest)
    front_end.process()
    return [front_end.request(request_id) for request_id in request_ids]


def _ledger(front_end: ServiceCore) -> Tuple[Dict[str, float], float]:
    if isinstance(front_end, TAOCluster):
        chain = front_end.chain
    else:
        chain = front_end.coordinator.chain
    return dict(chain.balances), chain.minted


def _fingerprint(request) -> Tuple:
    """Everything the protocol lets a client observe about one request."""
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


@pytest.fixture(scope="module")
def reference(tenant_graphs, mlp_thresholds, mlp_input_factory):
    """The plain single-service run every cluster deployment must match."""
    service = TAOService(n_way=2)
    requests = _drive(service, tenant_graphs, mlp_thresholds, mlp_input_factory)
    return service, requests


@pytest.mark.parametrize("num_shards,drain", [(1, False), (4, False), (4, True)],
                         ids=["1-shard", "4-shard", "4-shard-failover"])
def test_cluster_matches_plain_service(reference, tenant_graphs, mlp_thresholds,
                                       mlp_input_factory, num_shards, drain):
    service, service_requests = reference
    cluster = TAOCluster(num_shards=num_shards, n_way=2)
    cluster_requests = _drive(cluster, tenant_graphs, mlp_thresholds,
                              mlp_input_factory, drain_midway=drain)

    # Byte-identical per-request verdicts, in submission order.
    assert len(cluster_requests) == len(service_requests)
    for index, (expected, got) in enumerate(zip(service_requests,
                                                cluster_requests)):
        assert _fingerprint(got) == _fingerprint(expected), f"request {index}"

    # Exact ledger equality: every account, every balance, the minted total.
    expected_balances, expected_minted = _ledger(service)
    got_balances, got_minted = _ledger(cluster)
    assert got_balances == expected_balances
    assert got_minted == expected_minted

    # Conservation holds fleet-wide on the shared settlement chain.
    assert sum(got_balances.values()) == got_minted

    if drain:
        # The failover actually happened: requests moved shards.
        assert cluster.failovers >= 1
        assert cluster.redispatched_requests >= 1
        drained = cluster.placement.drained_shards
        assert drained
        for name in cluster.model_names:
            assert cluster.location(name) not in drained


def test_ring_resize_migrates_deterministically(tenant_graphs, mlp_thresholds,
                                                mlp_input_factory):
    """add/remove shard moves exactly the ring-dictated tenants, and serving
    continues unchanged (caches and roles migrate whole)."""
    cluster = TAOCluster(num_shards=2, n_way=2)
    for graph in tenant_graphs:
        cluster.register_model(graph, threshold_table=mlp_thresholds)
    # Warm every tenant's result cache and record the verdicts.
    warm_ids = {g.name: cluster.submit(g.name, mlp_input_factory(3))
                for g in tenant_graphs}
    cluster.process()
    warm_status = {name: cluster.request(rid).status
                   for name, rid in warm_ids.items()}
    before = {g.name: cluster.location(g.name) for g in tenant_graphs}

    grown = cluster.add_shard("shard-2")
    after_add = {g.name: cluster.location(g.name) for g in tenant_graphs}
    for name in before:
        # Minimal migration: a tenant either stayed put or moved to the
        # *new* shard — never shuffled between pre-existing shards.
        assert after_add[name] in (before[name], grown)
    # Placement matches an independently computed ring oracle.
    from repro.cluster import ConsistentHashRing
    oracle = ConsistentHashRing(["shard-0", "shard-1", "shard-2"], vnodes=64)
    for name, record in cluster.placement.tenants.items():
        assert after_add[name] == oracle.node_for(record.key)

    # Migrated tenants keep serving, with their warmed caches intact: the
    # repeated payload hits the migrated cache and reproduces the warm
    # verdict exactly.
    moved = [name for name in before if after_add[name] != before[name]]
    for name in moved or list(before):
        request_id = cluster.submit(name, mlp_input_factory(3))
        cluster.process()
        assert cluster.request(request_id).status == warm_status[name]
        assert cluster.request(request_id).cache_hit

    # Removing the shard sends its tenants back to their ring owners, and
    # the retired shard's history stays visible to fleet settlement.
    cluster.remove_shard("shard-2")
    after_remove = {g.name: cluster.location(g.name) for g in tenant_graphs}
    assert after_remove == before
    assert cluster.retired_shards and \
        cluster.retired_shards[0].shard_id == "shard-2"
    assert sum(cluster.chain.balances.values()) == cluster.chain.minted
    request_id = cluster.submit(tenant_graphs[0].name, mlp_input_factory(3))
    cluster.process()
    assert cluster.request(request_id).status == warm_status[tenant_graphs[0].name]
    assert cluster.request(request_id).cache_hit


def test_four_shard_cluster_spreads_tenants(tenant_graphs, mlp_thresholds,
                                            mlp_input_factory):
    """Consistent-hash placement uses more than one shard for 4 tenants.

    (Placement is a pure function of the commitment digests, so this pins
    the fleet actually sharding the workload rather than collapsing onto a
    single node.)
    """
    cluster = TAOCluster(num_shards=4, n_way=2)
    for graph in tenant_graphs:
        cluster.register_model(graph, threshold_table=mlp_thresholds)
    homes = {cluster.location(graph.name) for graph in tenant_graphs}
    assert len(homes) >= 2
    # And requests follow their tenants: shard-locality of the result cache.
    payload = mlp_input_factory(9)
    first = cluster.submit(tenant_graphs[0].name, payload)
    second = cluster.submit(tenant_graphs[0].name, payload)
    cluster.process()
    assert cluster.request(first).report is not None
    assert cluster.request(second).cache_hit
