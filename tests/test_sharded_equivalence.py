"""Differential test: sharding is observationally transparent on both tiers.

The headline guarantee of the sharded front end, pinned as a test: one
seeded multi-tenant request schedule — honest traffic, repeated payloads,
adversarial proposers, forced challenges — is run through

* the plain single-process :class:`~repro.protocol.service.TAOService`,
* :class:`~repro.cluster.cluster.TAOCluster` (in-process shards) at 1 and 4
  shards, and :class:`~repro.fleet.fleet.ProcessFleet` (real worker
  *processes* driven over the serialized RPC transport) at 1 and 2 workers,
* each tier at 4 shards with a failover injected mid-schedule (the busiest
  shard is drained with requests still queued, so they are withdrawn and
  re-dispatched to the ring successor),

and every deployment must produce **byte-identical per-request verdicts**
(statuses, execution-commitment bytes, dispute localizations) and an
**exactly equal ledger**: the same per-account balance for every account
that exists anywhere, and the same minted total — float equality, no
tolerance.  Moves carry a tenant's roles and clone accounting precisely so
that not one ledger unit diverges, and settlement never leaves the parent:
fleet workers reach the one shared chain through nested ``chain_call``
messages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.cluster import ConsistentHashRing, TAOCluster
from repro.fleet import ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.graph import trace_module
from repro.protocol import TAOService
from repro.protocol.service import ServiceCore

NUM_TENANTS = 4
ROUNDS = 8  # requests per tenant
TIERS = ("cluster", "fleet")


def _build(tier: str, num_shards: int):
    if tier == "cluster":
        return TAOCluster(num_shards=num_shards, n_way=2)
    return ProcessFleet(num_workers=num_shards, n_way=2)


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
    """Register tenants, play the schedule, return per-request records.

    A cheat's proposer is built in process from the tenant's session, or
    shipped to a fleet worker as its wire twin: same name, same delta.
    """
    sessions = {graph.name: front_end.register_model(
        graph, threshold_table=thresholds) for graph in graphs}
    fleet = isinstance(front_end, ProcessFleet)

    events = _schedule()
    half = len(events) // 2
    request_ids: List[int] = []

    def submit(chunk):
        for tenant, payload_seed, kind in chunk:
            graph = graphs[tenant]
            proposer = None
            if kind == "cheat":
                name = f"{graph.name}-cheat-{payload_seed}"
                delta = np.float32(0.05)
                proposer = {
                    "type": "adversarial", "name": name,
                    "perturbations": {_victim(graph): encode_perturbation(delta)},
                } if fleet else sessions[graph.name].make_adversarial_proposer(
                    name, {_victim(graph): delta})
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
        depths = front_end.queue_depths()
        busiest = max(depths, key=lambda sid: (depths[sid], sid))
        front_end.drain_shard(busiest)
    front_end.process()
    return [front_end.request(request_id) for request_id in request_ids]


def _ledger(front_end: ServiceCore) -> Tuple[Dict[str, float], float]:
    chain = getattr(front_end, "chain", None) or front_end.coordinator.chain
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


def _assert_equivalent(expected_requests, expected_ledger, got_requests,
                       got_ledger) -> None:
    # Byte-identical per-request verdicts, in submission order.
    assert len(got_requests) == len(expected_requests)
    for index, (expected, got) in enumerate(zip(expected_requests,
                                                got_requests)):
        assert _fingerprint(got) == _fingerprint(expected), f"request {index}"
    # Exact ledger equality: every account, every balance, the minted total.
    assert got_ledger == expected_ledger
    # Conservation holds fleet-wide on the shared settlement chain.
    balances, minted = got_ledger
    assert sum(balances.values()) == minted


@pytest.fixture(scope="module")
def reference(tenant_graphs, mlp_thresholds, mlp_input_factory):
    """The plain single-service run every sharded deployment must match."""
    service = TAOService(n_way=2)
    requests = _drive(service, tenant_graphs, mlp_thresholds, mlp_input_factory)
    return service, requests


@pytest.mark.parametrize("tier,num_shards,drain", [
    ("cluster", 1, False), ("cluster", 4, False), ("cluster", 4, True),
    ("fleet", 1, False), ("fleet", 2, False), ("fleet", 4, True),
], ids=["cluster-1", "cluster-4", "cluster-4-failover",
        "fleet-1", "fleet-2", "fleet-4-failover"])
def test_tier_matches_plain_service(reference, tenant_graphs, mlp_thresholds,
                                    mlp_input_factory, tier, num_shards, drain):
    service, service_requests = reference
    with _build(tier, num_shards) as front:
        requests = _drive(front, tenant_graphs, mlp_thresholds,
                          mlp_input_factory, drain_midway=drain)
        _assert_equivalent(service_requests, _ledger(service),
                           requests, _ledger(front))
        if drain:
            # The failover actually happened: requests moved shards.
            assert front.failovers >= 1
            assert front.redispatched_requests >= 1
            drained = front.placement.drained_shards
            assert drained
            for name in front.model_names:
                assert front.location(name) not in drained
        # Wall-clock accounting is live on the measured path.
        stats = front.stats()
        assert stats.shards == num_shards
        assert stats.measured_wall_s > 0.0
        assert stats.requests_completed == len(requests)


def test_fleet_matches_cluster(reference, tenant_graphs, mlp_thresholds,
                               mlp_input_factory):
    """Three-way pin: plain service, cluster and fleet agree on one
    schedule in one process."""
    service, service_requests = reference
    with _build("cluster", 2) as cluster, _build("fleet", 2) as fleet:
        cluster_requests = _drive(cluster, tenant_graphs, mlp_thresholds,
                                  mlp_input_factory)
        fleet_requests = _drive(fleet, tenant_graphs, mlp_thresholds,
                                mlp_input_factory)
        _assert_equivalent(service_requests, _ledger(service),
                           fleet_requests, _ledger(fleet))
        _assert_equivalent(cluster_requests, _ledger(cluster),
                           fleet_requests, _ledger(fleet))


@pytest.mark.parametrize("tier", TIERS)
def test_ring_resize_migrates_deterministically(tenant_graphs, mlp_thresholds,
                                                mlp_input_factory, tier):
    """add/remove shard moves exactly the ring-dictated tenants, and serving
    continues unchanged.

    The in-process backend moves a tenant's entry whole, so its warmed
    result cache moves with it; a fleet move re-registers the tenant on the
    target worker, so only tenants that never moved repeat as cache hits.
    """
    with _build(tier, 2) as front:
        for graph in tenant_graphs:
            front.register_model(graph, threshold_table=mlp_thresholds)
        # Warm every tenant's result cache and record the verdicts.
        warm_ids = {g.name: front.submit(g.name, mlp_input_factory(3))
                    for g in tenant_graphs}
        front.process()
        warm_status = {name: front.request(rid).status
                       for name, rid in warm_ids.items()}
        before = {g.name: front.location(g.name) for g in tenant_graphs}

        grown = front.add_shard("shard-2")
        after_add = {g.name: front.location(g.name) for g in tenant_graphs}
        for name in before:
            # Minimal migration: a tenant either stayed put or moved to the
            # *new* shard — never shuffled between pre-existing shards.
            assert after_add[name] in (before[name], grown)
        # Placement matches an independently computed ring oracle.
        oracle = ConsistentHashRing(["shard-0", "shard-1", "shard-2"], vnodes=64)
        for name, record in front.placement.tenants.items():
            assert after_add[name] == oracle.node_for(record.key)

        # Migrated tenants keep serving: the repeated payload reproduces the
        # warm verdict exactly.
        moved = [name for name in before if after_add[name] != before[name]]
        for name in moved or list(before):
            request_id = front.submit(name, mlp_input_factory(3))
            front.process()
            assert front.request(request_id).status == warm_status[name]
            assert front.request(request_id).cache_hit == \
                (tier == "cluster" or name not in moved)

        # Removing the shard sends its tenants back to their ring owners, and
        # the retired shard's history stays visible to fleet settlement.
        front.remove_shard("shard-2")
        after_remove = {g.name: front.location(g.name) for g in tenant_graphs}
        assert after_remove == before
        assert front.retired_shards and \
            front.retired_shards[0].shard_id == "shard-2"
        assert front.retired_shards[0].coordinator in front.coordinators()
        assert sum(front.chain.balances.values()) == front.chain.minted
        first = tenant_graphs[0].name
        request_id = front.submit(first, mlp_input_factory(3))
        front.process()
        assert front.request(request_id).status == warm_status[first]
        assert front.request(request_id).cache_hit == \
            (tier == "cluster" or first not in moved)


@pytest.mark.parametrize("tier", TIERS)
def test_four_shards_spread_tenants(tenant_graphs, mlp_thresholds,
                                    mlp_input_factory, tier):
    """Consistent-hash placement uses more than one shard for 4 tenants.

    (Placement is a pure function of the commitment digests, so this pins
    the tier actually sharding the workload rather than collapsing onto a
    single node.)
    """
    with _build(tier, 4) as front:
        for graph in tenant_graphs:
            front.register_model(graph, threshold_table=mlp_thresholds)
        homes = {front.location(graph.name) for graph in tenant_graphs}
        assert len(homes) >= 2
        # And requests follow their tenants: shard-locality of the result cache.
        payload = mlp_input_factory(9)
        first = front.submit(tenant_graphs[0].name, payload)
        second = front.submit(tenant_graphs[0].name, payload)
        front.process()
        assert front.request(first).report is not None
        assert front.request(second).cache_hit
