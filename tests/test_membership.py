"""One membership suite for both sharded tiers.

:class:`~repro.cluster.cluster.TAOCluster` and
:class:`~repro.fleet.fleet.ProcessFleet` are one front end
(:class:`~repro.cluster.placement.PlacedCore`) over one placement
controller (:class:`~repro.cluster.placement.Placement`), with one verb
set: ``add_shard`` / ``remove_shard`` / ``drain_shard`` /
``undrain_shard`` / ``active_shard_count``.  Every check here runs on both
tiers — the drain -> undrain -> add round trip, removal, shard-id
reservation, the last-live guard, the slash quarantine — plus the
autoscaler's one target over those verbs and the controller's plans on
their own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterError,
    Placement,
    PlacementError,
    TAOCluster,
    TenantRecord,
)
from repro.elastic import AutoscalerConfig, ShardTarget
from repro.fleet import FleetError, ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.graph import trace_module
from repro.merkle.cache import HashCache
from repro.protocol.roles import HonestProposer
from repro.protocol.service import TERMINAL_TASK_STATUSES

from test_sharded_equivalence import _victim

ERRORS = {"cluster": ClusterError, "fleet": FleetError}


@pytest.fixture(params=sorted(ERRORS))
def tier(request):
    return request.param


@pytest.fixture()
def make_tier(tier):
    """Builds ``n``-shard fronts of the parametrized tier; closes them all."""
    made = []

    def make(num_shards: int):
        front = (TAOCluster(num_shards=num_shards) if tier == "cluster"
                 else ProcessFleet(num_workers=num_shards))
        made.append(front)
        return front

    yield make
    for front in made:
        front.close()


@pytest.fixture(scope="module")
def tenant_graphs(mlp_module, mlp_input_factory):
    # Six tenants: enough digests that a second ring node always claims
    # at least one arc.
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"tenant_{i}")
            for i in range(6)]


def _register_all(front, graphs, thresholds):
    for graph in graphs:
        front.register_model(graph, threshold_table=thresholds)


def _assert_on_ring_owners(front):
    placement = front.placement
    for name in front.model_names:
        record = placement.record(name)
        assert placement.ring.node_for(record.key) == record.shard_id


def _conserved(front) -> bool:
    return sum(front.chain.balances.values()) == front.chain.minted


def test_last_live_drain_is_refused_before_any_state_change(
        tier, make_tier, mlp_graph, mlp_thresholds, mlp_input_factory):
    """Draining the only live shard raises the tier's error and changes
    nothing: the queued request still resolves and the tenant keeps serving."""
    front = make_tier(1)
    front.register_model(mlp_graph, threshold_table=mlp_thresholds)
    request_id = front.submit(mlp_graph.name, mlp_input_factory(11))

    with pytest.raises(ERRORS[tier]) as excinfo:
        front.drain_shard("shard-0")
    assert isinstance(excinfo.value, PlacementError)
    assert "last live shard" in str(excinfo.value)
    assert front.placement.drained_shards == []
    assert front.active_shard_count == 1
    assert front.location(mlp_graph.name) == "shard-0"
    assert front.failovers == 0

    processed = front.process()
    assert [request.status for request in processed] == \
        [front.request(request_id).status]
    assert front.request(request_id).status in TERMINAL_TASK_STATUSES

    follow_up = front.submit(mlp_graph.name, mlp_input_factory(12))
    front.process()
    assert front.request(follow_up).status in TERMINAL_TASK_STATUSES
    assert _conserved(front)


def test_add_shard_rebalances_on_the_ring(make_tier, tenant_graphs,
                                          mlp_thresholds):
    front = make_tier(1)
    _register_all(front, tenant_graphs, mlp_thresholds)
    new_id = front.add_shard()
    assert new_id == "shard-1"
    assert front.active_shard_count == 2
    _assert_on_ring_owners(front)
    moved = sum(front.location(name) == new_id for name in front.model_names)
    assert moved >= 1, "the ring must hand the new shard tenants"


def test_drain_undrain_add_round_trip(make_tier, tenant_graphs,
                                      mlp_thresholds, mlp_input_factory):
    front = make_tier(1)
    _register_all(front, tenant_graphs, mlp_thresholds)
    new_id = front.add_shard()
    request_ids = [front.submit(graph.name, mlp_input_factory(200 + index))
                   for index, graph in enumerate(tenant_graphs)]
    # Drain sends the new shard's tenants (and their queued requests) *back*
    # to their former host — re-adoption must be idempotent there.
    front.drain_shard(new_id)
    assert front.active_shard_count == 1
    assert front.placement.drained_shards == [new_id]
    assert all(front.location(name) == "shard-0" for name in front.model_names)
    front.undrain_shard(new_id)
    assert front.active_shard_count == 2
    assert front.placement.drained_shards == []
    _assert_on_ring_owners(front)

    third = front.add_shard()
    assert third == "shard-2"
    assert front.active_shard_count == 3
    _assert_on_ring_owners(front)

    processed = front.process()
    assert {id(request) for request in processed} == \
        {id(front.request(request_id)) for request_id in request_ids}
    for request_id in request_ids:
        assert front.request(request_id).status in TERMINAL_TASK_STATUSES
    assert _conserved(front)


def test_stats_count_a_redispatched_request_once(make_tier, tenant_graphs,
                                                 mlp_thresholds,
                                                 mlp_input_factory):
    """Both tiers build ``stats()`` the same way: a request re-dispatched
    by a drain is submitted once, completed once, and the tier's own
    failover accounting rides on the merged shard records."""
    front = make_tier(2)
    _register_all(front, tenant_graphs, mlp_thresholds)
    for index, graph in enumerate(tenant_graphs):
        for repeat in range(3):
            front.submit(graph.name, mlp_input_factory(300 + 3 * index + repeat))
    front.drain_shard("shard-0")
    front.process()

    stats = front.stats()
    assert stats.requests_submitted == 18
    assert stats.requests_completed == 18
    assert stats.redispatched_requests == front.redispatched_requests > 0
    assert stats.failovers == front.failovers
    assert stats.shards == 2
    assert set(stats.shard_busy_s) == {"shard-0", "shard-1"}


def test_shard_ids_are_reserved(tier, make_tier):
    front = make_tier(2)
    with pytest.raises(ERRORS[tier]):
        front.add_shard("shard-0")
    # A drained shard keeps its id: the next generated one skips it.
    front.drain_shard("shard-1")
    assert front.add_shard() == "shard-2"
    assert front.add_shard("custom") == "custom"
    assert front.add_shard() == "shard-4"
    assert front.active_shard_count == 4


def test_undrain_error_cases(tier, make_tier):
    front = make_tier(2)
    with pytest.raises(ERRORS[tier]):
        front.undrain_shard("shard-0")  # not drained
    with pytest.raises(ERRORS[tier]):
        front.undrain_shard("shard-9")  # unknown
    with pytest.raises(ERRORS[tier]):
        front.drain_shard("shard-9")  # unknown


def test_shard_target_drives_both_tiers(make_tier, tenant_graphs,
                                        mlp_thresholds):
    """The autoscaler's one target: add, then drain the shallowest shard,
    then prefer undraining it over adding a fresh one."""
    front = make_tier(1)
    _register_all(front, tenant_graphs, mlp_thresholds)
    target = ShardTarget(front, AutoscalerConfig(min_workers=1, max_workers=2))
    assert target.worker_count() == 1
    assert target.scale_down() is None  # at min_workers
    assert target.scale_up() == "shard-1"
    assert target.scale_up() is None  # at max_workers
    assert target.scale_down() == "shard-0"  # ties break by shard id
    assert target.worker_count() == 1
    assert target.scale_up() == "shard-0"  # undrained, not added
    assert sorted(front.placement.shards) == ["shard-0", "shard-1"]
    _assert_on_ring_owners(front)


def test_remove_shard_rehomes_and_retires(tier, make_tier, tenant_graphs,
                                          mlp_thresholds, mlp_input_factory):
    """Removal moves the shard's tenants and queued requests to their new
    ring owners and stops the shard; its coordinator (a fleet worker's
    snapshot) stays visible to settlement, and its id is never reissued."""
    front = make_tier(3)
    _register_all(front, tenant_graphs, mlp_thresholds)
    request_ids = [front.submit(graph.name, mlp_input_factory(400 + index))
                   for index, graph in enumerate(tenant_graphs)]
    depths = front.queue_depths()
    victim = max(depths, key=lambda sid: (depths[sid], sid))
    moved = [name for name in front.model_names if front.location(name) == victim]
    assert moved, "the busiest shard hosts a tenant"

    front.remove_shard(victim)
    assert victim not in front.shards
    assert front.placement.retired == [victim]
    assert front.active_shard_count == 2
    assert all(front.location(name) != victim for name in front.model_names)
    _assert_on_ring_owners(front)
    assert front.redispatched_requests == len(moved)
    assert victim not in front.queue_depths()

    retired = front.retired_shards[0]
    assert retired.shard_id == victim
    assert retired.coordinator in front.coordinators()
    if tier == "fleet":
        assert not retired.alive and not retired.process.is_alive()
        assert victim not in front.workers
        assert front.journal_for(victim).command_count > 0
    front.process()
    for request_id in request_ids:
        assert front.request(request_id).status in TERMINAL_TASK_STATUSES
    assert front.stats().requests_completed == len(request_ids)
    assert _conserved(front)

    with pytest.raises(ERRORS[tier]):
        front.add_shard(victim)
    with pytest.raises(ERRORS[tier]):
        front.remove_shard(victim)
    assert front.add_shard() == "shard-3"


@pytest.mark.parametrize("live", [1, 2], ids=["in-place", "failover"])
def test_slashed_standing_proposer_is_quarantined(
        tier, make_tier, mlp_graph, mlp_thresholds, mlp_input_factory, live):
    """A slash of the tenant's standing proposer quarantines the tenant.

    The cheat is a per-request adversarial proposer under the standing
    name ``<tenant>-proposer``.  With another live shard the tenant fails
    over; with none it is quarantined in place.  Either way a payload
    cached before the slash re-executes, and the proposer is re-provisioned
    honest under the same name.
    """
    front = make_tier(live)
    session = front.register_model(mlp_graph, threshold_table=mlp_thresholds)
    name = mlp_graph.name
    standing = f"{name}-proposer"
    payload = mlp_input_factory(21)
    warm = [front.submit(name, payload) for _ in range(2)]
    front.process()
    assert front.request(warm[1]).cache_hit
    home = front.location(name)

    delta = np.float32(0.5)
    cheat = ({"type": "adversarial", "name": standing,
              "perturbations": {_victim(mlp_graph): encode_perturbation(delta)}}
             if tier == "fleet" else
             session.make_adversarial_proposer(standing, {_victim(mlp_graph): delta}))
    cheated = front.submit(name, mlp_input_factory(22), proposer=cheat)
    front.process()
    assert front.request(cheated).status == "proposer_slashed"
    assert front.request(cheated).report.task.proposer == standing
    assert front.failovers == live - 1
    assert (front.location(name) != home) == (live > 1)

    repeat = front.submit(name, payload)
    front.process()
    assert front.request(repeat).status == "finalized"
    assert not front.request(repeat).cache_hit
    assert front.request(repeat).report.task.proposer == standing
    if tier == "cluster":
        proposer = front.model(name).proposer
        assert isinstance(proposer, HonestProposer) and proposer.name == standing
    assert _conserved(front)


def test_fleet_add_shard_after_close_is_refused():
    fleet = ProcessFleet(num_workers=1)
    fleet.close()
    with pytest.raises(FleetError):
        fleet.add_shard()


# ----------------------------------------------------------------------
# The controller on its own: no tier, no processes
# ----------------------------------------------------------------------

def _placement(*shard_ids: str, tenants=()) -> Placement:
    placement = Placement(devices=(), alpha=3.0, hash_cache=HashCache())
    for shard_id in shard_ids:
        placement.join(shard_id)
    for name in tenants:
        key = name.encode()
        home = placement.ring.node_for(key)
        placement.admit(TenantRecord(name=name, key=key, shard_id=home,
                                     home_id=home))
    return placement


def test_placement_never_reissues_dead_or_retired_ids():
    placement = _placement("shard-0", "shard-1", "shard-2")
    placement.mark_dead("shard-1")
    placement.remove("shard-2")
    assert placement.retired == ["shard-2"]
    assert placement.reserve() == "shard-3"
    for taken in ("shard-1", "shard-2"):
        with pytest.raises(PlacementError):
            placement.reserve(taken)


def test_placement_guards_the_last_live_shard_before_changing_state():
    placement = _placement("shard-0", "shard-1", tenants=["a", "b", "c"])
    placement.mark_dead("shard-1")
    before = {name: record.shard_id
              for name, record in placement.tenants.items()}
    for plan in (placement.drain, placement.remove):
        with pytest.raises(PlacementError, match="last live shard"):
            plan("shard-0")
    assert placement.live_shards == ["shard-0"]
    assert placement.drained == set()
    assert placement.retired == []
    assert {name: record.shard_id
            for name, record in placement.tenants.items()} == before
    with pytest.raises(PlacementError, match="is dead"):
        placement.drain("shard-1")


def test_placement_plans_moves_in_name_order():
    names = [f"tenant_{i}" for i in (10, 2, 7, 1, 11, 0, 3)]
    placement = _placement("shard-0", "shard-1", "shard-2", tenants=names)
    busiest = max(placement.shards,
                  key=lambda sid: (len(placement.tenants_on(sid)), sid))
    moves = placement.drain(busiest)
    assert [record.name for record, _ in moves] == \
        sorted(record.name for record in placement.tenants_on(busiest))
    assert all(target != busiest for _, target in moves)
    assert placement.failovers == len(moves) >= 1


def test_placement_revive_keeps_an_administrative_drain():
    placement = _placement("shard-0", "shard-1", "shard-2")
    placement.drain("shard-1")
    placement.mark_dead("shard-1")
    placement.mark_dead("shard-2")
    assert placement.live_shards == ["shard-0"]
    placement.revive("shard-1")
    placement.revive("shard-2")
    assert placement.live_shards == ["shard-0", "shard-2"]
    assert placement.drained_shards == ["shard-1"]
    assert placement.ring.live_nodes == ("shard-0", "shard-2")
