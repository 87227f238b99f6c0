"""One membership suite for both sharded tiers.

:class:`~repro.cluster.cluster.TAOCluster` and
:class:`~repro.fleet.fleet.ProcessFleet` are one front end
(:class:`~repro.cluster.placement.PlacedCore`) over one placement
controller (:class:`~repro.cluster.placement.Placement`), with one verb
set: ``add_shard`` / ``remove_shard`` / ``drain_shard`` /
``undrain_shard`` / ``active_shard_count``.  Every check here runs on both
tiers — the drain -> undrain -> add round trip, scale-up, scale-down,
drain/undrain and removal under a live stream (each served exactly as a
static tier serves it), shard-id reservation, the last-live guard, the
slash quarantine — plus the controller's plans on their own.
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
from repro.fleet import FleetError, ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.graph import trace_module
from repro.merkle.cache import HashCache
from repro.protocol.roles import HonestProposer
from repro.protocol.service import TERMINAL_TASK_STATUSES, ServiceRequest

from test_sharded_equivalence import _fingerprint, _victim

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


def _scale_up_stream():
    """Six seeded bursts over four tenants: distinct payloads, forced
    challenges and cheating proposers, so every burst opens disputes."""
    rng = np.random.default_rng(20260808)
    bursts = []
    for burst in range(6):
        events = []
        for slot in range(8):
            roll = rng.random()
            kind = ("cheat" if roll < 0.15 else "force" if roll < 0.35
                    else "honest")
            events.append((int(rng.integers(4)), 600 + 8 * burst + slot, kind))
        bursts.append(events)
    return bursts


def _play_scale_up(tier, front, graphs, thresholds, input_factory,
                   between=None):
    """Register, then per burst: submit it, apply the membership change
    ``between`` names for that burst (the moved tenants' queued requests
    follow them), and drain.  Returns the request records in submission
    order."""
    between = between or {}
    sessions = {graph.name: front.register_model(graph, threshold_table=thresholds)
                for graph in graphs}
    request_ids = []
    for index, burst in enumerate(_scale_up_stream(), start=1):
        for tenant, payload_seed, kind in burst:
            graph = graphs[tenant]
            proposer = None
            if kind == "cheat":
                name, delta = f"{graph.name}-cheat-{payload_seed}", np.float32(0.05)
                proposer = ({"type": "adversarial", "name": name,
                             "perturbations": {_victim(graph): encode_perturbation(delta)}}
                            if tier == "fleet" else
                            sessions[graph.name].make_adversarial_proposer(
                                name, {_victim(graph): delta}))
            request_ids.append(front.submit(
                graph.name, input_factory(payload_seed), proposer=proposer,
                force_challenge=kind == "force"))
        if index in between:
            between[index](front)
        front.process()
    return [front.request(request_id) for request_id in request_ids]


def _add(front):
    front.add_shard()


def _assert_same_service(got, expected, moved, static):
    """Per-request verdicts in submission order and the ledger are equal,
    and the moved tier's ledger is conserved."""
    statuses = {request.status for request in got}
    assert statuses <= TERMINAL_TASK_STATUSES
    assert {"proposer_slashed", "challenger_slashed"} <= statuses
    assert [_fingerprint(request) for request in got] == \
        [_fingerprint(request) for request in expected]
    assert dict(moved.chain.balances) == dict(static.chain.balances)
    assert moved.chain.minted == static.chain.minted
    assert _conserved(moved)


def test_scale_up_under_a_live_stream_stays_exact(tier, make_tier, tenant_graphs,
                                                  mlp_thresholds,
                                                  mlp_input_factory):
    """One shard grown to three mid-stream serves exactly what three static
    shards serve: the same verdict per request and the same ledger."""
    graphs = tenant_graphs[:4]
    scaled = make_tier(1)
    got = _play_scale_up(tier, scaled, graphs, mlp_thresholds,
                         mlp_input_factory, between={2: _add, 4: _add})
    assert scaled.active_shard_count == 3
    assert scaled.redispatched_requests > 0
    static = make_tier(3)
    expected = _play_scale_up(tier, static, graphs, mlp_thresholds,
                              mlp_input_factory)
    _assert_same_service(got, expected, scaled, static)


@pytest.mark.parametrize("add_after", [(1,), (3,), (5,), (1, 2)],
                         ids=lambda bursts: "after-" + "-".join(map(str, bursts)))
def test_scale_up_at_any_burst_stays_exact(tier, make_tier, tenant_graphs,
                                           mlp_thresholds, mlp_input_factory,
                                           add_after):
    """Where in the stream the shards join does not change what is served."""
    graphs = tenant_graphs[:4]
    scaled = make_tier(1)
    got = _play_scale_up(tier, scaled, graphs, mlp_thresholds, mlp_input_factory,
                         between={burst: _add for burst in add_after})
    assert scaled.active_shard_count == 1 + len(add_after)
    static = make_tier(1 + len(add_after))
    expected = _play_scale_up(tier, static, graphs, mlp_thresholds,
                              mlp_input_factory)
    _assert_same_service(got, expected, scaled, static)


def test_scale_down_under_a_live_stream_stays_exact(tier, make_tier, tenant_graphs,
                                                    mlp_thresholds,
                                                    mlp_input_factory):
    """Three shards drained to one mid-stream serve exactly what one static
    shard serves; the drained shards' queued requests move with their
    tenants."""
    graphs = tenant_graphs[:4]
    scaled = make_tier(3)
    got = _play_scale_up(
        tier, scaled, graphs, mlp_thresholds, mlp_input_factory,
        between={2: lambda front: front.drain_shard("shard-2"),
                 4: lambda front: front.drain_shard("shard-1")})
    assert scaled.active_shard_count == 1
    assert scaled.placement.drained_shards == ["shard-1", "shard-2"]
    assert scaled.redispatched_requests > 0
    assert all(scaled.location(graph.name) == "shard-0" for graph in graphs)
    static = make_tier(1)
    expected = _play_scale_up(tier, static, graphs, mlp_thresholds,
                              mlp_input_factory)
    _assert_same_service(got, expected, scaled, static)


def test_drain_and_undrain_under_a_live_stream_stays_exact(
        tier, make_tier, tenant_graphs, mlp_thresholds, mlp_input_factory):
    """A shard drained for two bursts and then undrained leaves no trace
    in what is served."""
    graphs = tenant_graphs[:4]
    moved = make_tier(2)
    got = _play_scale_up(
        tier, moved, graphs, mlp_thresholds, mlp_input_factory,
        between={2: lambda front: front.drain_shard("shard-1"),
                 4: lambda front: front.undrain_shard("shard-1")})
    assert moved.active_shard_count == 2
    assert moved.placement.drained_shards == []
    _assert_on_ring_owners(moved)
    static = make_tier(2)
    expected = _play_scale_up(tier, static, graphs, mlp_thresholds,
                              mlp_input_factory)
    _assert_same_service(got, expected, moved, static)


def test_remove_shard_under_a_live_stream_stays_exact(
        tier, make_tier, tenant_graphs, mlp_thresholds, mlp_input_factory):
    """A shard removed mid-stream hands its tenants on, and the retired
    shard's settled games still count in the ledger."""
    graphs = tenant_graphs[:4]
    moved = make_tier(3)
    got = _play_scale_up(
        tier, moved, graphs, mlp_thresholds, mlp_input_factory,
        between={3: lambda front: front.remove_shard("shard-1")})
    assert moved.active_shard_count == 2
    assert moved.placement.retired == ["shard-1"]
    static = make_tier(2)
    expected = _play_scale_up(tier, static, graphs, mlp_thresholds,
                              mlp_input_factory)
    _assert_same_service(got, expected, moved, static)


def test_a_drained_shard_takes_no_new_tenant(make_tier, tenant_graphs,
                                             mlp_thresholds, mlp_input_factory):
    """Tenants registered while a shard is drained land on live shards;
    undraining hands the drained shard its ring arcs back, and every
    tenant serves from its new home."""
    front = make_tier(2)
    front.drain_shard("shard-1")
    _register_all(front, tenant_graphs, mlp_thresholds)
    assert all(front.location(name) == "shard-0" for name in front.model_names)
    front.undrain_shard("shard-1")
    _assert_on_ring_owners(front)
    assert any(front.location(name) == "shard-1" for name in front.model_names)
    request_ids = [front.submit(graph.name, mlp_input_factory(500 + index))
                   for index, graph in enumerate(tenant_graphs)]
    front.process()
    assert all(front.request(request_id).status == "finalized"
               for request_id in request_ids)
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


def test_a_moved_request_keeps_its_id_and_submit_time(
        make_tier, tenant_graphs, mlp_thresholds, mlp_input_factory):
    """A request is one record with one id on every tier: a move by
    ``drain_shard``, ``undrain_shard`` or ``remove_shard`` keeps its
    ``request_id`` and its ``submitted_s``, and ``process()`` returns each
    id exactly once."""
    front = make_tier(2)
    _register_all(front, tenant_graphs, mlp_thresholds)
    request_ids = [front.submit(graph.name, mlp_input_factory(600 + index))
                   for index, graph in enumerate(tenant_graphs)]
    assert request_ids == list(range(len(tenant_graphs)))
    submitted = {request_id: front.request(request_id).submitted_s
                 for request_id in request_ids}

    def assert_one_record():
        for request_id in request_ids:
            view = front.request(request_id)
            assert view.request_id == request_id
            assert view.submitted_s == submitted[request_id]
            assert view.status == "queued"

    moved = 0
    for verb in (front.drain_shard, front.undrain_shard, front.remove_shard):
        verb("shard-0")
        assert front.redispatched_requests > moved, verb.__name__
        moved = front.redispatched_requests
        assert_one_record()

    processed = front.process()
    assert [view.request_id for view in processed] == request_ids
    assert all(view is front.request(view.request_id) for view in processed)
    assert all(view.submitted_s == submitted[view.request_id]
               for view in processed)
    assert all(view.status in TERMINAL_TASK_STATUSES for view in processed)
    assert front.pending_count == 0 and front.process() == []


def _indexed(front):
    """``(shard, request id)`` of every pending-index entry."""
    return {(shard_id, request_id)
            for shard_id, queued in front._pending.items()
            for request_id in queued}


def _queued(front):
    """The same pair for every request whose record reads ``queued``: it
    waits on its tenant's shard, under the id ``submit`` returned."""
    return {(front.location(request.model_name), request_id)
            for request_id, request in front._requests.items()
            if request.status == "queued" and request.request_id == request_id}


def test_pending_index_holds_only_pending_requests(make_tier, tenant_graphs,
                                                   mlp_thresholds,
                                                   mlp_input_factory):
    """The front end's pending index holds exactly the requests still
    queued: a returned request leaves it, whether its drain was partial,
    whole or after a move."""
    front = make_tier(2)
    _register_all(front, tenant_graphs, mlp_thresholds)
    for burst in range(5):
        for index in range(8):
            graph = tenant_graphs[(burst + index) % len(tenant_graphs)]
            front.submit(graph.name, mlp_input_factory(500 + 8 * burst + index))
        if burst == 2:
            front.drain_shard("shard-0")
        if burst == 3:
            front.undrain_shard("shard-0")
        front.process(max_requests=5)
        assert front.pending_count > 0
        assert _indexed(front) == _queued(front)
    front.process()
    assert front.pending_count == 0 and _indexed(front) == set() == _queued(front)
    assert len(front._requests) == 40


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


def test_tier_latency_is_the_front_ends_clock(make_tier, tenant_graphs,
                                             mlp_thresholds, mlp_input_factory):
    """The tier's latency digest holds one observation per request
    ``process()`` returned, each the returned record's own ``latency_s``:
    from ``submit`` to that return, on the front end's clock, across a
    drain and a removal.  No shard or worker keeps a clock of its own."""
    front = make_tier(3)
    _register_all(front, tenant_graphs, mlp_thresholds)
    returned = []
    moves = ((front.drain_shard, "shard-0"), (front.remove_shard, "shard-1"))
    for round_index, (move, shard_id) in enumerate(moves):
        for index, graph in enumerate(tenant_graphs):
            front.submit(graph.name, mlp_input_factory(700 + 10 * round_index + index))
        move(shard_id)
        returned += front.process()

    latencies = [view.latency_s for view in returned]
    digest = front.stats().latency
    assert len(returned) == 12 and front.redispatched_requests > 0
    assert digest.count == len(returned)
    assert digest.observed_min == min(latencies)
    assert digest.observed_max == max(latencies)


def test_enqueue_files_one_record_on_the_front_end(make_tier, tenant_graphs,
                                                  mlp_thresholds, mlp_input_factory):
    """A placed tier has the service's one intake: ``enqueue`` files the
    record it is handed under that record's id on the front end, refuses an
    id already filed, and a ``submit`` refused for an unknown tenant spends
    no id.  ``process()`` hands back that same record, its payload dropped."""
    front = make_tier(2)
    _register_all(front, tenant_graphs[:2], mlp_thresholds)
    first, second = (graph.name for graph in tenant_graphs[:2])
    with pytest.raises(KeyError):
        front.submit("no-such-model", mlp_input_factory(90))
    assert front.submit(first, mlp_input_factory(91)) == 0
    record = ServiceRequest(request_id=5, model_name=first,
                            inputs=mlp_input_factory(92))
    front.enqueue(record)
    assert front.request(5) is record
    with pytest.raises(ValueError, match="already filed"):
        front.enqueue(ServiceRequest(request_id=5, model_name=second,
                                     inputs=mlp_input_factory(93)))
    assert front.submit(second, mlp_input_factory(94)) == 6

    returned = front.process()
    assert sorted(view.request_id for view in returned) == [0, 5, 6]
    assert all(view is front.request(view.request_id) for view in returned)
    assert any(view is record for view in returned)
    assert record.status in TERMINAL_TASK_STATUSES and record.inputs == {}
    assert front.process() == []


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
        placement.admit(TenantRecord(name=name, key=key, shard_id=home))
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
