"""A fleet worker's coordinator rows, cut without walking its history.

A ``process`` or ``stats`` reply carries only the coordinator rows that
changed since the worker's previous successful ``process`` reply.  The
worker cuts them from new and still-open rows only
(:class:`repro.fleet.worker.CoordinatorDeltas`), and each dispute row reads
the game's running gas total.  The reference kept here is the full walk,
:func:`_coordinator_payload`, served by a test-only ``reference`` op that
forked workers inherit: diff every row of the coordinator against every row
of the last successful reply.  On one stream with disputes, a failed drain,
a stranded request and a SIGKILL with journal recovery, the two delta
streams must be equal, row for row and in order; on every tier each running
gas total equals the scan of the chain's log.  The same op counts the
request records alive in the worker: a worker holds a request only while it
is queued or in flight, so its history does not grow its memory either.
"""

from __future__ import annotations

import gc
import os
import signal

import numpy as np
import pytest

from repro.cluster import TAOCluster
from repro.fleet import CoordinatorSnapshot, ProcessFleet, WorkerError
from repro.fleet.wire import encode_perturbation
from repro.fleet.worker import _SECTIONS, CoordinatorDeltas, ShardWorker
from repro.graph import trace_module
from repro.protocol.service import ServiceRequest, TAOService

from tests.helpers import scanned_dispute_gas_by_action
from test_sharded_equivalence import _victim

TERMINAL = {"finalized", "proposer_slashed", "challenger_slashed"}
ID_KEYS = {"tasks": "task_id", "disputes": "dispute_id"}


def _coordinator_payload(coordinator):
    """The reference: every coordinator row (the full walk)."""
    return {section: [build(record)
                      for record in getattr(coordinator, section).values()]
            for section, (_key, build, _final) in _SECTIONS.items()}


def _scanned_gas(coordinator):
    """Each dispute's gas from a scan of the chain's log."""
    return {dispute_id: sum(scanned_dispute_gas_by_action(coordinator,
                                                          dispute_id).values())
            for dispute_id in coordinator.disputes}


def _op_reference(worker, message):
    reply = {"coordinator": _coordinator_payload(worker.coordinator),
             "running": {str(dispute_id): worker.coordinator.dispute_gas(dispute_id)
                         for dispute_id in worker.coordinator.disputes},
             "scanned": {str(dispute_id): gas for dispute_id, gas
                         in _scanned_gas(worker.coordinator).items()}}
    if message.get("count_records"):
        # Every request record alive in the process, wherever it is held
        # (a forked worker also counts what it inherited from the parent).
        gc.collect()
        reply["records"] = sum(isinstance(obj, ServiceRequest)
                               for obj in gc.get_objects())
        reply["queued"] = worker.service.pending_count
    return reply


@pytest.fixture()
def reference_fleet(monkeypatch):
    """Builds journal-recovering fleets whose forked workers also answer a
    ``reference`` op (the full walk and both gas sums); closes them all."""
    monkeypatch.setattr(ShardWorker, "op_reference", _op_reference,
                        raising=False)
    made = []

    def make(num_workers: int = 1) -> ProcessFleet:
        fleet = ProcessFleet(num_workers=num_workers, n_way=2,
                             start_method="fork")
        made.append(fleet)
        return fleet

    yield make
    for fleet in made:
        fleet.close()


def _reference(fleet, shard_id, count_records=False):
    return fleet._call(fleet.workers[shard_id],
                       {"op": "reference", "count_records": count_records})


def _mirror_payload(snapshot: CoordinatorSnapshot):
    """The parent's mirror, as the rows it was built from."""
    return {
        "tasks": [{"task_id": task.task_id, "model_name": task.model_name,
                   "status": task.status.value, "dispute_id": task.dispute_id}
                  for _, task in sorted(snapshot.tasks.items())],
        "disputes": [{"dispute_id": dispute.dispute_id,
                      "task_id": dispute.task_id, "phase": dispute.phase.value,
                      "adjudication_path": dispute.adjudication_path,
                      "gas_used": snapshot.dispute_gas(dispute.dispute_id)}
                     for _, dispute in sorted(snapshot.disputes.items())],
    }


def _full_walk_deltas(full_snapshots):
    """The reference: each delta is every row of a full snapshot that differs
    from the same row in the previous successful reply's snapshot."""
    reported = {}
    for full in full_snapshots:
        delta = {}
        for section, rows in full.items():
            delta[section] = [row for row in rows
                              if reported.get((section, row[ID_KEYS[section]])) != row]
        for section, rows in full.items():
            for row in rows:
                reported[(section, row[ID_KEYS[section]])] = row
        yield delta


def _cheat(graph, name):
    return {"type": "adversarial", "name": name,
            "perturbations": {_victim(graph): encode_perturbation(np.float32(0.05))}}


def test_delta_stream_equals_the_full_walk(reference_fleet, mlp_graph,
                                          mlp_thresholds, mlp_input_factory):
    fleet = reference_fleet()
    deltas, snapshots = [], []
    real_call = fleet._call

    def spy(handle, payload):
        value = real_call(handle, payload)
        if payload.get("op") == "process" and \
                handle.shard_id not in fleet._replaying:
            deltas.append(value["coordinator"])
            snapshots.append(real_call(handle, {"op": "reference"})["coordinator"])
        return value

    fleet._call = spy
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        ids = []

        def burst(first_seed):
            ids.append(fleet.submit(mlp_graph.name, mlp_input_factory(first_seed)))
            ids.append(fleet.submit(mlp_graph.name, mlp_input_factory(first_seed + 1),
                                    proposer=_cheat(mlp_graph, f"cheat-{first_seed}")))
            ids.append(fleet.submit(mlp_graph.name, mlp_input_factory(first_seed + 2),
                                    force_challenge=True))
            ids.append(fleet.submit(mlp_graph.name, mlp_input_factory(first_seed)))

        burst(3100)
        fleet.process()

        # A failed drain: the third escrow of the burst is refused, after
        # the tasks of its honest and its forced request reached the chain.
        # The honest one is finalized by the retry; the forced one stays
        # stranded, its task an open row in every later cut.
        calls = {"transfer_all": 0}

        def refuse(shard_id, message):
            if message.get("method") == "transfer_all":
                calls["transfer_all"] += 1
                if calls["transfer_all"] == 3:
                    message["args"] = {}

        burst(3200)
        fleet._chain_call_hook = refuse
        with pytest.raises(WorkerError):
            fleet.process()
        fleet._chain_call_hook = None
        # A stats call ships the failed drain's rows but moves no
        # watermark: the retry's delta still carries them.
        fleet.stats()
        fleet.process()

        # A SIGKILL mid-bisection: the worker is rebuilt from its journal
        # and the interrupted drain is retried.
        killed = []

        def kill_once(shard_id, message):
            if not killed and message.get("method") == "submit" \
                    and message["args"].get("action") == "post_selection":
                killed.append(shard_id)
                os.kill(fleet.workers[shard_id].process.pid, signal.SIGKILL)
                fleet.workers[shard_id].process.join(timeout=10.0)

        burst(3300)
        fleet._chain_call_hook = kill_once
        fleet.process()
        fleet._chain_call_hook = None
        burst(3400)
        fleet.process()

        assert killed == [home] and fleet.recoveries == 1
        assert fleet.pending_count == 0
        statuses = {fleet.request(i).status for i in ids}
        assert statuses <= TERMINAL | {"stranded"}
        assert fleet.request(ids[6]).status == "stranded"
        assert fleet.request(ids[4]).status == "finalized"
        assert {"proposer_slashed", "challenger_slashed"} <= statuses
    finally:
        fleet.close()

    assert len(deltas) == 4
    assert deltas == list(_full_walk_deltas(snapshots))
    # The stream is really incremental: every row is reported final or
    # left open once, and no delta repeats one.
    for section, rows in snapshots[-1].items():
        assert sum(len(delta[section]) for delta in deltas) == len(rows)
    assert len(deltas[-1]["tasks"]) == 4


def test_open_rows_are_recut_until_final(mlp_graph, mlp_thresholds,
                                        mlp_input_factory):
    """Final rows leave the watermark; an open row is re-cut until it is
    final; an uncommitted cut (a failed reply) moves nothing."""
    service = TAOService(n_way=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    for seed in range(3500, 3504):
        service.submit(mlp_graph.name, mlp_input_factory(seed),
                       force_challenge=seed % 2 == 0)
    service.process()
    coordinator = service.coordinator
    deltas = CoordinatorDeltas()
    first = deltas.cut(coordinator)
    assert first == _coordinator_payload(coordinator)
    deltas.commit(first)
    assert deltas._open == {"tasks": {}, "disputes": {}}
    assert deltas.cut(coordinator) == {"tasks": [], "disputes": []}

    # A task left pending is reported once, then re-cut (unchanged: not
    # re-sent) until it finalizes.
    entry = service.model(mlp_graph.name)
    task = coordinator.submit_result(
        mlp_graph.name, entry.user.name, entry.proposer.name,
        service.request(1).report.result.commitment,
        fee=entry.user.fee_per_request)
    pending = deltas.cut(coordinator)
    assert pending == {"tasks": [dict(pending["tasks"][0], status="pending")],
                       "disputes": []}
    assert deltas.cut(coordinator) == pending  # uncommitted: cut again
    deltas.commit(pending)
    assert list(deltas._open["tasks"]) == [task.task_id]
    assert deltas.cut(coordinator) == {"tasks": [], "disputes": []}
    coordinator.chain.advance_time(coordinator.challenge_window_s + 1.0)
    assert coordinator.try_finalize(task.task_id, caller=entry.proposer.name)
    final = deltas.cut(coordinator)
    assert [(row["task_id"], row["status"]) for row in final["tasks"]] == \
        [(task.task_id, "finalized")]
    deltas.commit(final)
    assert deltas._open == {"tasks": {}, "disputes": {}}
    assert deltas.cut(coordinator) == {"tasks": [], "disputes": []}


def _rounds_with_an_open_task(service, graph, input_factory):
    """Three drains with disputes, then a task left pending one round and
    finalized the next: yields after each change to the coordinator."""
    for round_index in range(3):
        for offset in range(4):
            seed = 3800 + 10 * round_index + offset
            service.submit(graph.name, input_factory(seed),
                           force_challenge=offset == round_index)
        service.process()
        yield
    coordinator = service.coordinator
    entry = service.model(graph.name)
    task = coordinator.submit_result(
        graph.name, entry.user.name, entry.proposer.name,
        service.request(1).report.result.commitment,
        fee=entry.user.fee_per_request)
    yield
    coordinator.chain.advance_time(coordinator.challenge_window_s + 1.0)
    assert coordinator.try_finalize(task.task_id, caller=entry.proposer.name)
    yield


def test_cuts_applied_in_order_rebuild_the_full_walk(mlp_graph, mlp_thresholds,
                                                     mlp_input_factory):
    """The parent's side of the stream: upserting each cut into a mirror
    reproduces every row of the coordinator, and a task row updated in
    place keeps the object a report already holds."""
    service = TAOService(n_way=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    deltas, mirror = CoordinatorDeltas(), CoordinatorSnapshot("shard-0")
    held = {}
    for _ in _rounds_with_an_open_task(service, mlp_graph, mlp_input_factory):
        changed = deltas.cut(service.coordinator)
        mirror.apply(changed)
        deltas.commit(changed)
        assert _mirror_payload(mirror) == _coordinator_payload(service.coordinator)
        for task_id, task in mirror.tasks.items():
            assert held.setdefault(task_id, task) is task
    assert len(service.coordinator.disputes) >= 3
    assert mirror.tasks[max(mirror.tasks)].status.value == "finalized"


def test_reapplying_an_uncommitted_cut_changes_nothing(mlp_graph, mlp_thresholds,
                                                       mlp_input_factory):
    """A ``stats`` reply and the next ``process`` reply carry the same
    uncommitted rows; the mirror takes the second copy as a no-op."""
    service = TAOService(n_way=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    deltas, mirror = CoordinatorDeltas(), CoordinatorSnapshot("shard-0")
    for _ in _rounds_with_an_open_task(service, mlp_graph, mlp_input_factory):
        stats_cut = deltas.cut(service.coordinator)
        mirror.apply(stats_cut)
        before = _mirror_payload(mirror)
        tasks = dict(mirror.tasks)
        process_cut = deltas.cut(service.coordinator)
        assert process_cut == stats_cut
        mirror.apply(process_cut)
        deltas.commit(process_cut)
        assert _mirror_payload(mirror) == before == \
            _coordinator_payload(service.coordinator)
        assert all(mirror.tasks[task_id] is task for task_id, task in tasks.items())


def test_stats_calls_leave_the_process_replies_unchanged(
        reference_fleet, mlp_graph, mlp_thresholds, mlp_input_factory):
    """Two fleets serve one stream; one also asks for ``stats`` before and
    after every drain.  Their ``process`` replies carry the same rows."""
    replies = {}
    for with_stats in (False, True):
        fleet = reference_fleet()
        seen = replies[with_stats] = []
        real_call = fleet._call

        def spy(handle, payload, real_call=real_call, seen=seen):
            value = real_call(handle, payload)
            if payload.get("op") == "process":
                seen.append(value["coordinator"])
            return value

        fleet._call = spy
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        for burst in range(4):
            for offset in range(3):
                seed = 3900 + 10 * burst + offset
                proposer = (_cheat(mlp_graph, f"cheat-{seed}")
                            if offset == 1 else None)
                fleet.submit(mlp_graph.name, mlp_input_factory(seed),
                             proposer=proposer, force_challenge=offset == 2)
            if with_stats:
                fleet.stats()
            fleet.process()
            if with_stats:
                fleet.stats()
        assert _mirror_payload(fleet.workers["shard-0"].coordinator) == \
            _reference(fleet, "shard-0")["coordinator"]
        fleet.close()
    assert len(replies[True]) == 4
    assert replies[True] == replies[False]
    assert sum(len(reply["disputes"]) for reply in replies[True]) >= 8


# ----------------------------------------------------------------------
# Running dispute gas: equal to the scan on every tier
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tenant_graphs(mlp_module, mlp_input_factory):
    # Six tenants: the two-shard ring homes four on shard-0, two on shard-1.
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"tenant_{i}")
            for i in range(6)]


def _tagged_gas(chain, shard=None, dispute_id=None):
    """Gas of the log's dispute-tagged transactions, optionally one shard's
    or one dispute's."""
    return sum(tx.gas_used for tx in chain.transactions
               if tx.details.get("dispute_id") is not None
               and (shard is None or tx.shard == shard)
               and (dispute_id is None or tx.details["dispute_id"] == dispute_id))


def _assert_running_gas_exact(tier, front):
    if tier == "fleet":
        front.stats()  # the parent's mirror takes the stats reply's cut
        for shard_id, handle in sorted(front.workers.items()):
            reference = _reference(front, shard_id)
            assert reference["running"] == reference["scanned"]
            mirror = handle.coordinator
            assert _mirror_payload(mirror) == reference["coordinator"]
            for dispute_id in mirror.disputes:
                assert mirror.dispute_gas(dispute_id) == _tagged_gas(
                    front.chain, shard_id, dispute_id)
        coordinators = [handle.coordinator for handle in front.workers.values()]
        chain = front.chain
    else:
        coordinators = (front.coordinators() if tier == "cluster"
                        else [front.coordinator])
        for coordinator in coordinators:
            running = {dispute_id: coordinator.dispute_gas(dispute_id)
                       for dispute_id in coordinator.disputes}
            assert running == _scanned_gas(coordinator)
        chain = coordinators[0].chain if tier == "service" else front.chain
    # C2: the running totals partition the log's dispute-tagged gas.
    assert sum(coordinator.dispute_gas(dispute_id)
               for coordinator in coordinators
               for dispute_id in coordinator.disputes) == _tagged_gas(chain)
    return coordinators


@pytest.mark.parametrize("tier", ["service", "cluster", "fleet"])
def test_running_dispute_gas_equals_the_scan(tier, reference_fleet,
                                             tenant_graphs, mlp_thresholds,
                                             mlp_input_factory):
    """Multiplexed disputes (cheats, forced challenges, false alarms) on
    one service, a two-shard cluster over one shared log, and a fleet
    worker SIGKILLed mid-bisection and replayed from its journal."""
    front = {"service": lambda: TAOService(n_way=2),
             "cluster": lambda: TAOCluster(num_shards=2, n_way=2),
             "fleet": reference_fleet}[tier]()
    killed = []

    def kill_once(shard_id, message):
        if not killed and message.get("method") == "submit" \
                and message["args"].get("action") == "post_selection":
            killed.append(shard_id)
            os.kill(front.workers[shard_id].process.pid, signal.SIGKILL)
            front.workers[shard_id].process.join(timeout=10.0)

    try:
        sessions = {graph.name: front.register_model(
            graph, threshold_table=mlp_thresholds) for graph in tenant_graphs}
        for burst in range(4):
            for index, graph in enumerate(tenant_graphs):
                seed = 3600 + 100 * burst + 10 * index
                name = f"{graph.name}-cheat-{seed}"
                front.submit(graph.name, mlp_input_factory(seed),
                             proposer=_cheat(graph, name) if tier == "fleet"
                             else sessions[graph.name].make_adversarial_proposer(
                                 name, {_victim(graph): np.float32(0.05)}))
                front.submit(graph.name, mlp_input_factory(seed + 1),
                             force_challenge=True)
                front.submit(graph.name, mlp_input_factory(seed + 2))
            if tier == "fleet" and burst == 2:
                front._chain_call_hook = kill_once
            front.process()
            front._chain_call_hook = None
            coordinators = _assert_running_gas_exact(tier, front)
        if tier == "fleet":
            assert killed and front.recoveries == 1
        assert all(len(coordinator.disputes) >= 4 for coordinator in coordinators)
        assert sum(len(coordinator.disputes) for coordinator in coordinators) >= 48
    finally:
        front.close()


@pytest.mark.parametrize("action", ["open_dispute", "post_partition",
                                    "post_adjudication", "slash"])
def test_running_gas_survives_a_kill_at_any_dispute_action(
        reference_fleet, mlp_graph, mlp_thresholds, mlp_input_factory, action):
    """A worker SIGKILLed as it posts one kind of dispute transaction is
    rebuilt from its journal; the replayed games re-accumulate exactly the
    gas the shared log holds for them."""
    fleet = reference_fleet()
    killed = []

    def kill_once(shard_id, message):
        if not killed and message.get("method") == "submit" \
                and message["args"].get("action") == action:
            killed.append(shard_id)
            os.kill(fleet.workers[shard_id].process.pid, signal.SIGKILL)
            fleet.workers[shard_id].process.join(timeout=10.0)

    fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
    for burst in range(3):
        seed = 4000 + 10 * burst
        fleet.submit(mlp_graph.name, mlp_input_factory(seed),
                     proposer=_cheat(mlp_graph, f"cheat-{seed}"))
        fleet.submit(mlp_graph.name, mlp_input_factory(seed + 1),
                     force_challenge=True)
        fleet.submit(mlp_graph.name, mlp_input_factory(seed + 2))
        if burst == 1:
            fleet._chain_call_hook = kill_once
        fleet.process()
        fleet._chain_call_hook = None
    assert killed == ["shard-0"] and fleet.recoveries == 1
    assert fleet.pending_count == 0
    _assert_running_gas_exact("fleet", fleet)
    assert len(fleet.workers["shard-0"].coordinator.disputes) >= 6


def test_stats_reply_rows_stay_flat(reference_fleet, monkeypatch, tenant_graphs,
                                    mlp_thresholds, mlp_input_factory):
    """The rows a ``stats`` reply carries do not grow with the shard's
    history: counted where the parent applies them, drain 10 equals drain
    200 of a cached stream, and the mirror still equals the full walk.  Nor
    do the worker's request records: at drains 10 and 200 it holds exactly
    its queued ones."""
    applied = []
    real_apply = CoordinatorSnapshot.apply

    def counting_apply(snapshot, payload):
        applied.append(sum(len(rows) for rows in payload.values()))
        real_apply(snapshot, payload)

    monkeypatch.setattr(CoordinatorSnapshot, "apply", counting_apply)
    fleet = reference_fleet()
    graphs = tenant_graphs[:2]
    for graph in graphs:
        fleet.register_model(graph, threshold_table=mlp_thresholds)
    inherited = _reference(fleet, "shard-0", count_records=True)["records"]
    stats_rows = {}
    for drain in range(1, 201):
        for slot, graph in enumerate(graphs):
            fleet.submit(graph.name, mlp_input_factory(3700 + 10 * slot + drain % 3),
                         force_challenge=drain % 20 == slot)
        fleet.process()
        if drain in (10, 200):
            fleet.stats()
            stats_rows[drain] = applied[-1]
            held = _reference(fleet, "shard-0", count_records=True)
            assert held["records"] - inherited == held["queued"], drain
    assert stats_rows[10] == stats_rows[200]
    mirror = fleet.workers["shard-0"].coordinator
    assert len(mirror.tasks) == 400 and len(mirror.disputes) >= 10
    assert _mirror_payload(mirror) == _reference(fleet, "shard-0")["coordinator"]
