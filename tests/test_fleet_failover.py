"""Worker death: SIGKILL mid-drain, restart in place, exact settlement.

The fleet's liveness story under real process death: a worker is killed with
SIGKILL *while it is draining* (the kill lands inside the nested chain-call
conversation, via the fleet's ``_chain_call_hook`` test hook, so it is
deterministic — the worker dies mid-dispute, not between requests).  The
parent must observe the transport EOF, mark the worker dead, restart it in
place from its write-ahead journal and finish the drain — every admitted
request still reaches a terminal state in the same ``process()`` call, on
the same home.

Nothing the dead worker held is abandoned: its in-flight disputes resume,
so the coordinator escrow drains to zero and the ledger and the transaction
log equal an uncrashed run's.  When the restart itself fails, the shard
stays dead and ``remove_shard`` is the operator's way to re-home its
tenants and queue.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.fleet import FleetError, ProcessFleet, WorkerError
from repro.fleet.journal import JournalDivergence
from repro.fleet.wire import encode_perturbation
from repro.protocol.coordinator import ESCROW_ACCOUNT
from repro.utils.serialization import canonical_bytes, canonical_map

from helpers import homed_tenants
from test_sharded_equivalence import _victim

TERMINAL = {"finalized", "proposer_slashed", "challenger_slashed"}


def _submit_mixed(fleet: ProcessFleet, graph, input_factory):
    """A dispute-heavy mix so the kill lands inside real settlement traffic."""
    victim = _victim(graph)
    ids = [fleet.submit(graph.name, input_factory(20))]
    ids.append(fleet.submit(
        graph.name, input_factory(21),
        proposer={"type": "adversarial", "name": "kill-cheat",
                  "perturbations": {victim: encode_perturbation(np.float32(0.05))}}))
    ids.append(fleet.submit(graph.name, input_factory(22),
                            force_challenge=True))
    ids.append(fleet.submit(graph.name, input_factory(23)))
    return ids


def _ledger(fleet: ProcessFleet):
    """Balances, minted total and the full shared transaction log."""
    log = [(tx.sender, tx.action, tx.gas_used, tx.payload_bytes, tx.shard,
            tx.block, tx.timestamp) for tx in fleet.chain.transactions]
    return dict(fleet.chain.balances), fleet.chain.minted, log


def _kill_home_at_first_partition(fleet: ProcessFleet, home: str):
    """Arm a one-shot SIGKILL of ``home`` as it posts its first partition."""
    killed = []

    def hook(shard_id: str, message: dict) -> None:
        if shard_id == home and not killed \
                and message.get("method") == "submit" \
                and message["args"].get("action") == "post_partition":
            killed.append(shard_id)
            handle = fleet.workers[shard_id]
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=10.0)

    fleet._chain_call_hook = hook
    return killed


def test_sigkill_mid_dispute_restarts_the_worker_in_place(mlp_graph,
                                                          mlp_thresholds,
                                                          mlp_input_factory):
    reference = ProcessFleet(num_workers=3, n_way=2)
    try:
        reference.register_model(mlp_graph, threshold_table=mlp_thresholds)
        _submit_mixed(reference, mlp_graph, mlp_input_factory)
        reference.process()
        uncrashed = _ledger(reference)
    finally:
        reference.close()

    fleet = ProcessFleet(num_workers=3, n_way=2)
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        request_ids = _submit_mixed(fleet, mlp_graph, mlp_input_factory)
        killed = _kill_home_at_first_partition(fleet, home)
        processed = fleet.process()
        fleet._chain_call_hook = None

        # The kill landed mid-dispute, and the worker came back in place.
        assert killed == [home]
        assert fleet.location(mlp_graph.name) == home
        assert fleet.workers[home].alive
        assert fleet.recoveries == 1
        assert fleet.failovers == 0 and fleet.redispatched_requests == 0

        # The drain still returned every admitted request in terminal state,
        # and the cheat still convicts.
        assert len(processed) == len(request_ids)
        for request_id in request_ids:
            request = fleet.request(request_id)
            assert request.status in TERMINAL
            assert request.report is not None
        assert fleet.request(request_ids[1]).status == "proposer_slashed"

        # Nothing is left in escrow, and settlement equals the uncrashed
        # run's: every balance, the minted total and the transaction log.
        assert fleet.chain.balances.get(ESCROW_ACCOUNT, 0.0) == 0.0
        assert _ledger(fleet) == uncrashed
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted

        # The restarted worker keeps serving new traffic.
        follow_up = fleet.submit(mlp_graph.name, mlp_input_factory(24))
        fleet.process()
        assert fleet.request(follow_up).status in TERMINAL
    finally:
        fleet.close()


def test_dead_worker_is_not_drainable_or_callable(mlp_graph, mlp_thresholds,
                                                  mlp_input_factory,
                                                  monkeypatch):
    """A worker whose restart fails stays dead: administrative verbs refuse
    it, and ``remove_shard`` re-homes its tenant and queue."""
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        request_id = fleet.submit(mlp_graph.name, mlp_input_factory(30))
        handle = fleet.workers[home]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=5.0)

        def refuse_launch(shard_id):
            raise WorkerError(f"[{shard_id}] failed to boot: refused")

        monkeypatch.setattr(fleet, "_launch", refuse_launch)
        # The next drain discovers the death; the failed restart surfaces.
        with pytest.raises(WorkerError, match="refused"):
            fleet.process()
        assert not fleet.workers[home].alive
        assert home in fleet.placement.dead
        assert fleet.recoveries == 0
        with pytest.raises(FleetError):
            fleet.drain_shard(home)

        # The operator's path: remove the dead shard.  Its tenant and queued
        # request move to the ring owner, which serves them.
        fleet.remove_shard(home)
        new_home = fleet.location(mlp_graph.name)
        assert new_home != home and fleet.workers[new_home].alive
        assert fleet.redispatched_requests == 1
        fleet.process()
        assert fleet.request(request_id).status == "finalized"
        assert fleet.pending_count == 0
        assert fleet.chain.balances.get(ESCROW_ACCOUNT, 0.0) == 0.0
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted
    finally:
        fleet.close()


def _kill(fleet: ProcessFleet, shard_id: str) -> None:
    handle = fleet.workers[shard_id]
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(timeout=5.0)


def _assert_each_once(fleet: ProcessFleet, returned, request_ids):
    """``returned`` is every request exactly once, in submission order."""
    views = [fleet.request(request_id) for request_id in request_ids]
    assert [view.request_id for view in returned] == request_ids
    assert all(got is want for got, want in zip(returned, views))
    assert fleet.pending_count == 0


def test_failed_relaunch_beside_a_healthy_shard_loses_no_result(
        mlp_module, mlp_thresholds, mlp_input_factory, monkeypatch):
    """The healthy shard's results from a drain whose restart raised are
    returned by the first ``process()`` that completes, with the dead
    shard's own requests once ``remove_shard`` re-homes them."""
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        names = homed_tenants(fleet, mlp_module, mlp_input_factory,
                              mlp_thresholds, per_shard=3)
        request_ids = [fleet.submit(name, mlp_input_factory(40 + index))
                       for index, name in enumerate(names)]
        _kill(fleet, "shard-0")

        def refuse_launch(shard_id):
            raise WorkerError(f"[{shard_id}] failed to boot: refused")

        monkeypatch.setattr(fleet, "_launch", refuse_launch)
        with pytest.raises(WorkerError, match="refused"):
            fleet.process()
        # The healthy shard finished its requests; none was returned yet.
        served = [request_id for request_id in request_ids
                  if fleet.location(fleet.request(request_id).model_name)
                  == "shard-1"]
        assert len(served) == 3
        assert all(fleet.request(request_id).status in TERMINAL
                   for request_id in served)
        # The next drain tries the restart again, and it fails again.
        with pytest.raises(WorkerError, match="refused"):
            fleet.process()
        assert "shard-0" in fleet.placement.dead and fleet.recoveries == 0

        fleet.remove_shard("shard-0")
        _assert_each_once(fleet, fleet.process(), request_ids)
        assert all(fleet.request(request_id).status in TERMINAL
                   for request_id in request_ids)
        assert fleet.process() == []
        assert fleet.chain.balances.get(ESCROW_ACCOUNT, 0.0) == 0.0
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted
    finally:
        fleet.close()


def test_a_death_found_by_stats_is_restarted_by_the_next_call(
        mlp_module, mlp_thresholds, mlp_input_factory):
    """``stats()`` only marks a dead worker; the next ``process()``, or the
    next submit to one of its tenants, restarts it in place."""
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        names = homed_tenants(fleet, mlp_module, mlp_input_factory,
                              mlp_thresholds, per_shard=2)
        request_ids = [fleet.submit(name, mlp_input_factory(50 + index))
                       for index, name in enumerate(names)]
        _kill(fleet, "shard-0")
        fleet.stats()
        assert "shard-0" in fleet.placement.dead

        _assert_each_once(fleet, fleet.process(), request_ids)
        assert fleet.recoveries == 1 and fleet.failovers == 0
        assert "shard-0" not in fleet.placement.dead
        assert all(fleet.request(request_id).status in TERMINAL
                   for request_id in request_ids)

        # Found dead again by stats(): a submit to its tenant restarts it.
        _kill(fleet, "shard-0")
        fleet.stats()
        assert "shard-0" in fleet.placement.dead
        follow_up = fleet.submit(names[0], mlp_input_factory(62))
        assert fleet.recoveries == 2
        assert fleet.location(names[0]) == "shard-0"
        _assert_each_once(fleet, fleet.process(), [follow_up])
        assert fleet.request(follow_up).status == "finalized"
    finally:
        fleet.close()


def test_capped_drain_across_a_death_keeps_its_cap(
        mlp_module, mlp_thresholds, mlp_input_factory):
    """The drain after a restart spends what is left of the cap, no more."""
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        names = homed_tenants(fleet, mlp_module, mlp_input_factory,
                              mlp_thresholds, per_shard=1)
        request_ids = [fleet.submit(name, mlp_input_factory(70 + 9 * shard + i))
                       for shard, name in enumerate(names) for i in range(9)]
        _kill(fleet, "shard-1")
        first = fleet.process(max_requests=10)
        assert len(first) == 10
        assert fleet.recoveries == 1 and fleet.pending_count == 8
        rest = fleet.process()
        _assert_each_once(fleet, sorted(first + rest,
                                        key=lambda view: view.request_id),
                          request_ids)
    finally:
        fleet.close()


def test_a_diverging_replay_leaves_no_worker_serving(
        mlp_graph, mlp_thresholds, mlp_input_factory):
    """A restart whose replay diverges stops the worker it launched and
    leaves the shard dead; nothing is served until a restart succeeds.  The
    divergence is a journaled-ok submit that fails on replay: forged to
    carry the first request's id, the worker refuses to file it twice."""
    fleet = ProcessFleet(num_workers=1, n_way=2)
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        request_ids = [fleet.submit(mlp_graph.name, mlp_input_factory(80 + i))
                       for i in range(3)]
        journal = fleet.journals["shard-0"]
        intact = list(journal._commands)
        submits = [index for index, entry in enumerate(journal.commands())
                   if entry["payload"]["op"] == "submit"]
        first, entry = (journal.commands()[index] for index in submits[:2])
        assert entry["ok"]
        forged = dict(entry["payload"],
                      request_id=first["payload"]["request_id"])
        journal._commands[submits[1]] = canonical_map({
            "payload": canonical_bytes(forged),
            "ok": canonical_bytes(True),
            "value": canonical_bytes(entry["value"]),
        })
        _kill(fleet, "shard-0")
        transactions = len(fleet.chain.transactions)

        for _ in range(2):  # the next drain tries again, and diverges again
            with pytest.raises(JournalDivergence):
                fleet.process()
            handle = fleet.workers["shard-0"]
            assert "shard-0" in fleet.placement.dead
            assert not handle.alive and not handle.process.is_alive()
        assert fleet.recoveries == 0
        assert len(fleet.chain.transactions) == transactions
        assert all(fleet.request(request_id).status == "queued"
                   for request_id in request_ids)

        journal._commands[:] = intact
        _assert_each_once(fleet, fleet.process(), request_ids)
        assert fleet.recoveries == 1
        assert all(fleet.request(request_id).status == "finalized"
                   for request_id in request_ids)
    finally:
        fleet.close()


def test_a_dead_shard_keeps_its_tenants_through_a_rebalance(
        mlp_module, mlp_thresholds, mlp_input_factory):
    """A membership change while a worker is dead leaves its tenants and
    queue on it: the next ``process()`` restarts it in place and serves
    them, and the restarted worker holds no request served elsewhere."""
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        names = homed_tenants(fleet, mlp_module, mlp_input_factory,
                              mlp_thresholds, per_shard=2)
        request_ids = [fleet.submit(name, mlp_input_factory(100 + index))
                       for index, name in enumerate(names)]
        _kill(fleet, "shard-0")
        fleet.stats()
        fleet.add_shard()
        assert [fleet.location(name) for name in names[:2]] == ["shard-0"] * 2
        assert len(fleet._pending["shard-0"]) == 2

        _assert_each_once(fleet, fleet.process(), request_ids)
        assert fleet.recoveries == 1
        # A later rebalance moves tenants freely, and every request is one
        # task on the chain: nothing the dead shard held was served twice.
        fleet.add_shard()
        follow_ups = [fleet.submit(name, mlp_input_factory(200 + index))
                      for index, name in enumerate(names)]
        _assert_each_once(fleet, fleet.process(), follow_ups)
        assert sum(len(coordinator.tasks)
                   for coordinator in fleet.coordinators()) == 2 * len(names)
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted
    finally:
        fleet.close()
