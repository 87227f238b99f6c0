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
from repro.fleet.wire import encode_perturbation
from repro.protocol.coordinator import ESCROW_ACCOUNT

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
