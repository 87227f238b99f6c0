"""Worker-death failover: SIGKILL mid-drain, re-dispatch, exact settlement.

The fleet's liveness story under real process death: a worker is killed with
SIGKILL *while it is draining* (the kill lands inside the nested chain-call
conversation, via the fleet's ``_chain_call_hook`` test hook, so it is
deterministic — the worker dies mid-request, not between requests).  The
parent must observe the transport EOF, mark the worker dead, re-register
its tenants on the ring successor **without re-funding**, re-submit the
parent-side pending queue there, and finish the drain — every admitted
request still reaches a terminal state in the same ``process()`` call.

Settlement stays exact through the crash: whatever prefix of chain calls
the dead worker got through is already applied to the shared parent chain,
and everything the chain applies conserves value — so the fleet-wide
conservation invariant (balances sum to the minted total) holds to float
equality even though the request was replayed from scratch elsewhere.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.fleet import FleetError, ProcessFleet
from repro.fleet.wire import encode_perturbation

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


def test_sigkill_mid_drain_fails_over_to_ring_successor(mlp_graph,
                                                        mlp_thresholds,
                                                        mlp_input_factory):
    fleet = ProcessFleet(num_workers=3, n_way=2)
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        request_ids = _submit_mixed(fleet, mlp_graph, mlp_input_factory)

        killed = []

        def kill_home_once(shard_id: str, message: dict) -> None:
            if shard_id == home and not killed:
                killed.append(shard_id)
                handle = fleet.workers[shard_id]
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=5.0)

        fleet._chain_call_hook = kill_home_once
        processed = fleet.process()
        fleet._chain_call_hook = None

        # The kill actually happened mid-drain, and the drain still returned
        # every admitted request in terminal state.
        assert killed == [home]
        assert not fleet.workers[home].alive
        assert len(processed) == len(request_ids)
        for request_id in request_ids:
            request = fleet.request(request_id)
            assert request.status in TERMINAL
            assert request.report is not None
        # The adversarial replay still convicts on the successor.
        assert fleet.request(request_ids[1]).status == "proposer_slashed"

        # Tenants moved off the dead worker onto a live ring successor.
        new_home = fleet.location(mlp_graph.name)
        assert new_home != home
        assert fleet.workers[new_home].alive
        assert home not in fleet.placement.live_shards
        assert fleet.failovers >= 1
        assert fleet.redispatched_requests >= 1

        # Exact fleet-wide conservation across the crash: float equality.
        balances = dict(fleet.chain.balances)
        assert sum(balances.values()) == fleet.chain.minted

        # The survivor keeps serving new traffic.
        follow_up = fleet.submit(mlp_graph.name, mlp_input_factory(24))
        fleet.process()
        assert fleet.request(follow_up).status in TERMINAL
    finally:
        fleet.close()


def test_dead_worker_is_not_drainable_or_callable(mlp_graph, mlp_thresholds,
                                                  mlp_input_factory):
    """Administrative APIs reject dead workers instead of hanging on them."""
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        request_id = fleet.submit(mlp_graph.name, mlp_input_factory(30))
        handle = fleet.workers[home]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=5.0)

        # The next drain discovers the death, fails over and still returns
        # the queued request in terminal state.
        fleet.process()
        assert fleet.request(request_id).status in TERMINAL
        assert not fleet.workers[home].alive
        assert fleet.location(mlp_graph.name) != home
        with pytest.raises(FleetError):
            fleet.drain_shard(home)
    finally:
        fleet.close()
