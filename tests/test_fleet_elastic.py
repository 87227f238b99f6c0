"""The hung-worker deadline path of the process fleet.

:class:`TransportTimeout` — a peer that is alive but silent past the
configured deadline raises a *subclass* of :class:`TransportClosed`, so
every dead-worker site treats a wedged worker exactly like a dead one (kill,
restart in place from the journal) and no settlement is lost.  The membership verbs
the fleet shares with the cluster are pinned for both tiers in
``tests/test_membership.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.fleet import ProcessFleet
from repro.fleet.transport import (
    MessageChannel,
    TransportClosed,
    TransportTimeout,
    channel_pair,
)
from repro.graph import trace_module


@pytest.fixture()
def tenant_graphs(mlp_module, mlp_input_factory):
    # Six tenants: enough digests that a second ring node always claims
    # at least one arc (four happens to leave shard-1 empty-handed).
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"tenant_{i}")
            for i in range(6)]


def _register_all(fleet, graphs, thresholds):
    for graph in graphs:
        fleet.register_model(graph, threshold_table=thresholds)


def _conserved(fleet) -> bool:
    return abs(sum(fleet.chain.balances.values()) - fleet.chain.minted) < 1e-9


class TestTransportTimeout:
    def test_silent_peer_raises_timeout_subclass(self):
        parent, child_sock = channel_pair(deadline_s=0.3)
        try:
            # Nobody ever answers on the child side.
            with pytest.raises(TransportTimeout) as excinfo:
                parent.recv()
            assert isinstance(excinfo.value, TransportClosed)
            assert "0.3" in str(excinfo.value)
        finally:
            parent.close()
            child_sock.close()

    def test_deadline_must_be_positive(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(ValueError):
                MessageChannel(left, deadline_s=0.0)
        finally:
            left.close()
            right.close()

    def test_worker_side_channel_has_no_deadline(self):
        parent, child_sock = channel_pair(deadline_s=1.0)
        try:
            assert parent.deadline_s == 1.0
            assert child_sock.gettimeout() is None
        finally:
            parent.close()
            child_sock.close()

    def test_responsive_peer_is_unaffected(self):
        parent, child_sock = channel_pair(deadline_s=2.0)
        child = MessageChannel(child_sock)

        def _echo_once():
            child.send(child.recv())

        import threading
        thread = threading.Thread(target=_echo_once, daemon=True)
        thread.start()
        try:
            parent.send({"ping": 1})
            assert parent.recv() == {"ping": 1}
        finally:
            thread.join(timeout=5.0)
            parent.close()
            child.close()


class TestHungWorkerRecovery:
    def test_wedged_worker_is_killed_and_restarted_in_place(
            self, tenant_graphs, mlp_thresholds, mlp_input_factory):
        if multiprocessing.get_start_method() not in ("fork", "forkserver"):
            pytest.skip("SIGSTOP pin relies on POSIX process control")
        fleet = ProcessFleet(num_workers=2, worker_timeout_s=2.0)
        try:
            _register_all(fleet, tenant_graphs, mlp_thresholds)
            victim_tenant = next(
                name for name in fleet.model_names
                if fleet.location(name) == "shard-1")
            proc = fleet.workers["shard-1"].process
            os.kill(proc.pid, signal.SIGSTOP)
            # The submit hits the 2 s deadline, and the fleet treats the
            # wedged worker like a dead one: kill, restart in place from
            # the journal, then retry the submit on the same home.
            request_id = fleet.submit(victim_tenant, mlp_input_factory(7))
            worker = fleet.workers["shard-1"]
            assert worker.alive and worker.process.pid != proc.pid
            assert not fleet.placement.ring.is_drained("shard-1")
            assert "shard-1" not in fleet.placement.dead
            assert fleet.recoveries == 1 and fleet.failovers == 0
            assert fleet.location(victim_tenant) == "shard-1"
            results = fleet.process()
            assert [r.request_id for r in results] == [request_id]
            assert results[0].status == "finalized"
            time.sleep(0.2)
            assert not proc.is_alive(), "wedged worker must be killed"
            assert _conserved(fleet)
        finally:
            fleet.close()
