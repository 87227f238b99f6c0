"""A fleet worker's coordinator deltas, cut without walking its history.

A ``process`` reply carries only the coordinator rows that changed since the
worker's previous successful ``process`` reply.  The worker cuts them from
new and still-open rows only (:class:`repro.fleet.worker.CoordinatorDeltas`).
The reference kept here is the full walk: diff every row of the coordinator
against every row of the last successful reply.  On one stream with
disputes, a failed drain, a stranded request and a SIGKILL with journal
recovery, the two delta streams must be equal, row for row and in order.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.fleet import ProcessFleet, WorkerError
from repro.fleet.wire import encode_perturbation
from repro.fleet.worker import CoordinatorDeltas, _coordinator_payload
from repro.protocol.service import TAOService

from test_sharded_equivalence import _victim

TERMINAL = {"finalized", "proposer_slashed", "challenger_slashed"}
ID_KEYS = {"tasks": "task_id", "disputes": "dispute_id"}


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


def test_delta_stream_equals_the_full_walk(mlp_graph, mlp_thresholds,
                                          mlp_input_factory):
    fleet = ProcessFleet(num_workers=1, n_way=2, recovery="journal")
    deltas, snapshots = [], []
    real_call = fleet._call

    def spy(handle, payload):
        value = real_call(handle, payload)
        if payload.get("op") == "process" and \
                handle.shard_id not in fleet._replaying:
            deltas.append(value["coordinator"])
            snapshots.append(real_call(handle, {"op": "stats"})["coordinator"])
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
