"""The fleet parent encodes each frame once, and process frames carry deltas.

Parent-side, a payload is encoded by the transport when it is sent and never
again: the write-ahead journal builds its records from the bytes the channel
wrote and read.  These tests spy on the codec in the parent and pin exact
counts, check every journal record against the canonical encoding of the
frames exchanged, and pin that a ``process`` response carries only the
coordinator rows that changed since the previous successful one while the
parent's snapshot still equals the worker's full coordinator after every
drain — including drains that fail partway.  One registration is one
``register`` frame, whose tables travel as arrays, and one chain call.
"""

from __future__ import annotations

import os
import signal
from collections import defaultdict

import numpy as np
import pytest

import reference_codec as ref
import repro.fleet.fleet as fleet_module
import repro.fleet.journal as journal_module
import repro.fleet.transport as transport_module
from repro.fleet import ProcessFleet, WorkerError
from repro.fleet.transport import MessageChannel
from repro.fleet.wire import encode_perturbation

from test_sharded_equivalence import _victim
from test_worker_deltas import _mirror_payload, _reference, reference_fleet  # noqa: F401


def _containers(value, out):
    """Every dict, list, tuple and array reachable from ``value``."""
    if isinstance(value, (dict, list, tuple, np.ndarray)):
        out.append(value)
    if isinstance(value, dict):
        for item in value.values():
            _containers(item, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _containers(item, out)
    return out


def _holds(value, target) -> bool:
    return any(item is target for item in _containers(value, []))


@pytest.fixture(scope="module")
def spied_run(mlp_graph, mlp_thresholds, mlp_input_factory):
    """One fleet run with the parent's encoder and channel frames recorded."""
    encoded, received = [], []
    frames = defaultdict(list)
    parent = os.getpid()
    real_encode = transport_module.canonical_bytes
    real_recv_frame = MessageChannel.recv_frame
    real_send_frame = MessageChannel.send_frame

    def spy_encode(value):
        if os.getpid() == parent:
            encoded.append(value)
        return real_encode(value)

    def spy_recv_frame(channel):
        message, data = real_recv_frame(channel)
        if os.getpid() == parent:
            received.append(message)
            frames[id(channel)].append(("in", message))
        return message, data

    def spy_send_frame(channel, data):
        if os.getpid() == parent:
            frames[id(channel)].append(("out", ref.decode_canonical(data)))
        return real_send_frame(channel, data)

    with pytest.MonkeyPatch.context() as patch:
        for module in (transport_module, fleet_module, journal_module):
            patch.setattr(module, "canonical_bytes", spy_encode)
        patch.setattr(MessageChannel, "recv_frame", spy_recv_frame)
        patch.setattr(MessageChannel, "send_frame", spy_send_frame)
        fleet = ProcessFleet(num_workers=1, n_way=2)
        try:
            model = fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
            victim = _victim(mlp_graph)
            fleet.submit(mlp_graph.name, mlp_input_factory(30))
            fleet.submit(mlp_graph.name, mlp_input_factory(31), proposer={
                "type": "adversarial", "name": "spy-cheat",
                "perturbations": {victim: encode_perturbation(np.float32(0.05))}})
            fleet.submit(mlp_graph.name, mlp_input_factory(32),
                         force_challenge=True)
            fleet.process()
            fleet.submit(mlp_graph.name, mlp_input_factory(30))
            fleet.process()
            fleet.stats()
            handle = fleet.workers[model.shard_id]
            yield {"fleet": fleet, "model": model, "encoded": encoded,
                   "received": received,
                   "frames": frames[id(handle.channel)],
                   "journal": fleet.journals[model.shard_id]}
        finally:
            fleet.close()


def test_register_payload_and_chain_replies_are_encoded_once(spied_run):
    encoded = spied_run["encoded"]
    payload = spied_run["model"].payload
    assert sum(_holds(value, payload) for value in encoded) == 1
    replies = [value for value in encoded
               if isinstance(value, dict) and value.get("kind") == "chain_reply"]
    assert len(replies) == spied_run["journal"].chain_entry_count > 0
    for reply in replies:
        assert sum(_holds(value, reply) for value in encoded) == 1


def test_no_received_frame_is_encoded_again(spied_run):
    received = [item for message in spied_run["received"]
                for item in _containers(message, [])]
    assert received
    seen = {id(item) for item in received}
    for value in spied_run["encoded"]:
        assert not any(id(item) in seen for item in _containers(value, []))


def test_journal_records_equal_the_canonical_map_of_the_frames(spied_run):
    """Rebuild every record with the pre-change formula over the frames
    that crossed the channel; the journal holds exactly those bytes."""
    spec, chain, commands = [], {}, []
    payload, chain_frames, call = None, 0, None
    for direction, message in spied_run["frames"]:
        if direction == "out" and message.get("kind") == "chain_reply":
            chain[int(call["seq"])] = ref.canonical_bytes({
                "method": call.get("method"), "args": call.get("args", {}),
                "reply": message})
        elif direction == "out":
            payload, chain_frames = message, 0
        elif message.get("kind") == "journal":
            spec.append(ref.canonical_bytes(dict(message.get("entry", {}))))
        elif message.get("kind") == "chain_call":
            call, chain_frames = message, chain_frames + 1
        elif message.get("kind") == "response":
            if spied_run["fleet"]._should_journal(payload, chain_frames):
                ok = bool(message.get("ok"))
                commands.append(ref.canonical_bytes({
                    "payload": payload, "ok": ok,
                    "value": message.get("value" if ok else "error")}))
    journal = spied_run["journal"]
    assert journal._spec == spec and spec
    assert journal._chain == chain and chain
    assert journal._commands == commands and len(commands) >= 6


def _float_scalars(value) -> int:
    if isinstance(value, float):
        return 1
    if isinstance(value, dict):
        return sum(_float_scalars(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_float_scalars(item) for item in value)
    return 0


def _longest_float_list(value) -> int:
    if isinstance(value, dict):
        return max([0] + [_longest_float_list(item) for item in value.values()])
    if isinstance(value, (list, tuple)):
        own = len(value) if all(isinstance(item, float) for item in value) else 0
        return max([own] + [_longest_float_list(item) for item in value])
    return 0


def test_one_registration_is_one_typed_frame_and_one_chain_call(
        mlp_graph, mlp_thresholds, mlp_envelope):
    """Exact counters for one MLP tenant with an envelope: one chain frame
    (the ``register_model`` transaction; the front end funds the standing
    accounts itself), tables as float64 row arrays, and a journal under
    40,000 bytes (the float-list frame with five chain calls journaled
    about 48,000)."""
    with ProcessFleet(num_workers=1) as fleet:
        calls = []
        fleet._chain_call_hook = lambda shard_id, message: calls.append(
            message["method"])
        model = fleet.register_model(mlp_graph, threshold_table=mlp_thresholds,
                                     committee_envelope=mlp_envelope)
        assert calls == ["submit"]
        assert fleet.chain.minted == 4 * 10_000.0
        payload = model.payload
        grid = len(mlp_thresholds.grid)
        assert _longest_float_list(payload) <= grid
        assert _float_scalars(payload) <= 58
        for table in ("thresholds", "committee_envelope"):
            for side in ("abs", "rel"):
                rows = payload[table][side]
                assert rows.dtype == np.float64
                assert rows.shape == (len(mlp_thresholds.operator_names()), grid)
        assert fleet.journal_for(model.shard_id).size_bytes() < 40_000


# ----------------------------------------------------------------------
# Process responses carry coordinator deltas
# ----------------------------------------------------------------------

def _rows(payload):
    return {("tasks", row["task_id"]): row for row in payload["tasks"]} | \
        {("disputes", row["dispute_id"]): row for row in payload["disputes"]}


def test_process_responses_carry_only_changed_rows(
        reference_fleet, mlp_graph, mlp_thresholds, mlp_input_factory):
    with reference_fleet() as fleet:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        handle = fleet.workers[fleet.location(mlp_graph.name)]
        responses = []
        real_call = fleet._call

        def capture(target, payload):
            value = real_call(target, payload)
            if payload.get("op") == "process":
                responses.append(value["coordinator"])
            return value

        fleet._call = capture
        reported = {}  # the worker's rows as of its last process response
        checked = 0
        for burst in range(5):
            for slot in range(3):
                fleet.submit(mlp_graph.name, mlp_input_factory(40 + burst + slot))
            fleet.submit(mlp_graph.name, mlp_input_factory(60 + burst),
                         force_challenge=True)
            calls = []
            if burst == 1:
                # Fail the drain partway: the worker settles some requests,
                # then a chain call it cannot bind fails the process op.
                def strip(shard_id, message):
                    calls.append(message)
                    if len(calls) == 5:
                        message["args"] = {}
                fleet._chain_call_hook = strip
            elif burst == 3:
                # Kill the worker mid-drain; journal recovery replays it and
                # the drain resumes on the restarted worker.
                def kill(shard_id, message):
                    calls.append(message)
                    if len(calls) == 3:
                        os.kill(handle.process.pid, signal.SIGKILL)
                        handle.process.join(timeout=10.0)
                fleet._chain_call_hook = kill
            before = len(responses)
            try:
                fleet.process()
            except WorkerError:
                assert burst == 1
            fleet._chain_call_hook = None
            if burst == 3:
                assert fleet.recoveries == 1
            full = _reference(fleet, handle.shard_id)["coordinator"]
            rows = _rows(full)
            if len(responses) == before:
                # The failed drain answered nothing; its rows ride on the
                # next successful response.
                assert burst == 1
                continue
            delta = _rows(responses[-1])
            assert delta == {key: row for key, row in rows.items()
                             if reported.get(key) != row}
            assert len(delta) < len(rows) or burst == 0
            reported = rows
            # The gate: the parent's mirror equals the worker's coordinator.
            assert _rows(_mirror_payload(handle.coordinator)) == rows
            checked += 1
        assert checked == 4
