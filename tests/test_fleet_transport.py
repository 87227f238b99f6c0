"""Transport and spawn-safety pins for the process fleet.

Two independent guarantees:

* **Codec fidelity across a real process boundary.**  Every value family the
  fleet protocol puts on the wire — hello/config maps, graph and threshold
  payloads, request inputs of assorted dtypes, chain-call frames with raw
  transaction bytes, statistics payloads, commitment bytes — survives a
  round trip through a *separate interpreter* started with the ``spawn``
  method (nothing inherited, the worker re-imports everything) and decodes
  to an equal value under the codec's documented normalizations (tuples
  become lists, 0-d arrays travel as tagged scalars).

* **Typed registration tables.**  A threshold table and a committee
  envelope travel as float64 row arrays and commit byte for byte as the
  originals; a frame whose rows disagree with its names, or whose arrays
  are 1-D or float32, is refused by the worker, which keeps serving.  A
  registration refused for its commitment leaves nothing behind.

* **Worker importability under spawn.**  ``repro.fleet.worker`` has no
  import-time side effects, so a full fleet boots with
  ``start_method="spawn"`` and reproduces the fork fleet's (and therefore
  the plain service's) verdicts exactly.
"""

from __future__ import annotations

import multiprocessing
import socket

import numpy as np
import pytest

from repro.fleet import ProcessFleet, WorkerError
from repro.fleet.transport import MessageChannel, TransportClosed, channel_pair
from repro.fleet.wire import (
    decode_perturbation,
    encode_perturbation,
    envelope_from_payload,
    envelope_to_payload,
    graph_from_payload,
    graph_to_payload,
    table_from_payload,
    table_to_payload,
)
from repro.calibration.thresholds import ThresholdTable
from repro.merkle.commitments import commit_model
from repro.protocol import TAOService
from repro.protocol.service import ServiceStats
from repro.utils.serialization import canonical_bytes, decode_canonical

from test_sharded_equivalence import _fingerprint, _victim


def _echo_main(child_socket: socket.socket) -> None:
    """Decode each frame in a fresh interpreter and send it straight back."""
    channel = MessageChannel(child_socket)
    try:
        while True:
            message = channel.recv()
            if isinstance(message, dict) and message.get("op") == "stop":
                break
            channel.send(message)
    except TransportClosed:
        pass
    finally:
        channel.close()


@pytest.fixture()
def spawn_echo():
    """A spawn-started echo peer; yields the parent channel."""
    parent, child_sock = channel_pair()
    process = multiprocessing.get_context("spawn").Process(
        target=_echo_main, args=(child_sock,), daemon=True)
    process.start()
    child_sock.close()
    try:
        yield parent
    finally:
        try:
            parent.send({"op": "stop"})
        except TransportClosed:
            pass
        parent.close()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - stuck echo peer
            process.kill()


def _roundtrip(channel: MessageChannel, value):
    channel.send(value)
    return channel.recv()


def test_spawn_roundtrip_arrays_and_scalars(spawn_echo):
    """Request-input shapes: arrays keep dtype/shape/bytes, 0-d stays tagged."""
    inputs = {
        "f32": np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
        "f64": np.linspace(-1, 1, 5),
        "i64": np.array([[1, -2], [3, -4]], dtype=np.int64),
        "u8": np.array([0, 255, 7], dtype=np.uint8),
        "bool": np.array([True, False, True]),
    }
    echoed = _roundtrip(spawn_echo, {"op": "submit", "inputs": inputs,
                                     "force_challenge": True})
    assert echoed["force_challenge"] is True
    for name, expected in inputs.items():
        got = echoed["inputs"][name]
        assert isinstance(got, np.ndarray)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    # Adversarial deltas: the scalar tag preserves the exact numpy dtype.
    delta = _roundtrip(spawn_echo, encode_perturbation(np.float32(0.05)))
    decoded = decode_perturbation(delta)
    assert decoded == np.float32(0.05)
    assert decoded.dtype == np.dtype("float32")


def test_spawn_roundtrip_protocol_frames(spawn_echo):
    """Hello, chain-call and response frames under codec normalization."""
    hello = {
        "shard_id": "shard-3",
        "block_interval_s": 12.0,
        "service": {"n_way": 2, "cycle_capacity": None, "leaf_path": "routed",
                    "result_cache_size": 256},
        "actor_module": "repro.fleet.actors",
    }
    assert _roundtrip(spawn_echo, hello) == hello

    chain_call = {
        "kind": "chain_call",
        "method": "submit",
        "args": {
            "sender": "proposer-0",
            "action": "commit",
            "payload_bytes": b"\x00\xffcommitment\x01",
            "storage_writes": 3,
            "merkle_checks": 2,
            "details": {"task": 7, "round": 1},
            "block": 4,
            "timestamp": 48.0,
            "shard": "shard-3",
        },
    }
    echoed = _roundtrip(spawn_echo, chain_call)
    assert echoed == chain_call
    assert isinstance(echoed["args"]["payload_bytes"], bytes)

    # Tuples are normalized to lists — the one shape change the codec makes.
    assert _roundtrip(spawn_echo, {"pair": (1, (2.5, "x"))}) == \
        {"pair": [1, [2.5, "x"]]}

    report_like = {"kind": "response", "ok": True,
                   "value": {"commitment": {"value": b"\x01" * 32},
                             "verification": [False, True]}}
    assert _roundtrip(spawn_echo, report_like) == report_like


def test_spawn_roundtrip_model_and_stats_payloads(spawn_echo, mlp_graph,
                                                  mlp_thresholds):
    """Registration payloads re-materialize byte- and value-identically."""
    payload = graph_to_payload(mlp_graph)
    rebuilt = graph_from_payload(_roundtrip(spawn_echo, payload))
    assert canonical_bytes(graph_to_payload(rebuilt)) == \
        canonical_bytes(payload)

    table = ThresholdTable.from_dict(
        _roundtrip(spawn_echo, mlp_thresholds.to_dict()))
    assert table.to_dict() == mlp_thresholds.to_dict()

    stats = ServiceStats(
        requests_submitted=9, requests_completed=8, cache_hits=2,
        batched_requests=3, disputes_opened=1, dispute_rounds=4,
        processing_time_s=0.25, busy_cpu_s=0.125,
        stage_busy_s={"execute": 0.5, "verify": 0.25},
        status_counts={"finalized": 8}, shards=2, failovers=1,
        redispatched_requests=3, measured_wall_s=0.5,
        shard_busy_s={"shard-0": 0.125, "shard-1": 0.0},
    )
    stats.latency.add_many([0.03125, 0.0625])
    echoed = ServiceStats.from_payload(
        _roundtrip(spawn_echo, stats.to_payload()))
    assert canonical_bytes(echoed.to_payload()) == \
        canonical_bytes(stats.to_payload())
    assert echoed.latency.p50 == stats.latency.p50


def test_table_wire_form_commits_byte_for_byte(mlp_graph, mlp_thresholds,
                                               mlp_envelope):
    """Builders plus the canonical codec reproduce every leaf payload and
    the model digest of the table and the envelope."""
    table = table_from_payload(decode_canonical(canonical_bytes(
        table_to_payload(mlp_thresholds))))
    envelope = envelope_from_payload(decode_canonical(canonical_bytes(
        envelope_to_payload(mlp_envelope))))
    assert type(table) is ThresholdTable
    assert table.leaf_payloads() == mlp_thresholds.leaf_payloads()
    assert envelope.leaf_payloads() == mlp_envelope.leaf_payloads()
    assert envelope.stability == mlp_envelope.stability
    assert (envelope.num_samples, envelope.num_pairs) == \
        (mlp_envelope.num_samples, mlp_envelope.num_pairs)
    assert commit_model(mlp_graph, table, committee_envelope=envelope).digest() \
        == commit_model(mlp_graph, mlp_thresholds,
                        committee_envelope=mlp_envelope).digest()


def _register_frame(fleet, graph, thresholds, envelope):
    _, key, _ = fleet.placement.prepare(graph, None, thresholds,
                                        committee_envelope=envelope)
    return {
        "op": "register", "name": graph.name, "key": key,
        "graph": graph_to_payload(graph),
        "thresholds": table_to_payload(thresholds),
        "committee_envelope": envelope_to_payload(envelope),
        "colluding_majority": None, "challenger_clones": 0,
    }


def test_malformed_table_frames_are_refused_and_the_worker_serves_on(
        mlp_graph, mlp_thresholds, mlp_envelope):
    with ProcessFleet(num_workers=1) as fleet:
        good = _register_frame(fleet, mlp_graph, mlp_thresholds, mlp_envelope)
        table = good["thresholds"]
        malformed = {
            "rows disagree with names": dict(table, names=table["names"][:-1],
                                             op_types=table["op_types"][:-1]),
            "1-D array": dict(table, abs=table["abs"].ravel()),
            "float32 array": dict(table, rel=table["rel"].astype(np.float32)),
        }
        handle = fleet.workers["shard-0"]
        journal = fleet.journal_for("shard-0")
        for label, bad in malformed.items():
            with pytest.raises(WorkerError, match="table frame"):
                handle.call(dict(good, thresholds=bad))
            assert journal.commands()[-1]["ok"] is False, label
        assert fleet.chain.transactions == [] and fleet.chain.minted == 0
        assert handle.call({"op": "ping"}) == {"shard_id": "shard-0"}
        handle.call(good)
        assert journal.commands()[-1]["ok"] is True
        assert [tx.action for tx in fleet.chain.transactions] == ["register_model"]


def test_registration_refused_for_its_commitment_leaves_nothing(
        mlp_graph, mlp_thresholds, mlp_envelope, monkeypatch):
    """A worker whose commitment differs from the routing key refuses the
    tenant before its coordinator or the chain sees it: nothing is minted,
    no worker holds the tenant, and a correct retry succeeds."""
    with ProcessFleet(num_workers=1) as fleet:
        prepare = fleet.placement.prepare

        def wrong_key(*args, **kwargs):
            table, key, home = prepare(*args, **kwargs)
            return table, bytes(32), home

        monkeypatch.setattr(fleet.placement, "prepare", wrong_key)
        with pytest.raises(WorkerError, match="routing key"):
            fleet.register_model(mlp_graph, threshold_table=mlp_thresholds,
                                 committee_envelope=mlp_envelope)
        assert fleet.chain.minted == 0 and fleet.chain.balances == {}
        assert fleet.chain.transactions == []
        assert fleet.model_names == []
        with pytest.raises(WorkerError, match="not registered"):
            fleet.workers["shard-0"].call({"op": "detach",
                                           "model": mlp_graph.name})
        monkeypatch.setattr(fleet.placement, "prepare", prepare)
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds,
                             committee_envelope=mlp_envelope)
        assert fleet.model_names == [mlp_graph.name]
        assert fleet.chain.minted == 4 * 10_000.0
        assert [tx.action for tx in fleet.chain.transactions] == ["register_model"]


def test_stats_payload_stays_fixed_size():
    """The stats frame every fleet reply carries does not grow with the
    number of requests: 100x and 10,000x the same latencies fill the same
    digest buckets, and only the count digits differ."""
    small, large = ServiceStats(), ServiceStats()
    for stats, repeats in ((small, 100), (large, 10_000)):
        for _ in range(repeats):
            stats.latency.add_many([0.001, 0.004, 0.02, 0.15, 1.5])
    small_payload, large_payload = small.to_payload(), large.to_payload()
    assert small_payload["latency"]["buckets"].keys() == \
        large_payload["latency"]["buckets"].keys()
    assert abs(len(canonical_bytes(large_payload))
               - len(canonical_bytes(small_payload))) < 32


def test_transport_closed_on_peer_exit():
    """EOF surfaces as TransportClosed — the failover signal, not a hang."""
    parent, child_sock = channel_pair()
    child = MessageChannel(child_sock)
    child.close()
    with pytest.raises(TransportClosed):
        parent.recv()
    with pytest.raises(TransportClosed):
        # A closed peer eventually fails sends too (buffering may absorb
        # the first frame; the second write hits the reset).
        for _ in range(64):
            parent.send({"op": "ping"})
    parent.close()


def test_worker_boot_failure_is_raised_and_the_worker_stopped():
    """A state that cannot boot surfaces as WorkerError; no child lingers."""
    with pytest.raises(WorkerError, match="fleet-shard-0.*failed to boot.*"
                       "ModuleNotFoundError"):
        ProcessFleet(num_workers=1, actor_module="no_such_actor_module")
    assert not [child for child in multiprocessing.active_children()
                if child.name == "fleet-shard-0"]


def test_spawn_fleet_matches_plain_service(mlp_graph, mlp_thresholds,
                                           mlp_input_factory):
    """A spawn-started fleet serves verdicts identical to the plain service."""
    service = TAOService(n_way=2)
    session = service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    victim = _victim(mlp_graph)
    plain_ids = [
        service.submit(mlp_graph.name, mlp_input_factory(5)),
        service.submit(
            mlp_graph.name, mlp_input_factory(6),
            proposer=session.make_adversarial_proposer(
                "spawn-cheat", {victim: np.float32(0.05)})),
        service.submit(mlp_graph.name, mlp_input_factory(7),
                       force_challenge=True),
    ]
    service.process()

    fleet = ProcessFleet(num_workers=2, n_way=2, start_method="spawn")
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        fleet_ids = [
            fleet.submit(mlp_graph.name, mlp_input_factory(5)),
            fleet.submit(
                mlp_graph.name, mlp_input_factory(6),
                proposer={"type": "adversarial", "name": "spawn-cheat",
                          "perturbations": {
                              victim: encode_perturbation(np.float32(0.05))}}),
            fleet.submit(mlp_graph.name, mlp_input_factory(7),
                         force_challenge=True),
        ]
        fleet.process()
        for plain_id, fleet_id in zip(plain_ids, fleet_ids):
            assert _fingerprint(fleet.request(fleet_id)) == \
                _fingerprint(service.request(plain_id))
        assert dict(fleet.chain.balances) == \
            dict(service.coordinator.chain.balances)
        assert fleet.chain.minted == service.coordinator.chain.minted
    finally:
        fleet.close()
