"""A recorded trace lives only until its cycle closes.

Once a cycle's requests are terminal, no dispute can ask for an intermediate
tensor of theirs again, so a served report keeps a receipt (commitment,
outputs, FLOPs, device; ``trace_values is None``, no payload) and the result
cache keeps receipts too; a request record drops its payload as
``process()`` returns it.  A cache hit that goes to dispute is re-traced once by the
standing proposer, and the re-trace must reproduce the committed outputs bit
for bit.  These tests pin that no trace or payload outlives its cycle, on
every tier; that a disputed hit ends exactly as the same dispute served
cold; that a re-trace which does not match its receipt never reaches a
dispute; and, under ``tracemalloc``, that serving more requests does not keep
allocating a trace per request.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.calibration import CalibrationConfig, Calibrator, ThresholdTable
from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.models import get_model_spec
from repro.protocol import TAOService
from repro.protocol.roles import AdversarialProposer
from repro.tensorlib import DEVICE_FLEET

#: Bytes a second batch of 8 distinct ``bert_mini`` requests may leave
#: allocated beyond the first.  Receipts, chain records and hash-cache
#: entries measure 41 kB under the AVX2 BLAS kernels and 84 kB under the
#: AVX-512 ones, where one request of the batch is a false-alarm dispute;
#: keeping each request's trace measures 5.3 MB.
BATCH_GROWTH_BOUND = 256 * 1024

#: Bytes per batch of 8 ``bert_mini`` requests (4 forced challenges) the
#: hash memo may still resolve after the batch: the outputs receipts keep
#: measure 256 B (2.3 kB while records and receipts kept payloads too); a
#: memo that pins every hashed dispute tensor grows by about 150 kB.
MEMO_GROWTH_BOUND = 16 * 1024


def _victim(graph) -> str:
    return next(node.name for node in graph.graph.operators if node.target == "linear")


def _make_tier(tier, graph, thresholds):
    front = {"service": lambda: TAOService(n_way=2),
             "cluster": lambda: TAOCluster(num_shards=2, n_way=2),
             "fleet": lambda: ProcessFleet(num_workers=2, n_way=2)}[tier]()
    front.register_model(graph, threshold_table=thresholds)
    return front


def _retrace_spy(entry):
    """Record the standing proposer's traces (its ``execute`` traces too)."""
    calls = []
    trace = entry.proposer.trace

    def counting_trace(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    entry.proposer.trace = counting_trace
    return calls


@pytest.mark.parametrize("tier", ["service", "cluster", "fleet"])
def test_no_trace_outlives_its_cycle(tier, mlp_graph, mlp_thresholds,
                                     mlp_input_factory):
    name = mlp_graph.name
    perturbations = {_victim(mlp_graph): np.float32(0.05)}
    with _make_tier(tier, mlp_graph, mlp_thresholds) as front:
        if tier == "fleet":
            cheater = {"type": "adversarial", "name": "cheater", "perturbations": {
                victim: encode_perturbation(delta) for victim, delta in perturbations.items()}}
        else:
            cheater = front.model(name).session.make_adversarial_proposer(
                "cheater", perturbations)
        ids = [front.submit(name, mlp_input_factory(500 + i)) for i in range(5)]
        ids.append(front.submit(name, mlp_input_factory(500)))       # in-cycle duplicate
        ids.append(front.submit(name, mlp_input_factory(600), force_challenge=True))
        ids.append(front.submit(name, mlp_input_factory(700), proposer=cheater))
        returned = front.process()
        ids.append(front.submit(name, mlp_input_factory(501)))       # cache hit
        ids.append(front.submit(name, mlp_input_factory(502), force_challenge=True))
        returned += front.process()

        requests = [front.request(request_id) for request_id in ids]
        assert len(returned) == len(requests)
        assert all(got is want for got, want in zip(returned, requests))
        assert sum(array.nbytes for request in returned
                   for array in request.inputs.values()) == 0
        assert {request.status for request in requests} == \
            {"finalized", "challenger_slashed", "proposer_slashed"}
        assert sum(request.cache_hit for request in requests) == 3
        if tier == "fleet":
            return  # the traces and the result cache live in the workers
        for request in requests:
            assert request.report.result.trace_values is None, request.request_id
            assert not request.report.result.inputs, request.request_id
            assert request.report.result.outputs             # the receipt keeps outputs
        cache = front.model(name).result_cache
        assert len(cache) == 6
        assert all(verdict.result.trace_values is None for verdict in cache.values())


@pytest.mark.parametrize("standing", ["honest", "cheating"])
def test_disputed_cache_hit_matches_the_cold_dispute(standing, mlp_graph, mlp_thresholds,
                                                     mlp_input_factory):
    """A forced hit (honest proposer), or a flagged hit of a standing proposer
    that cheats, is re-traced once and ends as the same payload served cold."""
    payload = mlp_input_factory(800)
    force = standing == "honest"

    def fresh_service():
        service = _make_tier("service", mlp_graph, mlp_thresholds)
        entry = service.model(mlp_graph.name)
        if standing == "cheating":
            entry.proposer = AdversarialProposer(
                entry.proposer.name, entry.proposer.device,
                {_victim(mlp_graph): np.float32(0.05)}, hash_cache=service.hash_cache)
        return service, entry

    cold, _ = fresh_service()
    cold_id = cold.submit(mlp_graph.name, payload, force_challenge=force)
    cold.process()

    warm, entry = fresh_service()
    warm.submit(mlp_graph.name, payload)
    warm.process()
    traces = _retrace_spy(entry)
    warm_id = warm.submit(mlp_graph.name, payload, force_challenge=force)
    warm.process()

    assert len(traces) == 1
    served, expected = warm.request(warm_id), cold.request(cold_id)
    assert served.cache_hit and not expected.cache_hit
    assert served.status == expected.status == \
        ("challenger_slashed" if force else "proposer_slashed")
    got, want = served.report.dispute, expected.report.dispute
    assert got.localized_operator == want.localized_operator
    assert got.resolved_by_timeout == want.resolved_by_timeout
    assert got.statistics.rounds == want.statistics.rounds
    assert got.statistics.gas_used == want.statistics.gas_used
    assert got.statistics.merkle_checks == want.statistics.merkle_checks
    assert served.report.result.commitment.value == expected.report.result.commitment.value
    if standing == "cheating":
        assert got.localized_operator == _victim(mlp_graph)


def test_retrace_that_misses_its_receipt_raises_before_any_dispute(
        mlp_graph, mlp_thresholds, mlp_input_factory):
    service = _make_tier("service", mlp_graph, mlp_thresholds)
    entry = service.model(mlp_graph.name)
    payload = mlp_input_factory(900)
    service.submit(mlp_graph.name, payload)
    service.process()
    # The standing proposer now traces different bits than it committed.
    entry.proposer = AdversarialProposer(
        entry.proposer.name, entry.proposer.device,
        {_victim(mlp_graph): np.float32(0.05)}, hash_cache=service.hash_cache)
    disputes, opened = len(service.coordinator.disputes), service.stats().disputes_opened
    request_id = service.submit(mlp_graph.name, payload, force_challenge=True)
    with pytest.raises(RuntimeError, match="does not reproduce its committed outputs"):
        service.process()
    assert len(service.coordinator.disputes) == disputes
    assert service.stats().disputes_opened == opened
    request = service.request(request_id)
    assert request.report is None and request.status == "queued"
    assert service.pending_count == 1


@pytest.fixture(scope="module")
def bert_service():
    """A fresh-service factory for ``bert_mini``, and a payload factory."""
    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1, seed=17)
    calibration = Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(
        graph, spec.dataset(module, 3, seed=17, batch_size=1))
    table = ThresholdTable.from_calibration(calibration, alpha=6.0)

    def make_service():
        service = TAOService()
        service.register_model(graph, threshold_table=table)
        return service

    return make_service, graph.name, lambda seed: spec.sample_inputs(module, 1, seed)


def test_serving_more_requests_does_not_keep_their_traces(bert_service):
    make_service, name, payload = bert_service
    service = make_service()

    def serve_batch(first_seed):
        service.submit_many(name, [payload(first_seed + i) for i in range(8)])
        service.process()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        after_first = serve_batch(100)
        after_second = serve_batch(200)
    finally:
        tracemalloc.stop()
    assert service.stats().requests_completed == 16
    assert after_second - after_first < BATCH_GROWTH_BOUND, after_second - after_first


def _memo_bytes(cache) -> int:
    """Bytes of the arrays the hash memo still resolves to."""
    arrays = [ref() for ref, _ in list(cache._tensors.values())]
    return sum(array.nbytes for array in arrays if array is not None)


def test_hash_memo_does_not_pin_released_dispute_tensors(bert_service):
    """Dispute records hash boundary tensors of traces the cycle then
    releases; the memo must let those arrays die with their trace."""
    make_service, name, payload = bert_service
    service = make_service()
    memo_bytes = []
    for batch in range(4):
        for index in range(8):
            service.submit(name, payload(100 * batch + index), force_challenge=index < 4)
        service.process()
        gc.collect()
        memo_bytes.append(_memo_bytes(service.hash_cache))
    assert service.stats().disputes_opened >= 16
    per_batch = (memo_bytes[-1] - memo_bytes[0]) / (len(memo_bytes) - 1)
    assert per_batch < MEMO_GROWTH_BOUND, memo_bytes
