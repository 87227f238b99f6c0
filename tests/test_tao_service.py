"""TAOService: concurrent honest + adversarial requests over one coordinator.

The service must (1) bring every submitted request to a terminal coordinator
status, (2) reach the recorded dispute outcomes (localized operator, rounds,
adjudication path, gas) a cheat reaches when it is served alone, and (3) keep
its performance machinery (content-addressed result cache, multiplexed
dispute games) observationally transparent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.graph import Module, Parameter, trace_module
from repro.graph import functional as F
from repro.protocol import TAOService
from repro.protocol.coordinator import TaskStatus
from repro.protocol.service import ServiceRequest

from test_sharded_equivalence import _round_costs

TERMINAL = {
    TaskStatus.FINALIZED.value,
    TaskStatus.PROPOSER_SLASHED.value,
    TaskStatus.CHALLENGER_SLASHED.value,
}


@pytest.fixture()
def service(mlp_graph, mlp_thresholds):
    service = TAOService(n_way=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    return service


def _victim_operator(graph):
    return next(node.name for node in graph.graph.operators if node.target == "linear")


def test_interleaved_honest_and_adversarial_requests(service, mlp_graph,
                                                     mlp_input_factory):
    """A mixed stream: every request terminal, cheats localized, honest finalized."""
    session = service.model("tiny_mlp").session
    victim = _victim_operator(mlp_graph)

    honest_ids, cheat_ids = [], []
    for i in range(4):
        honest_ids.append(service.submit("tiny_mlp", mlp_input_factory(50 + i)))
        adv = session.make_adversarial_proposer(
            f"cheater-{i}", {victim: np.float32(0.05)})
        cheat_ids.append(service.submit("tiny_mlp", mlp_input_factory(80 + i),
                                        proposer=adv))

    processed = service.process()
    assert len(processed) == 8
    assert service.pending_count == 0

    for request in processed:
        assert request.status in TERMINAL
        assert request.report is not None
        assert request.report.final_status == request.status

    for request_id in honest_ids:
        request = service.request(request_id)
        assert request.status == TaskStatus.FINALIZED.value
        assert request.report.finalized_optimistically
    for request_id in cheat_ids:
        request = service.request(request_id)
        assert request.status == TaskStatus.PROPOSER_SLASHED.value
        assert request.report.dispute is not None
        assert request.report.dispute.localized_operator == victim

    stats = service.stats()
    assert stats.requests_completed == 8
    assert stats.disputes_opened == 4
    assert stats.throughput_rps > 0


@pytest.mark.parametrize("perturbation", [
    {"softmax": np.float32(np.nan)},
    {"gelu": np.float32(np.nan)},
    {"softmax": np.float32(np.inf)},
], ids=["softmax-nan", "gelu-nan", "softmax-inf"])
@pytest.mark.parametrize("leaf_path", ["routed", "theoretical"])
def test_non_finite_tamper_is_slashed_at_the_tampered_operator(
        mlp_graph, mlp_thresholds, mlp_input_factory, perturbation, leaf_path):
    from repro.calibration.committee import calibrate_committee_envelope

    envelope = calibrate_committee_envelope(
        mlp_graph, [mlp_input_factory(2000 + i) for i in range(3)])
    service = TAOService(leaf_path=leaf_path)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds,
                           committee_envelope=envelope)
    session = service.model("tiny_mlp").session
    proposer = session.make_adversarial_proposer("nan-cheater", perturbation)
    request_id = service.submit("tiny_mlp", mlp_input_factory(81), proposer=proposer)
    service.process()
    request = service.request(request_id)
    assert request.status == TaskStatus.PROPOSER_SLASHED.value
    assert request.report.dispute.localized_operator == next(iter(perturbation))


#: What a ``0.05`` cheat on ``tiny_mlp``'s first ``linear`` (payload seed 321)
#: reaches when it is served alone on a fresh ``n_way=2`` deployment, recorded
#: at commit 2848446.
ALONE_OUTCOME = {
    "final_status": "proposer_slashed",
    "proposer_cheated": True,
    "localized_operator": "linear",
    "rounds": 3,
    "adjudication_path": "theoretical_bound",
    "gas_used": 759_624,
}

#: Dispute gas of a ``0.05`` cheat on each victim (payload seed ``700 + i``)
#: served alone on a fresh ``n_way=2`` deployment, recorded at commit 2848446.
ALONE_DISPUTE_GAS = {"layer_norm": 759_624, "gelu": 759_624, "relu": 759_624}


def test_dispute_outcomes_match_the_recorded_alone_outcome(service, mlp_graph,
                                                           mlp_input_factory):
    """A cheat interleaved with honest traffic ends as it ends served alone."""
    victim = _victim_operator(mlp_graph)
    session = service.model("tiny_mlp").session
    service.submit("tiny_mlp", mlp_input_factory(11))
    cheat_id = service.submit(
        "tiny_mlp", mlp_input_factory(321),
        proposer=session.make_adversarial_proposer(
            "svc-cheater", {victim: np.float32(0.05)}))
    service.submit("tiny_mlp", mlp_input_factory(12))
    service.process()

    report = service.request(cheat_id).report
    assert {
        "final_status": report.final_status,
        "proposer_cheated": report.proposer_cheated,
        "localized_operator": report.dispute.localized_operator,
        "rounds": report.dispute.statistics.rounds,
        "adjudication_path": report.dispute.adjudication.path,
        "gas_used": report.dispute.statistics.gas_used,
    } == ALONE_OUTCOME


def test_forced_challenge_on_honest_result_slashes_challenger(service,
                                                              mlp_input_factory):
    """A spamming challenger against an honest result loses its bond."""
    request_id = service.submit("tiny_mlp", mlp_input_factory(5), force_challenge=True)
    service.process()
    request = service.request(request_id)
    assert request.status == TaskStatus.CHALLENGER_SLASHED.value
    assert request.report.dispute.resolved_by_timeout


def test_disputes_sharing_one_challenger_keep_their_own_costs(
        mlp_graph, mlp_thresholds, mlp_input_factory):
    """Two forced disputes fought by one custom challenger in one
    ``process()`` each report the costs they report when each has its own
    challenger: a game's FLOPs and Merkle checks are its own rounds'."""
    def forced_disputes(shared: bool):
        service = TAOService(n_way=2)
        session = service.register_model(mlp_graph, threshold_table=mlp_thresholds)
        spammer = session.make_challenger("spammer")
        ids = [service.submit("tiny_mlp", mlp_input_factory(seed),
                              force_challenge=True,
                              challenger=spammer if shared
                              else session.make_challenger(f"spammer-{seed}"))
               for seed in (91, 92)]
        service.process()
        return [service.request(request_id).report.dispute.statistics
                for request_id in ids]

    for got, alone in zip(forced_disputes(shared=True),
                          forced_disputes(shared=False)):
        assert alone.challenger_flops > 0
        assert got.challenger_flops == alone.challenger_flops == sum(
            r.challenger_flops for r in alone.per_round)
        assert got.merkle_checks == alone.merkle_checks
        assert _round_costs(got) == _round_costs(alone)


def test_result_cache_serves_repeated_payloads(service, mlp_input_factory):
    """Identical payloads execute once; verdicts and commitments are reused."""
    inputs = mlp_input_factory(77)
    first = service.submit("tiny_mlp", inputs)
    duplicates = [service.submit("tiny_mlp", inputs) for _ in range(3)]
    service.process()
    # Next cycle hits the cross-cycle cache.
    later = service.submit("tiny_mlp", inputs)
    service.process()

    base = service.request(first)
    assert not base.cache_hit
    for request_id in duplicates + [later]:
        request = service.request(request_id)
        assert request.cache_hit
        assert request.status == TaskStatus.FINALIZED.value
        assert request.report.result.commitment.value == \
            base.report.result.commitment.value
        # Every duplicate is still its own on-chain task.
        assert request.report.task.task_id != base.report.task.task_id
    assert service.stats().cache_hits == 4


def test_multi_tenant_models_share_one_coordinator(service, mlp_module,
                                                   mlp_thresholds,
                                                   mlp_input_factory):
    """A second registered model serves through the same coordinator/chain."""
    second_graph = trace_module(mlp_module, mlp_input_factory(0), name="tiny_mlp_b")
    service.register_model(second_graph, threshold_table=mlp_thresholds)
    assert service.model_names == ["tiny_mlp", "tiny_mlp_b"]

    id_a = service.submit("tiny_mlp", mlp_input_factory(31))
    id_b = service.submit("tiny_mlp_b", mlp_input_factory(32))
    service.process()
    assert service.request(id_a).status == TaskStatus.FINALIZED.value
    assert service.request(id_b).status == TaskStatus.FINALIZED.value
    assert set(service.coordinator.models) == {"tiny_mlp", "tiny_mlp_b"}
    # Both models' tasks live in one transaction log.
    actions = [tx.action for tx in service.coordinator.chain.transactions]
    assert actions.count("register_model") == 2


def test_malformed_request_is_rejected_in_isolation(service, mlp_input_factory):
    """A payload the graph cannot execute is rejected; the batch is unaffected."""
    good = [service.submit("tiny_mlp", mlp_input_factory(400 + i)) for i in range(3)]
    bad = service.submit("tiny_mlp", {"x": np.zeros((4, 7), dtype=np.float32)})
    missing = service.submit("tiny_mlp", {"wrong_name": np.zeros((4, 32))})
    service.process()

    for request_id in good:
        assert service.request(request_id).status == TaskStatus.FINALIZED.value
    for request_id in (bad, missing):
        request = service.request(request_id)
        assert request.status == "rejected"
        assert request.report is None  # never reached the coordinator
        assert request.error


@pytest.mark.parametrize("named_proposer", [False, True], ids=["standing", "named"])
def test_empty_payload_is_rejected_naming_the_missing_input(service, mlp_input_factory,
                                                            named_proposer):
    """An empty payload never reaches the chain, on either proposer path."""
    proposer = None
    if named_proposer:
        proposer = service.model("tiny_mlp").session.make_honest_proposer("named")
    empty = service.submit("tiny_mlp", {}, proposer=proposer)
    good = service.submit("tiny_mlp", mlp_input_factory(410), proposer=proposer)
    service.process()

    request = service.request(empty)
    assert request.status == "rejected"
    assert request.report is None
    assert request.error == "missing graph inputs: ['x']"
    assert service.request(good).status == TaskStatus.FINALIZED.value


def test_large_drain_exceeding_challenge_window_blocks(service, mlp_input_factory):
    """Draining more requests than fit one challenge window still terminates.

    Every coordinator transaction advances chain time one block, so a single
    unbounded cycle over ~window/block_interval requests would close the
    earliest tasks' challenge windows before their disputes could open.  The
    service must process in bounded cycles instead; the force-challenged
    last request exercises the worst case (its dispute opens last).
    """
    window_blocks = int(service.coordinator.challenge_window_s
                        / service.coordinator.chain.block_interval_s)
    total = window_blocks + 10  # more submissions than blocks in one window
    payload = mlp_input_factory(63)  # a payload the thresholds accept
    ids = [service.submit("tiny_mlp", payload) for _ in range(total)]
    forced = service.submit("tiny_mlp", mlp_input_factory(64), force_challenge=True)

    processed = service.process()
    assert len(processed) == total + 1
    for request_id in ids:
        assert service.request(request_id).status == TaskStatus.FINALIZED.value
    assert service.request(forced).status == TaskStatus.CHALLENGER_SLASHED.value


def test_interleaved_dispute_gas_accounting_is_exact(service, mlp_graph,
                                                     mlp_thresholds,
                                                     mlp_input_factory):
    """Per-dispute gas under 3+ multiplexed disputes matches isolated runs.

    Pins the ``dispute_id``-filtered accounting path: (1) each multiplexed
    dispute's gas equals the recorded gas of the identical dispute served
    alone on a fresh deployment (same perturbation, same inputs, same action
    sequence);
    (2) the per-dispute numbers partition the dispute-tagged portion of the
    shared chain exactly, with nothing double-counted or dropped.
    """
    session = service.model("tiny_mlp").session
    # (A uniform additive delta on the pre-softmax logits would be softmax-
    # invariant, so the victims sit before nonlinearities that expose it.)
    victims = ["layer_norm", "gelu", "relu"]
    cheat_ids = []
    for i, victim in enumerate(victims):
        adv = session.make_adversarial_proposer(
            f"gas-cheater-{i}", {victim: np.float32(0.05)})
        cheat_ids.append(service.submit("tiny_mlp", mlp_input_factory(700 + i),
                                        proposer=adv))
        service.submit("tiny_mlp", mlp_input_factory(720 + i))  # honest filler
    service.process()

    multiplexed_gas = {}
    for request_id, victim in zip(cheat_ids, victims):
        report = service.request(request_id).report
        assert report.dispute is not None
        assert report.dispute.localized_operator == victim
        dispute_id = report.dispute.dispute_id
        gas = service.coordinator.dispute_gas(dispute_id)
        assert gas == report.dispute.statistics.gas_used
        # Filtering by dispute_id must agree with a manual scan of the log.
        manual = sum(tx.gas_used for tx in service.coordinator.chain.transactions
                     if tx.details.get("dispute_id") == dispute_id)
        assert gas == manual
        multiplexed_gas[victim] = gas

    # The tagged transactions partition: no gas is shared between disputes,
    # none is dropped (honest fillers may open false-positive disputes of
    # their own — they are part of the partition too).
    all_tagged = sum(tx.gas_used for tx in service.coordinator.chain.transactions
                     if tx.details.get("dispute_id") is not None)
    per_dispute = {d: service.coordinator.dispute_gas(d)
                   for d in service.coordinator.disputes}
    assert sum(per_dispute.values()) == all_tagged
    assert len(per_dispute) >= 3

    # Each multiplexed dispute costs exactly what it costs served alone.
    assert multiplexed_gas == ALONE_DISPUTE_GAS


def test_multicycle_drain_accounts_busy_time_per_stage(mlp_graph, mlp_thresholds,
                                                      mlp_input_factory):
    """A drain spanning several cycles times every stage of every cycle.

    The service's busy clock is the sum of its four stage clocks — the
    cluster's shard busy time reads it — and each stage is keyed by name.
    """
    service = TAOService(n_way=2, cycle_capacity=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    session = service.model("tiny_mlp").session
    adv = session.make_adversarial_proposer(
        "stage-cheater", {_victim_operator(mlp_graph): np.float32(0.05)})
    for i in range(7):
        service.submit("tiny_mlp", mlp_input_factory(960 + i),
                       proposer=adv if i == 3 else None,
                       force_challenge=(i == 5))
    service.submit("tiny_mlp", {"x": np.zeros((4, 7), dtype=np.float32)})

    processed = service.process()
    assert len(processed) == 8                  # 4 cycles of 2
    stats = service.stats()
    assert stats.requests_completed == 8
    assert stats.disputes_opened >= 2             # the cheat + the forced one
    assert stats.status_counts.get("rejected") == 1
    assert set(stats.stage_busy_s) == {"hash", "execute", "settle", "dispute"}
    assert stats.busy_cpu_s > 0
    assert stats.busy_cpu_s == pytest.approx(sum(stats.stage_busy_s.values()),
                                             rel=1e-9)
    assert service.last_pipeline_stats is None


def test_every_request_is_a_coordinator_task(service, mlp_input_factory):
    """Request/task bijection: fees and windows are accounted per request."""
    ids = [service.submit("tiny_mlp", mlp_input_factory(200 + i)) for i in range(5)]
    service.process()
    task_ids = {service.request(i).report.task.task_id for i in ids}
    assert len(task_ids) == 5
    for task_id in task_ids:
        assert service.coordinator.task(task_id).status is TaskStatus.FINALIZED


def test_enqueue_files_a_record_under_its_own_id(service, mlp_graph,
                                                mlp_input_factory):
    """``enqueue`` is the one intake: it files the record it is handed
    under that record's id, refuses an id already filed, and ``submit``
    (which builds a record and enqueues it) never reuses a filed id or
    skips one for a submit that was refused."""
    with pytest.raises(KeyError):
        service.submit("no-such-model", mlp_input_factory(90))
    assert service.submit(mlp_graph.name, mlp_input_factory(91)) == 0
    record = ServiceRequest(request_id=5, model_name=mlp_graph.name,
                            inputs=mlp_input_factory(92))
    service.enqueue(record)
    assert service.request(5) is record
    with pytest.raises(ValueError, match="already filed"):
        service.enqueue(ServiceRequest(request_id=5, model_name=mlp_graph.name,
                                       inputs=mlp_input_factory(93)))
    assert service.submit(mlp_graph.name, mlp_input_factory(94)) == 6
    processed = service.process()
    assert [request.request_id for request in processed] == [0, 5, 6]
    assert processed[1] is record and record.status in TERMINAL


@pytest.mark.parametrize("tier", ["service", "cluster", "fleet"])
def test_process_stamps_each_return_on_the_front_ends_clock(
        tier, mlp_graph, mlp_thresholds, mlp_input_factory):
    """``process()`` is where a request completes, on every tier: the
    records one call returns share that call's ``completed_s``, each one's
    latency is ``completed_s - submitted_s`` on the front end's clock, the
    tier's digest holds exactly those latencies, and a returned record keeps
    its receipt but not its payload."""
    front = {"service": lambda: TAOService(n_way=2),
             "cluster": lambda: TAOCluster(num_shards=2, n_way=2),
             "fleet": lambda: ProcessFleet(num_workers=2, n_way=2)}[tier]()
    with front:
        front.register_model(mlp_graph, threshold_table=mlp_thresholds)
        returned = []
        for batch in range(2):
            ids = [front.submit(mlp_graph.name, mlp_input_factory(300 + 10 * batch + i),
                                force_challenge=(i == 0))
                   for i in range(4)]
            views = front.process()
            assert sorted(view.request_id for view in views) == ids
            (completed,) = {view.completed_s for view in views}
            for view in views:
                assert view is front.request(view.request_id)
                assert view.status in TERMINAL
                assert view.submitted_s <= completed
                assert view.latency_s == completed - view.submitted_s
                assert view.inputs == {}
                assert view.report.result.commitment.value   # the receipt stays
            returned += views

        latencies = [view.latency_s for view in returned]
        digest = front.stats().latency
        assert digest.count == len(returned) == 8
        assert digest.observed_min == min(latencies)
        assert digest.observed_max == max(latencies)


# ----------------------------------------------------------------------
# Result-cache LRU bound (regression: eviction must run on every insert)
# ----------------------------------------------------------------------

def test_result_cache_bound_holds_under_mixed_traffic(mlp_graph, mlp_thresholds,
                                                      mlp_input_factory):
    """``len(result_cache) <= result_cache_size`` throughout hit/miss storms.

    Every insert path must evict: a cache touched by hits (``move_to_end``)
    but grown past its bound by inserts would pin unboundedly many recorded
    traces.  The traffic mixes cross-cycle hits, in-cycle duplicates and a
    rotating miss set larger than the cache, across many multi-cycle
    drains.
    """
    bound = 3
    service = TAOService(n_way=2, result_cache_size=bound, cycle_capacity=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    entry = service.model("tiny_mlp")

    for wave in range(8):
        for i in range(6):
            seed = 800 + (wave * 3 + i) % 9   # 9 distinct payloads > bound
            service.submit("tiny_mlp", mlp_input_factory(seed))
        service.submit("tiny_mlp", mlp_input_factory(800))  # in-cycle dupe bait
        service.process()                      # 4 cycles per drain
        assert len(entry.result_cache) <= bound, f"wave {wave}"

    stats = service.stats()
    assert stats.cache_hits > 0                 # hits really interleaved
    assert stats.requests_completed == 8 * 7
    assert len(entry.result_cache) == bound     # steady state: full, not over


def test_adopt_model_enforces_local_cache_bound(mlp_graph, mlp_thresholds,
                                                mlp_input_factory):
    """A migrated tenant's cache is trimmed to the adopting service's bound.

    ``adopt_model`` is an insert path too: the entry arrives with the source
    shard's bound, and without eviction at adoption the destination would
    hold an oversized cache until its next insert.
    """
    source = TAOService(n_way=2, result_cache_size=8)
    source.register_model(mlp_graph, threshold_table=mlp_thresholds)
    for i in range(5):
        source.submit("tiny_mlp", mlp_input_factory(850 + i))
    source.process()
    entry = source.model("tiny_mlp")
    assert len(entry.result_cache) == 5
    newest = list(entry.result_cache)[-2:]

    destination = TAOService(coordinator=source.coordinator, n_way=2,
                             result_cache_size=2)
    migrated = source.detach_model("tiny_mlp")
    destination.adopt_model(migrated)
    assert len(migrated.result_cache) == 2
    # LRU trim: the most recently used entries survive the migration.
    assert list(migrated.result_cache) == newest


# ----------------------------------------------------------------------
# Ragged batches: the engine's stacking fallback through the full service
# ----------------------------------------------------------------------

class _ElasticHead(Module):
    """Elementwise-only head: accepts any trailing width at execution."""

    def __init__(self) -> None:
        super().__init__()
        self.scale = Parameter(np.asarray([1.5], dtype=np.float32))

    def forward(self, x):
        return F.sigmoid(F.mul(F.relu(x), self.scale))


def _elastic_inputs(seed: int, width: int = 8) -> dict:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((4, width)).astype(np.float32)}


def test_ragged_trailing_batch_falls_back_per_request(mlp_input_factory):
    """A batch with ragged trailing shapes completes with correct verdicts.

    Every request runs alone, so one cycle may mix trailing shapes the
    graph accepts: none may crash the drain or be dropped, and each gets
    its own payload's answer.
    """
    graph = trace_module(_ElasticHead(), _elastic_inputs(0), name="elastic")
    service = TAOService(n_way=2)
    service.register_model(
        graph, calibration_inputs=[_elastic_inputs(900 + i) for i in range(8)])

    widths = [8, 8, 12, 8, 16]
    payloads = [_elastic_inputs(910 + i, width) for i, width in enumerate(widths)]
    ids = [service.submit("elastic", payload) for payload in payloads]
    processed = service.process()
    assert len(processed) == len(widths)

    for request_id, width, payload in zip(ids, widths, payloads):
        request = service.request(request_id)
        assert request.status == TaskStatus.FINALIZED.value
        assert request.report is not None
        output = request.report.result.outputs[0]
        assert output.shape == (4, width)   # the ragged payload's own answer
        expected = 1.0 / (1.0 + np.exp(-np.maximum(
            payload["x"], 0.0) * np.float32(1.5)))
        np.testing.assert_allclose(output, expected, rtol=1e-5, atol=1e-6)


def test_ragged_trailing_batch_through_cluster(mlp_input_factory):
    """The same ragged stream through a sharded, multi-cycle cluster."""
    from repro.cluster import TAOCluster

    graph = trace_module(_ElasticHead(), _elastic_inputs(0), name="elastic_c")
    cluster = TAOCluster(num_shards=2, n_way=2, cycle_capacity=2)
    cluster.register_model(
        graph, calibration_inputs=[_elastic_inputs(920 + i) for i in range(8)])
    ids = [cluster.submit("elastic_c", _elastic_inputs(930 + i, width))
           for i, width in enumerate([8, 12, 8, 16, 8])]
    cluster.process()
    for request_id in ids:
        assert cluster.request(request_id).status == TaskStatus.FINALIZED.value
    assert sum(cluster.chain.balances.values()) == cluster.chain.minted


def test_stage_failure_requeues_unprocessed_requests(mlp_graph, mlp_thresholds,
                                                     mlp_input_factory):
    """A mid-drain stage failure must not strand admitted requests.

    The drain admits all cycles up-front; if a stage raises (here: a
    transient chain failure while settling the second cycle), every request
    that never produced a chain-side effect goes back to the queue head in
    order, so a retry drain serves it exactly once — no lost requests, no
    double-submitted tasks.
    """
    service = TAOService(n_way=2, cycle_capacity=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    ids = [service.submit("tiny_mlp", mlp_input_factory(860 + i))
           for i in range(8)]

    real_submit = service.coordinator.submit_result
    state = {"calls": 0, "armed": True}

    def flaky_submit(*args, **kwargs):
        state["calls"] += 1
        if state["armed"] and state["calls"] == 3:  # second cycle's settle
            raise RuntimeError("transient chain failure")
        return real_submit(*args, **kwargs)

    service.coordinator.submit_result = flaky_submit
    with pytest.raises(RuntimeError, match="transient chain failure"):
        service.process()

    # The first cycle completed; every untouched request is queued again.
    assert service.pending_count == 6
    for request_id in ids[:2]:
        assert service.request(request_id).status in TERMINAL

    state["armed"] = False
    processed = service.process()
    # The retry returns the first cycle, which the failed drain finished
    # but could not return, then the six it served.
    assert [request.request_id for request in processed] == ids
    for request_id in ids:
        assert service.request(request_id).status in TERMINAL
    # Exactly-once: one coordinator task per request, ledger conserved.
    assert len({service.request(i).report.task.task_id for i in ids}) == 8
    chain = service.coordinator.chain
    assert sum(chain.balances.values()) == chain.minted


def test_stage_failure_marks_settled_requests_stranded(mlp_graph, mlp_thresholds,
                                                       mlp_input_factory):
    """A request settled before the failure cannot be re-run — but it must
    not be left silently ``queued`` forever either.

    Failing on the *second* submit of a cycle leaves the first request with
    a coordinator task already on chain and no dispute stage to close the
    cycle.  Re-processing would double-submit, so the service marks it
    ``stranded`` with the pending task named in ``.error``; everything that
    never reached the chain is requeued and a retry serves it normally.  The
    retry also finalizes the stranded request, which only missed its
    finalize step.
    """
    service = TAOService(n_way=2, cycle_capacity=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    ids = [service.submit("tiny_mlp", mlp_input_factory(880 + i))
           for i in range(6)]

    real_submit = service.coordinator.submit_result
    state = {"calls": 0, "armed": True}

    def flaky_submit(*args, **kwargs):
        state["calls"] += 1
        if state["armed"] and state["calls"] == 2:  # second request, cycle 1
            raise RuntimeError("transient chain failure")
        return real_submit(*args, **kwargs)

    service.coordinator.submit_result = flaky_submit
    with pytest.raises(RuntimeError, match="transient chain failure"):
        service.process()

    stranded = service.request(ids[0])
    assert stranded.status == "stranded"
    assert stranded.report is not None
    assert str(stranded.report.task.task_id) in stranded.error
    # Visible to monitoring, not just per-request inspection.
    assert service.stats().status_counts.get("stranded") == 1
    # The one the failure hit never reached the chain: requeued, not stranded.
    assert service.request(ids[1]).status == "queued"
    assert service.pending_count == 5

    state["armed"] = False
    service.process()
    for request_id in ids[1:]:
        assert service.request(request_id).status in TERMINAL
    # The stranded request looked honest and was not forced: the retry
    # drain finalized its pending task once the window had passed, and the
    # ledger stayed conserved.
    assert service.request(ids[0]).status == "finalized"
    assert service.request(ids[0]).error is None
    assert "stranded" not in service.stats().status_counts
    chain = service.coordinator.chain
    assert sum(chain.balances.values()) == chain.minted


def test_stage_failure_after_finalize_adopts_task_status(mlp_graph,
                                                         mlp_thresholds,
                                                         mlp_input_factory):
    """A failure *inside* the dispute stage must not relabel finished work.

    If try_finalize succeeds for the first request and raises for the
    second, the first request's protocol lifecycle is complete — the unwind
    adopts the task's terminal status instead of calling it stranded (and
    pointing an operator at a pending task that does not exist).
    """
    service = TAOService(n_way=2, cycle_capacity=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    first = service.submit("tiny_mlp", mlp_input_factory(890))
    second = service.submit("tiny_mlp", mlp_input_factory(891))

    real_finalize = service.coordinator.try_finalize
    state = {"calls": 0}

    def flaky_finalize(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] == 2:
            raise RuntimeError("transient chain failure")
        return real_finalize(*args, **kwargs)

    service.coordinator.try_finalize = flaky_finalize
    with pytest.raises(RuntimeError, match="transient chain failure"):
        service.process()

    assert service.request(first).status == TaskStatus.FINALIZED.value
    assert service.request(first).error is None
    stranded = service.request(second)
    assert stranded.status == "stranded"
    assert "'pending'" in stranded.error
    counts = service.stats().status_counts
    assert counts.get(TaskStatus.FINALIZED.value, 0) >= 1
    assert counts.get("stranded") == 1


def test_mixed_cycle_submission_order_is_pinned(service, mlp_module, mlp_graph,
                                                mlp_thresholds, mlp_input_factory):
    """One cycle mixing two tenants, a duplicate payload, cheats and a forced
    challenge lands on chain in a fixed order.

    Default-path requests settle first, grouped per tenant in first-seen
    order (here ``tiny_mlp_b`` arrives first), then requests with their own
    proposer in arrival order; disputes open in that submission order and
    are stepped round-robin.  The sequence is the protocol's observable
    settlement order, so it must not move under refactors of the request
    path.
    """
    service.register_model(trace_module(mlp_module, mlp_input_factory(0),
                                        name="tiny_mlp_b"),
                           threshold_table=mlp_thresholds)
    victim = _victim_operator(mlp_graph)
    cheat_a = service.model("tiny_mlp").session.make_adversarial_proposer(
        "cheat-a", {victim: np.float32(0.05)})
    cheat_b = service.model("tiny_mlp_b").session.make_adversarial_proposer(
        "cheat-b", {victim: np.float32(0.05)})
    start = len(service.coordinator.chain.transactions)
    ids = [
        service.submit("tiny_mlp_b", mlp_input_factory(610)),
        service.submit("tiny_mlp", mlp_input_factory(600)),
        service.submit("tiny_mlp_b", mlp_input_factory(602), proposer=cheat_b),
        service.submit("tiny_mlp", mlp_input_factory(603), proposer=cheat_a),
        service.submit("tiny_mlp", mlp_input_factory(600)),  # duplicate payload
        service.submit("tiny_mlp_b", mlp_input_factory(612), force_challenge=True),
        service.submit("tiny_mlp", mlp_input_factory(613)),
    ]
    service.process()

    requests = [service.request(request_id) for request_id in ids]
    assert [r.status for r in requests] == [
        "finalized", "finalized", "proposer_slashed", "proposer_slashed",
        "finalized", "challenger_slashed", "finalized"]
    assert [r.report.task.task_id for r in requests] == [0, 2, 5, 6, 3, 1, 4]
    assert [r.cache_hit for r in requests] == [False] * 4 + [True] + [False] * 2

    a, b = "tiny_mlp", "tiny_mlp_b"
    a_clone, b_clone, b_forced = f"{a}-challenger-1", f"{b}-challenger-1", f"{b}-challenger-2"
    cheat_rounds = [("post_partition", "cheat-b", None),
                    ("post_selection", b_clone, None),
                    ("post_partition", "cheat-a", None),
                    ("post_selection", a_clone, None)]
    expected = [
        ("submit_result", f"{b}-proposer", 0),
        ("submit_result", f"{b}-proposer", 1),
        ("submit_result", f"{a}-proposer", 2),
        ("submit_result", f"{a}-proposer", 3),
        ("submit_result", f"{a}-proposer", 4),
        ("submit_result", "cheat-b", 5),
        ("submit_result", "cheat-a", 6),
        ("open_dispute", b_clone, 5),
        ("open_dispute", a_clone, 6),
        ("open_dispute", b_forced, 1),
        *cheat_rounds,
        ("post_partition", f"{b}-proposer", None),
        ("slash", "coordinator", None),
        ("slash", b_forced, None),
        *cheat_rounds,
        *cheat_rounds,
        ("post_adjudication", b_clone, None),
        ("slash", "coordinator", None),
        ("post_adjudication", a_clone, None),
        ("slash", "coordinator", None),
        ("finalize", f"{b}-proposer", 0),
        ("finalize", f"{a}-proposer", 2),
        ("finalize", f"{a}-proposer", 3),
        ("finalize", f"{a}-proposer", 4),
    ]
    assert [(tx.action, tx.sender, tx.details.get("task_id"))
            for tx in service.coordinator.chain.transactions[start:]] == expected
