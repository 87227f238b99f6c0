"""The synchronous multi-cycle drain of :meth:`TAOService.process`.

A drain admits the queue in cycles of at most ``cycle_capacity`` requests
and takes each cycle through hash -> execute -> settle -> dispute before
the next one starts.  These tests pin what that order guarantees to a
client and to the chain:

* results come back in submission order, whatever the cycle cut;
* every cycle's protocol events (submit, dispute, finalize) land on the
  chain before the next cycle's first submission, in cycles of exactly the
  admitted size;
* a drain bounded by ``max_requests`` admits a queue prefix only;
* the same dispute-heavy schedule is byte-identical across repeated runs
  and reaches the same verdicts whether it is cut into many cycles or one;
* a failure in any of the four stages leaves every admitted request either
  terminal, stranded with its pending task named, or requeued in order.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Tuple

import numpy as np
import pytest

from repro.graph import trace_module
from repro.protocol import TAOService
from repro.protocol.coordinator import TaskStatus

TERMINAL = {
    TaskStatus.FINALIZED.value,
    TaskStatus.PROPOSER_SLASHED.value,
    TaskStatus.CHALLENGER_SLASHED.value,
}

NUM_TENANTS = 3
ROUNDS = 10  # requests per tenant in the dispute-heavy schedule
CYCLE_CAPACITY = 3


def _honest_service(mlp_graph, mlp_thresholds, mlp_input_factory, *,
                    count: int, cycle_capacity, first_seed: int) -> TAOService:
    service = TAOService(n_way=2, cycle_capacity=cycle_capacity)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    for i in range(count):
        service.submit("tiny_mlp", mlp_input_factory(first_seed + i))
    return service


def _submit_runs(chain) -> List[int]:
    """Lengths of the maximal runs of consecutive ``submit_result`` txs."""
    return [len(list(run)) for action, run in
            groupby(tx.action for tx in chain.transactions)
            if action == "submit_result"]


def test_multicycle_drain_returns_requests_in_submission_order(
        mlp_graph, mlp_thresholds, mlp_input_factory):
    service = _honest_service(mlp_graph, mlp_thresholds, mlp_input_factory,
                              count=8, cycle_capacity=3, first_seed=1100)
    processed = service.process()
    assert [r.request_id for r in processed] == list(range(8))
    # Honest default-path traffic is submitted in request order too.
    assert [r.report.task.task_id for r in processed] == list(range(8))
    assert all(r.status in TERMINAL for r in processed)
    assert service.pending_count == 0


def test_each_cycle_settles_on_chain_before_the_next_submits(
        mlp_graph, mlp_thresholds, mlp_input_factory):
    """Protocol events of cycle k all precede cycle k+1's first submit."""
    capacity = 2
    service = TAOService(n_way=2, cycle_capacity=capacity)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    for i in range(7):
        # Force a dispute in two different cycles so dispute rounds are
        # part of the ordering, not just submit/finalize.
        service.submit("tiny_mlp", mlp_input_factory(1120 + i),
                       force_challenge=i in (1, 4))
    processed = service.process()
    assert service.stats().disputes_opened == 2

    task_cycle = {r.report.task.task_id: r.request_id // capacity
                  for r in processed}
    cycles_on_chain = [task_cycle[tx.details["task_id"]]
                       for tx in service.coordinator.chain.transactions
                       if "task_id" in tx.details]
    assert cycles_on_chain == sorted(cycles_on_chain)
    assert set(cycles_on_chain) == {0, 1, 2, 3}
    for request in processed:
        assert request.status in TERMINAL


@pytest.mark.parametrize("capacity,expected_runs", [
    (1, [1] * 7),
    (2, [2, 2, 2, 1]),
    (3, [3, 3, 1]),
    (4, [4, 3]),
    (8, [7]),
])
def test_cycles_hold_exactly_the_admitted_requests(
        mlp_graph, mlp_thresholds, mlp_input_factory, capacity, expected_runs):
    service = _honest_service(mlp_graph, mlp_thresholds, mlp_input_factory,
                              count=7, cycle_capacity=capacity, first_seed=1140)
    service.process()
    assert _submit_runs(service.coordinator.chain) == expected_runs
    stats = service.stats()
    assert stats.requests_completed == 7
    assert set(stats.stage_busy_s) == {"hash", "execute", "settle", "dispute"}


def test_max_requests_admits_a_queue_prefix(mlp_graph, mlp_thresholds,
                                            mlp_input_factory):
    service = _honest_service(mlp_graph, mlp_thresholds, mlp_input_factory,
                              count=9, cycle_capacity=2, first_seed=1160)
    first = service.process(max_requests=5)
    assert [r.request_id for r in first] == [0, 1, 2, 3, 4]
    assert service.pending_count == 4
    assert service.request(5).status == "queued"
    assert _submit_runs(service.coordinator.chain) == [2, 2, 1]

    rest = service.process()
    assert [r.request_id for r in rest] == [5, 6, 7, 8]
    assert _submit_runs(service.coordinator.chain) == [2, 2, 1, 2, 2]
    assert service.stats().requests_completed == 9


def test_empty_drain_is_a_no_op(mlp_graph, mlp_thresholds):
    service = TAOService(n_way=2, cycle_capacity=2)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    transactions = len(service.coordinator.chain.transactions)

    assert service.process() == []
    assert service.process(max_requests=0) == []
    stats = service.stats()
    assert stats.requests_completed == 0
    assert stats.busy_cpu_s == 0.0
    assert stats.stage_busy_s == {}
    assert stats.processing_time_s == 0.0
    assert len(service.coordinator.chain.transactions) == transactions
    assert service.last_pipeline_stats is None


def test_cycle_capacity_only_tightens_the_protocol_bound():
    default = TAOService(n_way=2)
    window = default.coordinator.challenge_window_s
    block = default.coordinator.chain.block_interval_s
    protocol_cap = int(window / block / 4)
    assert default._cycle_capacity() == protocol_cap
    assert TAOService(cycle_capacity=0)._cycle_capacity() == 1
    assert TAOService(cycle_capacity=5)._cycle_capacity() == 5
    assert TAOService(cycle_capacity=protocol_cap * 10)._cycle_capacity() == \
        protocol_cap


# -- the dispute-heavy multi-tenant schedule --------------------------------


@pytest.fixture(scope="module")
def tenant_graphs(mlp_module, mlp_input_factory):
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"cycle_tenant_{i}")
            for i in range(NUM_TENANTS)]


def _schedule() -> List[Tuple[int, int, str]]:
    """Seeded (tenant, payload_seed, kind) rows; dispute-heavy by design."""
    rng = np.random.default_rng(42_2026)
    events: List[Tuple[int, int, str]] = []
    for round_index in range(ROUNDS):
        for tenant in range(NUM_TENANTS):
            roll = rng.random()
            if roll < 0.20:
                kind = "cheat"       # adversarial proposer -> dispute game
            elif roll < 0.32:
                kind = "force"       # forced challenge on an honest result
            elif roll < 0.38:
                kind = "malformed"   # rejected before touching the chain
            else:
                kind = "honest"
            payload_seed = 600 + tenant * 16 + round_index % 4  # repeats
            events.append((tenant, payload_seed, kind))
    return events


def _victim(graph) -> str:
    return next(node.name for node in graph.graph.operators
                if node.target == "relu")


def _drive(graphs, thresholds, input_factory, *, cycle_capacity) -> TAOService:
    service = TAOService(n_way=2, cycle_capacity=cycle_capacity)
    sessions = {}
    for graph in graphs:
        sessions[graph.name] = service.register_model(
            graph, threshold_table=thresholds)
    for tenant, payload_seed, kind in _schedule():
        graph = graphs[tenant]
        proposer = None
        inputs = input_factory(payload_seed)
        if kind == "cheat":
            proposer = sessions[graph.name].make_adversarial_proposer(
                f"{graph.name}-cheat-{payload_seed}",
                {_victim(graph): np.float32(0.05)},
            )
        elif kind == "malformed":
            inputs = {"x": np.zeros((4, 7), dtype=np.float32)}  # wrong d_in
        service.submit(graph.name, inputs, proposer=proposer,
                       force_challenge=(kind == "force"))
    service.process()
    return service


def _fingerprint(request) -> Tuple:
    """Everything the protocol lets a client observe about one request."""
    report = request.report
    if report is None:
        return (request.status, request.error is not None)
    dispute = report.dispute
    return (
        request.status,
        report.final_status,
        report.finalized_optimistically,
        bytes(report.result.commitment.value),
        tuple(bool(r.exceeded) for r in report.verification_reports),
        None if dispute is None else (
            dispute.proposer_cheated,
            dispute.localized_operator,
            dispute.resolved_by_timeout,
            dispute.statistics.rounds,
            dispute.statistics.gas_used,
        ),
    )


def test_multicycle_drain_is_byte_identical_across_runs(
        tenant_graphs, mlp_thresholds, mlp_input_factory):
    first = _drive(tenant_graphs, mlp_thresholds, mlp_input_factory,
                   cycle_capacity=CYCLE_CAPACITY)
    second = _drive(tenant_graphs, mlp_thresholds, mlp_input_factory,
                    cycle_capacity=CYCLE_CAPACITY)

    total = NUM_TENANTS * ROUNDS
    for request_id in range(total):
        assert _fingerprint(second.request(request_id)) == \
            _fingerprint(first.request(request_id)), f"request {request_id}"

    # Exact ledger equality: every account, every balance, the minted total.
    chain_a, chain_b = first.coordinator.chain, second.coordinator.chain
    assert dict(chain_b.balances) == dict(chain_a.balances)
    assert chain_b.minted == chain_a.minted
    assert sum(chain_b.balances.values()) == chain_b.minted
    assert [(tx.action, tx.sender, tx.gas_used) for tx in chain_b.transactions] == \
        [(tx.action, tx.sender, tx.gas_used) for tx in chain_a.transactions]

    # The workload was genuinely dispute-heavy and genuinely multi-cycle.
    stats = first.stats()
    assert stats.requests_completed == total
    assert stats.disputes_opened >= 6
    assert stats.cache_hits >= 4
    assert stats.status_counts.get("rejected", 0) >= 1
    assert len(_submit_runs(chain_a)) > 1


def test_cycle_cut_does_not_change_verdicts(tenant_graphs, mlp_thresholds,
                                            mlp_input_factory):
    """Many small cycles and one large cycle reach the same verdicts."""
    small = _drive(tenant_graphs, mlp_thresholds, mlp_input_factory,
                   cycle_capacity=CYCLE_CAPACITY)
    whole = _drive(tenant_graphs, mlp_thresholds, mlp_input_factory,
                   cycle_capacity=None)

    assert len(_submit_runs(whole.coordinator.chain)) == 1
    for request_id in range(NUM_TENANTS * ROUNDS):
        assert _fingerprint(small.request(request_id)) == \
            _fingerprint(whole.request(request_id)), f"request {request_id}"
    small_stats, whole_stats = small.stats(), whole.stats()
    for name in ("requests_submitted", "requests_completed",
                 "disputes_opened", "dispute_rounds", "status_counts"):
        assert getattr(small_stats, name) == getattr(whole_stats, name), name
    for service in (small, whole):
        chain = service.coordinator.chain
        assert sum(chain.balances.values()) == chain.minted


# -- stage failures -----------------------------------------------------------


@pytest.mark.parametrize("stage", ["hash", "execute", "settle", "dispute"])
def test_stage_failure_in_a_later_cycle_recovers(mlp_graph, mlp_thresholds,
                                                 mlp_input_factory, stage):
    """A stage raising in cycle 2 of 3: cycle 1 stays terminal, cycle 2 is
    requeued (nothing on chain yet) or stranded (already submitted), cycle 3
    is requeued, and a retry drain serves every requeued request once.  The
    retry also returns what the failed drain finished (cycle 1 and any
    stranded request), so every request is returned by exactly one drain.
    """
    capacity = 2
    service = _honest_service(mlp_graph, mlp_thresholds, mlp_input_factory,
                              count=6, cycle_capacity=capacity,
                              first_seed=1180 + 10 * len(stage))
    real_stage = getattr(service, f"_stage_{stage}")

    def flaky_stage(cycle):
        if cycle.index == 1:
            raise RuntimeError(f"{stage} failure")
        return real_stage(cycle)

    setattr(service, f"_stage_{stage}", flaky_stage)
    with pytest.raises(RuntimeError, match=f"{stage} failure"):
        service.process()

    for request_id in (0, 1):
        assert service.request(request_id).status in TERMINAL
    stranded = [i for i in (2, 3) if service.request(i).status == "stranded"]
    if stage == "dispute":
        # Settle already submitted cycle 2's tasks: re-running would
        # double-submit, so both are stranded with their pending task named.
        assert stranded == [2, 3]
        for request_id in stranded:
            request = service.request(request_id)
            assert str(request.report.task.task_id) in request.error
        assert service.stats().status_counts.get("stranded") == 2
        requeued = [4, 5]
    else:
        assert stranded == []
        requeued = [2, 3, 4, 5]
    assert service.pending_count == len(requeued)

    setattr(service, f"_stage_{stage}", real_stage)
    retried = service.process()
    assert [r.request_id for r in retried] == [0, 1] + stranded + requeued
    for request_id in requeued:
        assert service.request(request_id).status in TERMINAL
    submitted = 2 + len(stranded) + len(requeued)
    assert len(service.coordinator.tasks) == submitted
    chain = service.coordinator.chain
    assert sum(chain.balances.values()) == chain.minted
