"""A lost false alarm is a precedent: honest traffic pays for it once.

A result-cache entry keeps the outcome of the dispute fought over its
commitment.  Once an unforced default-path dispute (standing proposer, a
clone of the standing challenger) upholds the proposer, a later hit on that
same commitment finalizes after the window: no re-trace, no challenger
clone, no dispute.  Forced challenges are always disputed; custom proposers
and challengers never set a precedent and never follow one; LRU eviction
and the slash quarantine drop it with the entry.

The false alarm is made deterministic by a threshold table with the
``softmax`` thresholds zeroed (the floor applies): the standing proposer's
and challenger's devices differ there on every payload, so every honest
claim is flagged, and every dispute over it ends with the challenger
slashed.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.calibration import ThresholdTable
from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.graph import trace_module
from repro.protocol import TAOService

from test_fleet_recovery import _fingerprint
from test_sharded_equivalence import _victim

FLAGGED_OPERATOR = "softmax"


@pytest.fixture(scope="module")
def flagging_table(mlp_thresholds):
    table = ThresholdTable.from_dict(mlp_thresholds.to_dict())
    table.abs_thresholds[FLAGGED_OPERATOR] = \
        np.zeros_like(table.abs_thresholds[FLAGGED_OPERATOR])
    table.rel_thresholds[FLAGGED_OPERATOR] = \
        np.zeros_like(table.rel_thresholds[FLAGGED_OPERATOR])
    return table


def _service(graph, table, **knobs):
    service = TAOService(n_way=2, **knobs)
    service.register_model(graph, threshold_table=table)
    return service


def _serve(service, graph, inputs, **kwargs):
    request_id = service.submit(graph.name, inputs, **kwargs)
    service.process()
    return service.request(request_id)


def _lost_false_alarm(service, graph, inputs):
    """Serve ``inputs`` once: a flagged claim whose dispute the proposer wins."""
    request = _serve(service, graph, inputs)
    assert request.report.challenged
    assert request.status == "challenger_slashed"
    assert not request.report.dispute.proposer_cheated
    return request


def _entry(service, graph, request):
    return service.model(graph.name).result_cache[
        request.report.result.commitment.input_hash]


class _Spy:
    """Counts calls to one method of the standing proposer."""

    def __init__(self, proposer, method):
        self.calls = 0
        real = getattr(proposer, method)

        def spy(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        setattr(proposer, method, spy)


def test_a_hit_after_a_lost_dispute_finalizes_without_one(
        mlp_graph, flagging_table, mlp_input_factory):
    service = _service(mlp_graph, flagging_table)
    inputs = mlp_input_factory(6100)
    first = _lost_false_alarm(service, mlp_graph, inputs)
    assert _entry(service, mlp_graph, first).upheld

    entry = service.model(mlp_graph.name)
    traces = _Spy(entry.proposer, "trace")
    executes = _Spy(entry.proposer, "execute")
    clones = entry.challenger_clones
    disputes = service.stats().disputes_opened
    chain = service.coordinator.chain
    logged = len(chain.transactions)

    hit = _serve(service, mlp_graph, inputs)
    assert hit.cache_hit
    assert hit.status == "finalized"
    assert not hit.report.challenged and hit.report.finalized_optimistically
    assert hit.report.result.commitment.value == first.report.result.commitment.value
    # The challenger's flag is still on the report; the precedent overrode it.
    assert any(report.exceeded for report in hit.report.verification_reports)
    assert (traces.calls, executes.calls) == (0, 0)
    assert entry.challenger_clones == clones
    stats = service.stats()
    assert stats.disputes_opened == disputes
    assert stats.precedent_hits == 1
    assert [tx.action for tx in chain.transactions[logged:]] == \
        ["submit_result", "finalize"]
    assert sum(chain.balances.values()) == chain.minted


def test_a_forced_hit_is_still_disputed(mlp_graph, flagging_table,
                                        mlp_input_factory):
    service = _service(mlp_graph, flagging_table)
    inputs = mlp_input_factory(6200)
    first = _lost_false_alarm(service, mlp_graph, inputs)
    forced = _serve(service, mlp_graph, inputs, force_challenge=True)
    assert forced.cache_hit and forced.report.challenged
    assert forced.status == "challenger_slashed"
    assert service.stats().precedent_hits == 0
    # The precedent stands: the next unforced hit still follows it.
    assert _entry(service, mlp_graph, first).upheld
    assert not _serve(service, mlp_graph, inputs).report.challenged


def test_a_custom_challenger_neither_sets_nor_follows_a_precedent(
        mlp_graph, flagging_table, mlp_input_factory):
    service = _service(mlp_graph, flagging_table)
    session = service.model(mlp_graph.name).session
    custom = session.make_challenger("custom-challenger")
    inputs = mlp_input_factory(6300)

    fought = _serve(service, mlp_graph, inputs, challenger=custom)
    assert fought.status == "challenger_slashed"
    assert not _entry(service, mlp_graph, fought).upheld
    # No precedent: the next default-path hit is disputed again, and
    # that dispute sets one.
    assert _lost_false_alarm(service, mlp_graph, inputs).cache_hit
    assert _entry(service, mlp_graph, fought).upheld
    # A custom challenger does not follow it either.
    again = _serve(service, mlp_graph, inputs,
                   challenger=session.make_challenger("custom-challenger-2"))
    assert again.cache_hit and again.report.challenged
    assert service.stats().precedent_hits == 0


def test_a_custom_proposer_does_not_follow_a_precedent(
        mlp_graph, flagging_table, mlp_input_factory):
    service = _service(mlp_graph, flagging_table)
    session = service.model(mlp_graph.name).session
    inputs = mlp_input_factory(6400)
    first = _lost_false_alarm(service, mlp_graph, inputs)
    custom = _serve(service, mlp_graph, inputs,
                    proposer=session.make_honest_proposer("custom-proposer"))
    assert not custom.cache_hit and custom.report.challenged
    assert custom.report.result.commitment.output_hash == \
        first.report.result.commitment.output_hash
    assert service.stats().precedent_hits == 0


def test_a_cheating_standing_proposer_sets_no_precedent(
        mlp_graph, flagging_table, mlp_input_factory):
    service = _service(mlp_graph, flagging_table)
    entry = service.model(mlp_graph.name)
    entry.proposer = entry.session.make_adversarial_proposer(
        entry.proposer.name, {_victim(mlp_graph): np.float32(0.05)})
    cheat = _serve(service, mlp_graph, mlp_input_factory(6500))
    assert cheat.report.challenged and cheat.report.dispute.proposer_cheated
    assert cheat.status == "proposer_slashed"
    assert not _entry(service, mlp_graph, cheat).upheld


def test_eviction_and_quarantine_drop_the_precedent(
        mlp_graph, flagging_table, mlp_input_factory):
    service = _service(mlp_graph, flagging_table, result_cache_size=1)
    inputs, other = mlp_input_factory(6600), mlp_input_factory(6601)

    _lost_false_alarm(service, mlp_graph, inputs)
    _lost_false_alarm(service, mlp_graph, other)  # evicts the first entry
    evicted = _lost_false_alarm(service, mlp_graph, inputs)
    assert not evicted.cache_hit

    service.quarantine_model(mlp_graph.name)
    quarantined = _lost_false_alarm(service, mlp_graph, inputs)
    assert not quarantined.cache_hit
    assert service.stats().precedent_hits == 0
    assert _serve(service, mlp_graph, inputs).status == "finalized"
    assert service.stats().precedent_hits == 1


@pytest.fixture(scope="module")
def tenant_graphs(mlp_module, mlp_input_factory):
    return [trace_module(mlp_module, mlp_input_factory(0), name=f"precedent_{i}")
            for i in range(3)]


def _sharded_run(front, graphs, table, input_factory):
    with front:
        for graph in graphs:
            front.register_model(graph, threshold_table=table)
        ids = []
        for burst in range(3):
            for index, graph in enumerate(graphs):
                for slot in range(2):
                    ids.append(front.submit(
                        graph.name, input_factory(6700 + 10 * index + slot),
                        force_challenge=(burst, slot) == (2, 1)))
            front.process()
        rows = [(front.request(i).status, front.request(i).report.challenged,
                 bytes(front.request(i).report.result.commitment.value))
                for i in ids]
        return rows, front.stats().precedent_hits, dict(front.chain.balances)


def test_fleet_and_cluster_agree(tenant_graphs, flagging_table,
                                 mlp_input_factory):
    fleet = _sharded_run(ProcessFleet(num_workers=2, n_way=2), tenant_graphs,
                         flagging_table, mlp_input_factory)
    cluster = _sharded_run(TAOCluster(num_shards=2, n_way=2), tenant_graphs,
                           flagging_table, mlp_input_factory)
    assert fleet == cluster
    rows, precedent_hits, _ = cluster
    # Burst 0 disputes each tenant's two payloads once; bursts 1 and 2
    # follow the precedents, except each tenant's one forced request.
    tenants = len(tenant_graphs)
    assert precedent_hits == 3 * tenants
    assert sum(challenged for _, challenged, _ in rows) == 3 * tenants


def _journal_run(graph, table, input_factory, kill):
    fleet = ProcessFleet(num_workers=1, n_way=2)
    try:
        fleet.register_model(graph, threshold_table=table)
        ids = [fleet.submit(graph.name, input_factory(6800))]
        fleet.process()
        killed = []

        def kill_once(shard_id, message):
            if kill and not killed and message.get("method") == "transfer_all":
                killed.append(shard_id)
                os.kill(fleet.workers[shard_id].process.pid, signal.SIGKILL)
                fleet.workers[shard_id].process.join(timeout=10.0)

        fleet._chain_call_hook = kill_once
        ids.append(fleet.submit(graph.name, input_factory(6800)))
        ids.append(fleet.submit(graph.name, input_factory(6801)))
        fleet.process()
        fleet._chain_call_hook = None
        assert fleet.recoveries == int(kill) and len(killed) == int(kill)
        hit = fleet.request(ids[1])
        assert hit.cache_hit and hit.status == "finalized"
        assert not hit.report.challenged
        assert fleet.stats().precedent_hits == 1
        return _fingerprint(fleet, ids)
    finally:
        fleet.close()


def test_journal_recovery_rebuilds_the_precedent(mlp_graph, flagging_table,
                                                 mlp_input_factory):
    uncrashed = _journal_run(mlp_graph, flagging_table, mlp_input_factory, False)
    recovered = _journal_run(mlp_graph, flagging_table, mlp_input_factory, True)
    assert recovered == uncrashed
