"""Crash-recovery from the write-ahead journal: byte-identical resumption.

A worker is SIGKILLed at each write-ahead boundary of a dispute-heavy drain
(post-journal/pre-chain, post-chain/pre-ack, mid-bisection-round), restarted
in place from its parent-held :class:`~repro.fleet.journal.ShardJournal`, and
the drain resumes.  The acceptance pin: the recovered run's verdict
fingerprint — request statuses, commitments, dispute statistics (rounds, gas,
winner, timeout bit), every account balance, the minted total, and the full
shared transaction log — is *byte-identical* (canonical codec) to an
uncrashed run, and ``sum(balances) == minted`` holds exactly.

The post-chain/pre-ack boundary doubles as the at-most-once regression: the
worker died after the parent applied a ledger mutation but before the ack
reached it, so the restarted worker re-issues that exact call — the
per-incarnation sequence ids must dedupe it against the journal instead of
applying it twice.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.fleet import ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.spec import validate_journal
from repro.utils.serialization import canonical_bytes

from test_sharded_equivalence import _victim

TERMINAL = {"finalized", "proposer_slashed", "challenger_slashed"}

#: (name, hook attribute, trigger) — where in the WAL protocol the SIGKILL
#: lands.  ``_chain_call_hook`` fires before the parent applies a nested
#: chain call (the journal frame for its transition has already landed, via
#: FIFO); ``_chain_reply_hook`` fires after apply+journal but before the ack.
BOUNDARIES = [
    ("post_journal_pre_chain", "_chain_call_hook",
     lambda m: m.get("method") == "transfer"),
    ("post_chain_pre_ack", "_chain_reply_hook",
     lambda m: m.get("method") == "submit"
     and m["args"].get("action") == "post_partition"),
    ("mid_bisection", "_chain_call_hook",
     lambda m: m.get("method") == "submit"
     and m["args"].get("action") == "post_selection"),
]


def _submit_mixed(fleet, graph, input_factory):
    """A dispute-heavy mix: honest, tampered (loses a bisection), griefed
    (honest proposer forced into a dispute), honest again."""
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


def _fingerprint(fleet, request_ids) -> bytes:
    rows = []
    for request_id in request_ids:
        request = fleet.request(request_id)
        report = request.report
        dispute = None
        if report.dispute is not None:
            outcome = report.dispute
            dispute = {
                "rounds": outcome.statistics.rounds,
                "gas": outcome.statistics.gas_used,
                "cheated": outcome.proposer_cheated,
                "winner": outcome.winner,
                "timeout": outcome.resolved_by_timeout,
            }
        rows.append({
            "status": request.status,
            "commitment": bytes(report.result.commitment.value),
            "dispute": dispute,
        })
    log = [(tx.sender, tx.action, tx.gas_used, tx.payload_bytes, tx.shard,
            tx.block, tx.timestamp) for tx in fleet.chain.transactions]
    return canonical_bytes({
        "rows": rows,
        "balances": dict(fleet.chain.balances),
        "minted": fleet.chain.minted,
        "log": log,
    })


def _drive(graph, thresholds, input_factory, boundary=None):
    """One journal-mode fleet run; ``boundary`` picks the SIGKILL point."""
    fleet = ProcessFleet(num_workers=1, n_way=2, recovery="journal")
    try:
        fleet.register_model(graph, threshold_table=thresholds)
        home = fleet.location(graph.name)
        request_ids = _submit_mixed(fleet, graph, input_factory)
        killed = []
        if boundary is not None:
            _name, attr, trigger = boundary

            def kill_once(shard_id, message):
                if not killed and trigger(message):
                    killed.append(shard_id)
                    handle = fleet.workers[shard_id]
                    os.kill(handle.process.pid, signal.SIGKILL)
                    handle.process.join(timeout=10.0)

            setattr(fleet, attr, kill_once)
        fleet.process()
        fleet._chain_call_hook = None
        fleet._chain_reply_hook = None
        for request_id in request_ids:
            assert fleet.request(request_id).status in TERMINAL
        summary = validate_journal(fleet.journal_for(home).spec_entries())
        return {
            "fingerprint": _fingerprint(fleet, request_ids),
            "balances": dict(fleet.chain.balances),
            "minted": fleet.chain.minted,
            "recoveries": fleet.recoveries,
            "killed": list(killed),
            "home": home,
            "journal": summary,
            "chain_tail": fleet.journal_for(home).chain_tail,
            "forfeits": list(fleet.forfeited_disputes),
        }
    finally:
        fleet.close()


@pytest.fixture(scope="module")
def uncrashed(mlp_graph, mlp_thresholds, mlp_input_factory):
    """The reference run every crashed run must reproduce byte-for-byte."""
    run = _drive(mlp_graph, mlp_thresholds, mlp_input_factory)
    assert run["recoveries"] == 0 and not run["killed"]
    return run


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_sigkill_at_every_wal_boundary_recovers_byte_identically(
        boundary, uncrashed, mlp_graph, mlp_thresholds, mlp_input_factory):
    run = _drive(mlp_graph, mlp_thresholds, mlp_input_factory, boundary)

    # The kill landed, the worker was restarted from its journal in place
    # (no failover, no forfeits), and the drain still terminated everything.
    assert run["killed"] == [run["home"]]
    assert run["recoveries"] == 1
    assert run["forfeits"] == []

    # The acceptance pin: verdicts, balances, minted, and the transaction
    # log are byte-identical to the uncrashed run.
    assert run["fingerprint"] == uncrashed["fingerprint"]
    assert run["balances"] == uncrashed["balances"]
    assert run["minted"] == uncrashed["minted"]
    assert sum(run["balances"].values()) == run["minted"]

    # The recovered journal is a valid spec run ending all-terminal.
    assert run["journal"].in_flight_tasks == {}
    assert run["journal"].entries_validated >= \
        uncrashed["journal"].entries_validated


def test_at_most_once_across_kill_between_mutation_and_ack(
        uncrashed, mlp_graph, mlp_thresholds, mlp_input_factory):
    """The mutation the ack never confirmed is not applied twice.

    The post-chain/pre-ack boundary is exactly the window where a naive
    retry double-spends: the parent applied ``post_partition`` (and its gas)
    but the worker died before seeing the reply.  Exact balance and
    transaction-log equality with the uncrashed run proves the restarted
    worker's re-issued call was answered from the journal, not re-applied.
    """
    run = _drive(mlp_graph, mlp_thresholds, mlp_input_factory, BOUNDARIES[1])
    assert run["killed"] and run["recoveries"] == 1
    assert run["chain_tail"] > 0
    assert run["fingerprint"] == uncrashed["fingerprint"]


def test_journal_recovery_on_a_multi_worker_fleet(mlp_graph, mlp_thresholds,
                                                  mlp_input_factory):
    """Recovery restarts the dead shard in place; other shards are untouched."""
    fleet = ProcessFleet(num_workers=3, n_way=2, recovery="journal")
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        request_ids = _submit_mixed(fleet, mlp_graph, mlp_input_factory)
        killed = []

        def kill_home_once(shard_id, message):
            if shard_id == home and not killed \
                    and message.get("method") == "transfer":
                killed.append(shard_id)
                handle = fleet.workers[shard_id]
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=10.0)

        fleet._chain_call_hook = kill_home_once
        fleet.process()
        fleet._chain_call_hook = None

        assert killed == [home]
        assert fleet.recoveries == 1
        # The model is still homed where it was: no ring re-homing happened.
        assert fleet.location(mlp_graph.name) == home
        assert fleet.workers[home].alive
        for request_id in request_ids:
            assert fleet.request(request_id).status in TERMINAL
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted
    finally:
        fleet.close()


def test_failover_mode_reports_forfeited_disputes(mlp_graph, mlp_thresholds,
                                                  mlp_input_factory):
    """Without journal recovery, in-flight disputes are forfeited by name."""
    fleet = ProcessFleet(num_workers=3, n_way=2)  # default: failover
    try:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        home = fleet.location(mlp_graph.name)
        request_ids = _submit_mixed(fleet, mlp_graph, mlp_input_factory)
        killed = []

        def kill_home_once(shard_id, message):
            if shard_id == home and not killed \
                    and message.get("method") == "submit" \
                    and message["args"].get("action") == "post_partition":
                killed.append(shard_id)
                handle = fleet.workers[shard_id]
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=10.0)

        fleet._chain_call_hook = kill_home_once
        fleet.process()
        fleet._chain_call_hook = None

        assert killed == [home]
        assert fleet.recoveries == 0
        assert fleet.forfeited_disputes, \
            "the kill landed mid-dispute; the spec journal must name it"
        for forfeit in fleet.forfeited_disputes:
            assert forfeit["shard_id"] == home
            assert forfeit["state"].startswith("dispute_")
        # Failover still terminates everything and conserves value.
        for request_id in request_ids:
            assert fleet.request(request_id).status in TERMINAL
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted
    finally:
        fleet.close()
