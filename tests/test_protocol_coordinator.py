"""Unit tests for the coordinator state machine."""

import numpy as np
import pytest

from repro.graph.interpreter import Interpreter
from repro.merkle.commitments import commit_model, make_execution_commitment
from repro.protocol.chain import ShardChainView, SimulatedChain
from repro.protocol.coordinator import (
    Coordinator,
    CoordinatorError,
    DisputePhase,
    PartitionEntry,
    TaskStatus,
)
from repro.tensorlib.device import DEVICE_FLEET

from tests.helpers import scanned_dispute_gas_by_action


@pytest.fixture()
def coordinator_setup(mlp_graph, mlp_thresholds, mlp_inputs):
    """A coordinator with a registered model and one submitted task."""
    coordinator = Coordinator(SimulatedChain(), challenge_window_s=600.0,
                              round_timeout_s=120.0)
    commitment = commit_model(mlp_graph, mlp_thresholds)
    for account in ("owner", "user", "proposer", "challenger"):
        coordinator.chain.fund(account, 10_000.0)
    coordinator.register_model(commitment, owner="owner")
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs)
    execution = make_execution_commitment(commitment, mlp_inputs, list(trace.outputs),
                                          meta={"device": DEVICE_FLEET[0].name})
    task = coordinator.submit_result("tiny_mlp", "user", "proposer", execution, fee=10.0)
    return coordinator, commitment, task


def test_register_model_twice_fails(coordinator_setup, mlp_graph, mlp_thresholds):
    coordinator, commitment, _ = coordinator_setup
    with pytest.raises(CoordinatorError):
        coordinator.register_model(commit_model(mlp_graph, mlp_thresholds), owner="owner")


def test_submit_result_requires_registered_model(coordinator_setup):
    coordinator, _, task = coordinator_setup
    with pytest.raises(CoordinatorError):
        coordinator.submit_result("unknown-model", "user", "proposer", task.commitment, fee=1.0)


def test_submission_escrows_fee_and_bond(coordinator_setup):
    coordinator, _, task = coordinator_setup
    assert coordinator.chain.balance("user") == pytest.approx(10_000.0 - task.fee)
    assert coordinator.chain.balance("proposer") == pytest.approx(10_000.0 - task.proposer_bond)


@pytest.mark.parametrize("chain_kind", ["chain", "shard_view"])
@pytest.mark.parametrize("short", ["proposer", "user"])
def test_short_escrow_moves_nothing(coordinator_setup, chain_kind, short):
    """Fee and bond escrow all-or-nothing: a short account strands nothing.

    The fee is checked (and moved) before the bond, so a short proposer
    bond is the case that used to leave the user's fee in escrow.
    """
    _, commitment, task = coordinator_setup
    chain = SimulatedChain()
    if chain_kind == "shard_view":
        chain = ShardChainView(chain, "shard-0")
    coordinator = Coordinator(chain)
    chain.fund("owner", 10_000.0)
    coordinator.register_model(commitment, owner="owner")
    chain.fund("user", 1_000.0 if short == "proposer" else 5.0)
    chain.fund("proposer", 50.0 if short == "proposer" else 1_000.0)
    before = dict(chain.balances)
    transactions = len(chain.transactions)

    with pytest.raises(CoordinatorError, match=f"insufficient balance: {short} has"):
        coordinator.submit_result("tiny_mlp", "user", "proposer", task.commitment,
                                  fee=10.0)
    assert chain.balances == before
    assert chain.balance("coordinator-escrow") == 0.0
    assert coordinator.tasks == {}
    assert len(chain.transactions) == transactions


def test_short_bond_through_a_fleet_worker_moves_nothing(mlp_graph, mlp_thresholds,
                                                         mlp_input_factory):
    """The same all-or-nothing escrow across the worker's chain proxy."""
    from repro.fleet import ProcessFleet

    with ProcessFleet(num_workers=1) as fleet:
        fleet.register_model(mlp_graph, threshold_table=mlp_thresholds)
        fleet.chain.fund("broke-proposer", 50.0)
        before = dict(fleet.chain.balances)
        fleet.submit(mlp_graph.name, mlp_input_factory(7),
                     proposer={"type": "honest", "name": "broke-proposer",
                               "fund": False})
        with pytest.raises(Exception, match="insufficient balance: broke-proposer"):
            fleet.process()
        assert fleet.chain.balances == before
        assert sum(fleet.chain.balances.values()) == fleet.chain.minted


def test_cannot_finalize_before_window(coordinator_setup):
    coordinator, _, task = coordinator_setup
    assert coordinator.try_finalize(task.task_id, caller="proposer") is False
    assert coordinator.task(task.task_id).status is TaskStatus.PENDING


def test_finalize_after_window_pays_proposer(coordinator_setup):
    coordinator, _, task = coordinator_setup
    coordinator.chain.advance_time(coordinator.challenge_window_s + 1.0)
    assert coordinator.try_finalize(task.task_id, caller="proposer") is True
    assert coordinator.task(task.task_id).status is TaskStatus.FINALIZED
    assert coordinator.chain.balance("proposer") == pytest.approx(10_000.0 + task.fee)
    # Finalizing twice is a harmless no-op.
    assert coordinator.try_finalize(task.task_id, caller="proposer") is True


def test_dispute_cannot_open_after_window(coordinator_setup):
    coordinator, _, task = coordinator_setup
    coordinator.chain.advance_time(coordinator.challenge_window_s + 1.0)
    with pytest.raises(CoordinatorError):
        coordinator.open_dispute(task.task_id, "challenger")


def test_dispute_state_machine_happy_path(coordinator_setup, mlp_graph):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    assert coordinator.task(task.task_id).status is TaskStatus.DISPUTED
    assert dispute.current_size == mlp_graph.num_operators

    # Round 0: a two-way partition, challenger selects child 1.
    mid = mlp_graph.num_operators // 2
    entries = [PartitionEntry(0, mid, b"h1", b"h2"),
               PartitionEntry(mid, mlp_graph.num_operators, b"h3", b"h4")]
    coordinator.post_partition(dispute.dispute_id, "proposer", entries, payload_bytes=160)
    assert dispute.phase is DisputePhase.AWAIT_SELECTION
    coordinator.post_selection(dispute.dispute_id, "challenger", 1)
    assert dispute.current_start == mid
    assert dispute.round_index == 1

    # Cannot post a selection when a partition is expected.
    with pytest.raises(CoordinatorError):
        coordinator.post_selection(dispute.dispute_id, "challenger", 0)


def test_partition_validation(coordinator_setup, mlp_graph):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    n = mlp_graph.num_operators
    with pytest.raises(CoordinatorError):  # wrong sender
        coordinator.post_partition(dispute.dispute_id, "challenger",
                                   [PartitionEntry(0, n, b"", b"")], payload_bytes=10)
    with pytest.raises(CoordinatorError):  # does not cover the disputed range
        coordinator.post_partition(dispute.dispute_id, "proposer",
                                   [PartitionEntry(0, n - 1, b"", b"")], payload_bytes=10)
    with pytest.raises(CoordinatorError):  # non-contiguous children
        coordinator.post_partition(dispute.dispute_id, "proposer",
                                   [PartitionEntry(0, 2, b"", b""),
                                    PartitionEntry(3, n, b"", b"")], payload_bytes=10)
    with pytest.raises(CoordinatorError):  # empty partition
        coordinator.post_partition(dispute.dispute_id, "proposer", [], payload_bytes=0)


def test_selection_validation(coordinator_setup, mlp_graph):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    n = mlp_graph.num_operators
    coordinator.post_partition(dispute.dispute_id, "proposer",
                               [PartitionEntry(0, 2, b"", b""), PartitionEntry(2, n, b"", b"")],
                               payload_bytes=80)
    with pytest.raises(CoordinatorError):  # wrong sender
        coordinator.post_selection(dispute.dispute_id, "proposer", 0)
    with pytest.raises(CoordinatorError):  # out-of-range child
        coordinator.post_selection(dispute.dispute_id, "challenger", 5)


def test_adjudication_slashes_proposer(coordinator_setup):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    # Drive the dispute to a single operator with repeated binary partitions.
    while not dispute.at_leaf:
        mid = (dispute.current_start + dispute.current_end) // 2
        entries = [PartitionEntry(dispute.current_start, mid, b"", b""),
                   PartitionEntry(mid, dispute.current_end, b"", b"")]
        coordinator.post_partition(dispute.dispute_id, "proposer", entries, payload_bytes=80)
        coordinator.post_selection(dispute.dispute_id, "challenger", 0)
    coordinator.post_adjudication(dispute.dispute_id, "challenger", proposer_cheated=True,
                                  path="theoretical_bound")
    task_record = coordinator.task(task.task_id)
    assert task_record.status is TaskStatus.PROPOSER_SLASHED
    assert dispute.winner == "challenger"
    # Challenger got its bond back plus a share of the proposer bond; the user
    # was refunded the fee.
    assert coordinator.chain.balance("challenger") > 10_000.0 - dispute.challenger_bond
    assert coordinator.chain.balance("user") == pytest.approx(10_000.0)
    assert coordinator.dispute_gas(dispute.dispute_id) > 0
    by_action = coordinator.dispute_gas_by_action(dispute.dispute_id)
    assert "post_partition" in by_action
    assert by_action == scanned_dispute_gas_by_action(coordinator, dispute.dispute_id)


def test_running_dispute_gas_on_a_shared_untagged_log(coordinator_setup):
    """Two coordinators on one bare chain both run a dispute with id 0,
    interleaved.  Each game's running total, and its split by action, is
    the gas of exactly the transactions its own coordinator posted, and the
    two totals partition the log's dispute-tagged gas.  A log scan cannot
    tell the two games apart and counts both."""
    first, commitment, task = coordinator_setup
    chain = first.chain
    second = Coordinator(chain, challenge_window_s=600.0, round_timeout_s=120.0)
    second.register_model(commitment, owner="owner")
    other = second.submit_result("tiny_mlp", "user", "proposer", task.commitment,
                                 fee=10.0)
    posted = {id(first): 0, id(second): 0}

    def post(coordinator, action, *args, **kwargs):
        start = len(chain.transactions)
        getattr(coordinator, action)(*args, **kwargs)
        posted[id(coordinator)] += sum(tx.gas_used
                                       for tx in chain.transactions[start:])

    games = [(first, task), (second, other)]
    for coordinator, record in games:
        post(coordinator, "open_dispute", record.task_id, "challenger")
    assert [coordinator.tasks[record.task_id].dispute_id
            for coordinator, record in games] == [0, 0]
    for _ in range(2):
        for coordinator, _record in games:
            dispute = coordinator.dispute(0)
            mid = (dispute.current_start + dispute.current_end) // 2
            post(coordinator, "post_partition", 0, "proposer",
                 [PartitionEntry(dispute.current_start, mid, b"", b""),
                  PartitionEntry(mid, dispute.current_end, b"", b"")],
                 payload_bytes=80 if coordinator is first else 160)
            post(coordinator, "post_selection", 0, "challenger", 0)
    post(first, "post_input_binding_fraud", 0, "challenger")
    chain.advance_time(121.0)
    post(second, "enforce_timeout", 0, "proposer")

    assert first.dispute_gas(0) == posted[id(first)]
    assert second.dispute_gas(0) == posted[id(second)]
    assert first.dispute_gas(0) != second.dispute_gas(0)
    assert first.dispute_gas(0) + second.dispute_gas(0) == sum(
        tx.gas_used for tx in chain.transactions
        if tx.details.get("dispute_id") is not None)
    for coordinator in (first, second):
        assert sum(coordinator.dispute_gas_by_action(0).values()) == \
            coordinator.dispute_gas(0)
        assert sum(scanned_dispute_gas_by_action(coordinator, 0).values()) == \
            first.dispute_gas(0) + second.dispute_gas(0)


# ----------------------------------------------------------------------
# Running dispute gas: one accumulator per game, fed as each action posts
# ----------------------------------------------------------------------

def _bisect_once(coordinator, dispute, child=0):
    mid = (dispute.current_start + dispute.current_end) // 2
    coordinator.post_partition(
        dispute.dispute_id, "proposer",
        [PartitionEntry(dispute.current_start, mid, b"", b""),
         PartitionEntry(mid, dispute.current_end, b"", b"")],
        payload_bytes=80)
    coordinator.post_selection(dispute.dispute_id, "challenger", child)


def _to_leaf(coordinator, dispute):
    while not dispute.at_leaf:
        _bisect_once(coordinator, dispute)


def _end_by_adjudication(cheated):
    def end(coordinator, dispute):
        _to_leaf(coordinator, dispute)
        coordinator.post_adjudication(dispute.dispute_id, "challenger",
                                      proposer_cheated=cheated,
                                      path="theoretical_bound")
    return end


def _end_by_input_binding(coordinator, dispute):
    coordinator.post_input_binding_fraud(dispute.dispute_id, "challenger")


def _end_by_partition_timeout(coordinator, dispute):
    coordinator.chain.advance_time(coordinator.round_timeout_s + 1.0)
    assert coordinator.enforce_timeout(dispute.dispute_id, "challenger") == "proposer"


def _end_by_selection_timeout(coordinator, dispute):
    mid = (dispute.current_start + dispute.current_end) // 2
    coordinator.post_partition(
        dispute.dispute_id, "proposer",
        [PartitionEntry(dispute.current_start, mid, b"", b""),
         PartitionEntry(mid, dispute.current_end, b"", b"")],
        payload_bytes=80)
    coordinator.chain.advance_time(coordinator.round_timeout_s + 1.0)
    assert coordinator.enforce_timeout(dispute.dispute_id, "proposer") == "challenger"


ENDINGS = {
    "adjudicated_cheat": (_end_by_adjudication(True),
                          {"open_dispute", "post_partition", "post_selection",
                           "post_adjudication", "slash"},
                          TaskStatus.PROPOSER_SLASHED),
    "adjudicated_clear": (_end_by_adjudication(False),
                          {"open_dispute", "post_partition", "post_selection",
                           "post_adjudication", "slash"},
                          TaskStatus.CHALLENGER_SLASHED),
    "input_binding": (_end_by_input_binding,
                      {"open_dispute", "prove_input_binding", "slash"},
                      TaskStatus.PROPOSER_SLASHED),
    "partition_timeout": (_end_by_partition_timeout,
                          {"open_dispute", "slash"},
                          TaskStatus.PROPOSER_SLASHED),
    "selection_timeout": (_end_by_selection_timeout,
                          {"open_dispute", "post_partition", "slash"},
                          TaskStatus.CHALLENGER_SLASHED),
}


def test_running_gas_starts_with_the_open_transaction(coordinator_setup):
    coordinator, _, task = coordinator_setup
    start = len(coordinator.chain.transactions)
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    opened = coordinator.chain.transactions[start:]
    assert [tx.action for tx in opened] == ["open_dispute"]
    assert dispute.gas_used == opened[0].gas_used > 0
    assert coordinator.dispute_gas(dispute.dispute_id) == dispute.gas_used
    assert coordinator.dispute_gas_by_action(dispute.dispute_id) == \
        scanned_dispute_gas_by_action(coordinator, dispute.dispute_id) == \
        {"open_dispute": opened[0].gas_used}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_running_gas_follows_every_ending(coordinator_setup, ending):
    """However a game ends, its running total is the gas of every
    transaction posted from the opening on (the coordinator's own slash
    included), and its split by action equals a scan of the log."""
    end, actions, status = ENDINGS[ending]
    coordinator, _, task = coordinator_setup
    start = len(coordinator.chain.transactions)
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    end(coordinator, dispute)

    assert dispute.phase is DisputePhase.RESOLVED
    assert coordinator.task(task.task_id).status is status
    posted = coordinator.chain.transactions[start:]
    assert all(tx.details.get("dispute_id") == dispute.dispute_id for tx in posted)
    by_action = coordinator.dispute_gas_by_action(dispute.dispute_id)
    assert by_action == scanned_dispute_gas_by_action(coordinator, dispute.dispute_id)
    assert set(by_action) == actions
    assert coordinator.dispute_gas(dispute.dispute_id) == \
        sum(tx.gas_used for tx in posted) == sum(by_action.values())


def test_running_gas_skips_untagged_transactions(coordinator_setup):
    """A task submitted and finalized while a game is open posts untagged
    transactions between the game's own; none of them reach its total."""
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    _bisect_once(coordinator, dispute)
    other = coordinator.submit_result("tiny_mlp", "user", "proposer",
                                      task.commitment, fee=10.0)
    coordinator.chain.advance_time(coordinator.challenge_window_s + 1.0)
    assert coordinator.try_finalize(other.task_id, caller="proposer")
    _to_leaf(coordinator, dispute)
    coordinator.post_adjudication(dispute.dispute_id, "challenger",
                                  proposer_cheated=True, path="theoretical_bound")

    untagged = [tx for tx in coordinator.chain.transactions
                if tx.details.get("dispute_id") is None]
    assert {"finalize"} <= {tx.action for tx in untagged}
    tagged = sum(tx.gas_used for tx in coordinator.chain.transactions
                 if tx.details.get("dispute_id") == dispute.dispute_id)
    assert coordinator.dispute_gas(dispute.dispute_id) == tagged
    assert tagged + sum(tx.gas_used for tx in untagged) == \
        coordinator.chain.total_gas()


def test_refused_actions_add_no_gas(coordinator_setup, mlp_graph):
    """An action the state machine refuses posts nothing, so the total
    does not move."""
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    n = mlp_graph.num_operators
    gas, transactions = dispute.gas_used, len(coordinator.chain.transactions)
    refused = [
        lambda: coordinator.post_selection(dispute.dispute_id, "challenger", 0),
        lambda: coordinator.post_partition(dispute.dispute_id, "challenger",
                                           [PartitionEntry(0, n, b"", b"")],
                                           payload_bytes=10),
        lambda: coordinator.post_partition(dispute.dispute_id, "proposer", [],
                                           payload_bytes=0),
        lambda: coordinator.post_adjudication(dispute.dispute_id, "challenger",
                                              proposer_cheated=True,
                                              path="theoretical_bound"),
        lambda: coordinator.post_input_binding_fraud(dispute.dispute_id, "proposer"),
    ]
    for action in refused:
        with pytest.raises(CoordinatorError):
            action()
    assert dispute.gas_used == gas
    assert len(coordinator.chain.transactions) == transactions
    # An early timeout call is a no-op, not a refusal: still nothing posted.
    assert coordinator.enforce_timeout(dispute.dispute_id, caller="anyone") is None
    assert dispute.gas_used == gas
    assert len(coordinator.chain.transactions) == transactions


def test_running_gas_is_frozen_once_resolved(coordinator_setup):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    coordinator.post_input_binding_fraud(dispute.dispute_id, "challenger")
    gas, transactions = dispute.gas_used, len(coordinator.chain.transactions)
    coordinator.chain.advance_time(coordinator.round_timeout_s + 1.0)
    assert coordinator.enforce_timeout(dispute.dispute_id, caller="anyone") is None
    with pytest.raises(CoordinatorError, match="already resolved"):
        coordinator.post_input_binding_fraud(dispute.dispute_id, "challenger")
    with pytest.raises(CoordinatorError):
        coordinator.post_adjudication(dispute.dispute_id, "challenger",
                                      proposer_cheated=True, path="theoretical_bound")
    assert dispute.gas_used == gas
    assert len(coordinator.chain.transactions) == transactions


def test_interleaved_disputes_on_one_coordinator(coordinator_setup):
    """Two games multiplexed on one coordinator, moves alternating: each
    total is its own game's, and together they are the log's tagged gas."""
    coordinator, _, task = coordinator_setup
    other = coordinator.submit_result("tiny_mlp", "user", "proposer",
                                      task.commitment, fee=10.0)
    games = [coordinator.open_dispute(record.task_id, "challenger")
             for record in (task, other)]
    assert [game.dispute_id for game in games] == [0, 1]
    while not all(game.at_leaf for game in games):
        for child, game in enumerate(games):
            if not game.at_leaf:
                _bisect_once(coordinator, game, child)
    for cheated, game in zip((True, False), games):
        coordinator.post_adjudication(game.dispute_id, "challenger",
                                      proposer_cheated=cheated,
                                      path="theoretical_bound")

    for game in games:
        assert coordinator.dispute_gas(game.dispute_id) == sum(
            tx.gas_used for tx in coordinator.chain.transactions
            if tx.details.get("dispute_id") == game.dispute_id)
    assert sum(game.gas_used for game in games) == sum(
        tx.gas_used for tx in coordinator.chain.transactions
        if tx.details.get("dispute_id") is not None)


def test_running_gas_on_shard_views_of_one_ledger(mlp_graph, mlp_thresholds,
                                                  mlp_inputs):
    """Two shard coordinators reuse dispute id 0 on one ledger; a log scan
    separates them by shard tag, and each running split equals its scan."""
    ledger = SimulatedChain()
    commitment = commit_model(mlp_graph, mlp_thresholds)
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs)
    execution = make_execution_commitment(commitment, mlp_inputs, list(trace.outputs),
                                          meta={"device": DEVICE_FLEET[0].name})
    for account in ("owner", "user", "proposer", "challenger"):
        ledger.fund(account, 10_000.0)
    coordinators = []
    for shard_id in ("shard-0", "shard-1"):
        coordinator = Coordinator(ShardChainView(ledger, shard_id),
                                  challenge_window_s=600.0, round_timeout_s=120.0)
        coordinator.register_model(commitment, owner="owner")
        task = coordinator.submit_result("tiny_mlp", "user", "proposer",
                                         execution, fee=10.0)
        coordinator.open_dispute(task.task_id, "challenger")
        coordinators.append(coordinator)
    first, second = coordinators
    _to_leaf(first, first.dispute(0))
    _bisect_once(second, second.dispute(0))
    first.post_adjudication(0, "challenger", proposer_cheated=True,
                            path="theoretical_bound")
    second.post_input_binding_fraud(0, "challenger")

    for coordinator in coordinators:
        shard_id = coordinator.chain.shard_id
        assert coordinator.dispute_gas_by_action(0) == \
            scanned_dispute_gas_by_action(coordinator, 0)
        assert coordinator.dispute_gas(0) == \
            sum(coordinator.dispute_gas_by_action(0).values()) == sum(
                tx.gas_used for tx in ledger.transactions
                if tx.shard == shard_id and tx.details.get("dispute_id") == 0)
    assert first.dispute_gas(0) != second.dispute_gas(0)


def test_adjudication_can_clear_proposer(coordinator_setup):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    while not dispute.at_leaf:
        mid = (dispute.current_start + dispute.current_end) // 2
        coordinator.post_partition(
            dispute.dispute_id, "proposer",
            [PartitionEntry(dispute.current_start, mid, b"", b""),
             PartitionEntry(mid, dispute.current_end, b"", b"")],
            payload_bytes=80,
        )
        coordinator.post_selection(dispute.dispute_id, "challenger", 1)
    coordinator.post_adjudication(dispute.dispute_id, "challenger", proposer_cheated=False,
                                  path="committee_vote")
    assert coordinator.task(task.task_id).status is TaskStatus.CHALLENGER_SLASHED
    # Proposer recovers fee + own bond + the challenger's bond.
    assert coordinator.chain.balance("proposer") == pytest.approx(
        10_000.0 + task.fee + dispute.challenger_bond)


def test_timeout_resolution(coordinator_setup):
    coordinator, _, task = coordinator_setup
    dispute = coordinator.open_dispute(task.task_id, "challenger")
    # Nothing happens until the timeout elapses.
    assert coordinator.enforce_timeout(dispute.dispute_id, caller="anyone") is None
    coordinator.chain.advance_time(coordinator.round_timeout_s + 1.0)
    loser = coordinator.enforce_timeout(dispute.dispute_id, caller="anyone")
    assert loser == "proposer"  # it was the proposer's turn to post a partition
    assert coordinator.task(task.task_id).status is TaskStatus.PROPOSER_SLASHED


def test_unknown_ids_raise(coordinator_setup):
    coordinator, _, _ = coordinator_setup
    with pytest.raises(CoordinatorError):
        coordinator.task(999)
    with pytest.raises(CoordinatorError):
        coordinator.dispute(999)
    with pytest.raises(CoordinatorError):
        coordinator.dispute_gas(999)
    with pytest.raises(CoordinatorError):
        coordinator.dispute_gas_by_action(999)
    with pytest.raises(CoordinatorError):
        coordinator.model("nope")
