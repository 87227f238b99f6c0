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
    assert "post_partition" in coordinator.dispute_gas_by_action(dispute.dispute_id)


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
        coordinator.model("nope")
