"""Coordinator state machine (the paper's smart-contract layer).

The coordinator records commitments, manages challenge windows and per-round
dispute timeouts, escrows bonds, and enforces payments/slashing when disputes
resolve.  Every state transition is a metered transaction on the simulated
chain, which is how the reproduction accounts on-chain cost (Table 3's kgas
column).

Only commitments, hashes, indices and verdicts go on chain; tensors are
exchanged off-chain between proposer and challenger (bound to the chain by
their hashes inside the subgraph records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.merkle.commitments import ExecutionCommitment, ModelCommitment
from repro.protocol.chain import SimulatedChain


class CoordinatorError(RuntimeError):
    """Raised when a protocol message violates the coordinator's state machine."""


class TaskStatus(str, Enum):
    PENDING = "pending"                  # submitted, challenge window open
    FINALIZED = "finalized"              # window elapsed or dispute won by proposer
    DISPUTED = "disputed"                # a dispute game is in progress
    PROPOSER_SLASHED = "proposer_slashed"  # dispute lost by the proposer
    CHALLENGER_SLASHED = "challenger_slashed"  # dispute lost by the challenger


class DisputePhase(str, Enum):
    AWAIT_PARTITION = "await_partition"
    AWAIT_SELECTION = "await_selection"
    AWAIT_ADJUDICATION = "await_adjudication"
    RESOLVED = "resolved"


#: Escrow holds every open task's fee and bonds (empty once all are
#: terminal: the simulator's C4); burn takes a slash's burned share.
ESCROW_ACCOUNT = "coordinator-escrow"
BURN_ACCOUNT = "coordinator-burn"

#: Spec-state names (``repro.spec.machine``) for the open dispute phases,
#: used by the write-ahead journal entries.
_PHASE_SPEC_STATE = {
    DisputePhase.AWAIT_PARTITION: "dispute_partition",
    DisputePhase.AWAIT_SELECTION: "dispute_selection",
    DisputePhase.AWAIT_ADJUDICATION: "dispute_adjudication",
}


@dataclass
class TaskRecord:
    """One execution request tracked by the coordinator."""

    task_id: int
    model_name: str
    user: str
    proposer: str
    commitment: ExecutionCommitment
    fee: float
    proposer_bond: float
    submitted_at: float
    challenge_window_s: float
    status: TaskStatus = TaskStatus.PENDING
    dispute_id: Optional[int] = None

    @property
    def challenge_deadline(self) -> float:
        return self.submitted_at + self.challenge_window_s


@dataclass
class PartitionEntry:
    """On-chain content of one child in a partition message."""

    slice_start: int
    slice_end: int
    h_in: bytes
    h_out: bytes


@dataclass
class DisputeRecord:
    """State of one dispute game."""

    dispute_id: int
    task_id: int
    challenger: str
    challenger_bond: float
    current_start: int
    current_end: int
    round_index: int = 0
    phase: DisputePhase = DisputePhase.AWAIT_PARTITION
    partitions: List[List[PartitionEntry]] = field(default_factory=list)
    selections: List[int] = field(default_factory=list)
    last_action_at: float = 0.0
    winner: Optional[str] = None
    adjudication_path: Optional[str] = None
    adjudication_details: Dict[str, object] = field(default_factory=dict)
    #: Gas of every transaction this game has posted, by action, summed as
    #: each posts (:meth:`Coordinator._post_dispute_tx`).
    gas_by_action: Dict[str, int] = field(default_factory=dict)

    @property
    def gas_used(self) -> int:
        return sum(self.gas_by_action.values())

    @property
    def current_size(self) -> int:
        return self.current_end - self.current_start

    @property
    def at_leaf(self) -> bool:
        return self.current_size == 1


class Coordinator:
    """The authenticated coordination service (contract analogue)."""

    def __init__(
        self,
        chain: Optional[SimulatedChain] = None,
        challenge_window_s: float = 3600.0,
        round_timeout_s: float = 600.0,
        proposer_bond: float = 100.0,
        challenger_bond: float = 50.0,
        challenger_reward_share: float = 0.5,
    ) -> None:
        self.chain = chain or SimulatedChain()
        self.challenge_window_s = float(challenge_window_s)
        self.round_timeout_s = float(round_timeout_s)
        self.default_proposer_bond = float(proposer_bond)
        self.default_challenger_bond = float(challenger_bond)
        self.challenger_reward_share = float(challenger_reward_share)

        self.models: Dict[str, ModelCommitment] = {}
        self.tasks: Dict[int, TaskRecord] = {}
        self.disputes: Dict[int, DisputeRecord] = {}
        #: Optional write-ahead journal sink.  When set, every state
        #: transition emits a ``(state, event)`` record — matching the
        #: executable spec in ``repro.spec.machine`` — *before* the first
        #: chain mutation of that transition, so a journal replayed after a
        #: crash always covers at least as much protocol progress as the
        #: chain recorded.  Shard workers point this at their RPC channel.
        self.journal: Optional[Callable[[Dict[str, object]], None]] = None

    def _journal_entry(self, **entry: object) -> None:
        if self.journal is not None:
            self.journal(dict(entry))

    # ------------------------------------------------------------------
    # Phase 0: model registration
    # ------------------------------------------------------------------

    def register_model(self, commitment: ModelCommitment, owner: str) -> None:
        if commitment.model_name in self.models:
            raise CoordinatorError(f"model {commitment.model_name!r} already registered")
        self._journal_entry(event="register", model=commitment.model_name)
        self.models[commitment.model_name] = commitment.public_view()
        self.chain.submit(
            owner, "register_model",
            payload_bytes=32 * 3 + 64,
            storage_writes=3,
            details={"model": commitment.model_name,
                     "num_operators": commitment.num_operators},
        )

    def model(self, model_name: str) -> ModelCommitment:
        try:
            return self.models[model_name]
        except KeyError:
            raise CoordinatorError(f"model {model_name!r} is not registered") from None

    # ------------------------------------------------------------------
    # Phase 1: optimistic execution
    # ------------------------------------------------------------------

    def submit_result(
        self,
        model_name: str,
        user: str,
        proposer: str,
        commitment: ExecutionCommitment,
        fee: float,
        proposer_bond: Optional[float] = None,
    ) -> TaskRecord:
        self.model(model_name)
        bond = self.default_proposer_bond if proposer_bond is None else float(proposer_bond)
        self._journal_entry(event="submit", task=len(self.tasks),
                            state="queued", next="pending")
        try:
            # Fee and bond move together or not at all: a short proposer
            # bond must not strand the user's fee in escrow.
            self.chain.transfer_all([(user, ESCROW_ACCOUNT, float(fee)),
                                     (proposer, ESCROW_ACCOUNT, bond)])
        except ValueError as exc:
            raise CoordinatorError(f"cannot escrow task {len(self.tasks)}: {exc}") from None
        task = TaskRecord(
            task_id=len(self.tasks),
            model_name=model_name,
            user=user,
            proposer=proposer,
            commitment=commitment,
            fee=float(fee),
            proposer_bond=bond,
            submitted_at=self.chain.timestamp,
            challenge_window_s=self.challenge_window_s,
        )
        self.tasks[task.task_id] = task
        self.chain.submit(
            proposer, "submit_result",
            payload_bytes=commitment.size_bytes(),
            storage_writes=2,
            details={"task_id": task.task_id, "model": model_name},
        )
        return task

    def task(self, task_id: int) -> TaskRecord:
        try:
            return self.tasks[task_id]
        except KeyError:
            raise CoordinatorError(f"unknown task {task_id}") from None

    def try_finalize(self, task_id: int, caller: str) -> bool:
        """Finalize an unchallenged task after its window; pays the proposer."""
        task = self.task(task_id)
        if task.status is not TaskStatus.PENDING:
            return task.status is TaskStatus.FINALIZED
        if self.chain.timestamp < task.challenge_deadline:
            return False
        self._journal_entry(event="finalize", task=task_id,
                            state="pending", next="finalized")
        task.status = TaskStatus.FINALIZED
        self.chain.transfer(ESCROW_ACCOUNT, task.proposer, task.fee + task.proposer_bond)
        self.chain.submit(caller, "finalize", payload_bytes=8,
                          details={"task_id": task_id})
        return True

    # ------------------------------------------------------------------
    # Phase 2: dispute lifecycle
    # ------------------------------------------------------------------

    def open_dispute(self, task_id: int, challenger: str,
                     challenger_bond: Optional[float] = None) -> DisputeRecord:
        task = self.task(task_id)
        if task.status is not TaskStatus.PENDING:
            raise CoordinatorError(
                f"task {task_id} cannot be disputed in status {task.status.value}"
            )
        if self.chain.timestamp >= task.challenge_deadline:
            raise CoordinatorError(f"challenge window for task {task_id} has closed")
        bond = self.default_challenger_bond if challenger_bond is None else float(challenger_bond)
        num_operators = self.model(task.model_name).num_operators
        self._journal_entry(
            event="challenge", task=task_id, state="pending",
            next="dispute_adjudication" if num_operators <= 1
            else "dispute_partition")
        self.chain.transfer(challenger, ESCROW_ACCOUNT, bond)
        dispute = DisputeRecord(
            dispute_id=len(self.disputes),
            task_id=task_id,
            challenger=challenger,
            challenger_bond=bond,
            current_start=0,
            current_end=num_operators,
            last_action_at=self.chain.timestamp,
        )
        if dispute.at_leaf:
            # Degenerate single-operator graph: go straight to adjudication.
            dispute.phase = DisputePhase.AWAIT_ADJUDICATION
        self.disputes[dispute.dispute_id] = dispute
        task.status = TaskStatus.DISPUTED
        task.dispute_id = dispute.dispute_id
        self._post_dispute_tx(
            dispute, challenger, "open_dispute", payload_bytes=16, storage_writes=2,
            details={"task_id": task_id, "dispute_id": dispute.dispute_id},
        )
        return dispute

    def dispute(self, dispute_id: int) -> DisputeRecord:
        try:
            return self.disputes[dispute_id]
        except KeyError:
            raise CoordinatorError(f"unknown dispute {dispute_id}") from None

    def _post_dispute_tx(self, dispute: DisputeRecord, sender: str, action: str,
                         **kwargs) -> None:
        """Post one of ``dispute``'s transactions and add its gas to the game."""
        gas = self.chain.submit(sender, action, **kwargs).gas_used
        dispute.gas_by_action[action] = dispute.gas_by_action.get(action, 0) + gas

    def post_partition(self, dispute_id: int, proposer: str,
                       entries: List[PartitionEntry],
                       payload_bytes: int) -> None:
        dispute = self.dispute(dispute_id)
        task = self.task(dispute.task_id)
        if proposer != task.proposer:
            raise CoordinatorError("only the task's proposer may post partitions")
        if dispute.phase is not DisputePhase.AWAIT_PARTITION:
            raise CoordinatorError(f"dispute {dispute_id} is not awaiting a partition")
        if dispute.at_leaf:
            raise CoordinatorError("dispute already localized to a single operator")
        if not entries:
            raise CoordinatorError("partition must contain at least one child")
        if entries[0].slice_start != dispute.current_start or \
                entries[-1].slice_end != dispute.current_end:
            raise CoordinatorError("partition does not cover the disputed slice")
        for prev, nxt in zip(entries, entries[1:]):
            if prev.slice_end != nxt.slice_start:
                raise CoordinatorError("partition children must be contiguous and disjoint")
        self._journal_entry(event="partition", task=dispute.task_id,
                            state="dispute_partition", next="dispute_selection")
        dispute.partitions.append(list(entries))
        dispute.phase = DisputePhase.AWAIT_SELECTION
        dispute.last_action_at = self.chain.timestamp
        self._post_dispute_tx(
            dispute, proposer, "post_partition",
            payload_bytes=payload_bytes,
            storage_writes=1,
            details={"dispute_id": dispute_id, "round": dispute.round_index,
                     "num_children": len(entries)},
        )

    def post_selection(self, dispute_id: int, challenger: str, child_index: int) -> None:
        dispute = self.dispute(dispute_id)
        if challenger != dispute.challenger:
            raise CoordinatorError("only the dispute's challenger may post selections")
        if dispute.phase is not DisputePhase.AWAIT_SELECTION:
            raise CoordinatorError(f"dispute {dispute_id} is not awaiting a selection")
        children = dispute.partitions[-1]
        if not 0 <= child_index < len(children):
            raise CoordinatorError(f"selected child {child_index} out of range")
        chosen = children[child_index]
        self._journal_entry(
            event="select", task=dispute.task_id, state="dispute_selection",
            next="dispute_adjudication"
            if chosen.slice_end - chosen.slice_start <= 1
            else "dispute_partition")
        dispute.selections.append(int(child_index))
        dispute.current_start = chosen.slice_start
        dispute.current_end = chosen.slice_end
        dispute.round_index += 1
        dispute.last_action_at = self.chain.timestamp
        dispute.phase = (
            DisputePhase.AWAIT_ADJUDICATION if dispute.at_leaf else DisputePhase.AWAIT_PARTITION
        )
        self._post_dispute_tx(
            dispute, challenger, "post_selection", payload_bytes=8,
            details={"dispute_id": dispute_id, "child": child_index,
                     "slice": [chosen.slice_start, chosen.slice_end]},
        )

    def enforce_timeout(self, dispute_id: int, caller: str) -> Optional[str]:
        """Resolve a dispute by timeout; returns the losing party name if any."""
        dispute = self.dispute(dispute_id)
        if dispute.phase is DisputePhase.RESOLVED:
            return None
        if self.chain.timestamp - dispute.last_action_at < self.round_timeout_s:
            return None
        task = self.task(dispute.task_id)
        if dispute.phase is DisputePhase.AWAIT_PARTITION:
            loser = task.proposer
            self._journal_entry(event="timeout", task=dispute.task_id,
                                state="dispute_partition",
                                next="proposer_slashed")
            self._resolve(dispute, task, proposer_cheated=True, path="timeout")
        else:
            loser = dispute.challenger
            self._journal_entry(event="timeout", task=dispute.task_id,
                                state=_PHASE_SPEC_STATE[dispute.phase],
                                next="challenger_slashed")
            self._resolve(dispute, task, proposer_cheated=False, path="timeout")
        self._post_dispute_tx(
            dispute, caller, "slash", payload_bytes=8,
            details={"dispute_id": dispute_id, "timeout_loser": loser})
        return loser

    def post_input_binding_fraud(self, dispute_id: int, challenger: str) -> None:
        """Resolve a dispute by an input-binding fraud proof.

        The execution commitment binds ``H(x)`` on chain; a proposer whose
        committed trace does not extend the committed input (a stale or
        substituted trace replayed against a fresh request) is provably
        fraudulent by a pure hash-equality check — no localization game is
        needed.  The challenger posts the mismatching placeholder hash pair
        and the coordinator slashes the proposer immediately.
        """
        dispute = self.dispute(dispute_id)
        if dispute.phase is DisputePhase.RESOLVED:
            raise CoordinatorError(f"dispute {dispute_id} is already resolved")
        if challenger != dispute.challenger:
            raise CoordinatorError(
                "only the dispute's challenger may post an input-binding proof"
            )
        task = self.task(dispute.task_id)
        self._journal_entry(event="input_fraud", task=task.task_id,
                            state=_PHASE_SPEC_STATE[dispute.phase],
                            next="proposer_slashed")
        self._post_dispute_tx(
            dispute, challenger, "prove_input_binding", payload_bytes=32 * 2 + 8,
            merkle_checks=1,
            details={"dispute_id": dispute_id, "task_id": task.task_id},
        )
        self._resolve(dispute, task, proposer_cheated=True, path="input_binding")

    # ------------------------------------------------------------------
    # Phase 3: adjudication and settlement
    # ------------------------------------------------------------------

    def post_adjudication(self, dispute_id: int, caller: str, proposer_cheated: bool,
                          path: str, details: Optional[Dict[str, object]] = None) -> None:
        dispute = self.dispute(dispute_id)
        if dispute.phase is not DisputePhase.AWAIT_ADJUDICATION:
            raise CoordinatorError(f"dispute {dispute_id} is not awaiting adjudication")
        task = self.task(dispute.task_id)
        self._journal_entry(
            event="adjudicate", task=task.task_id,
            state="dispute_adjudication",
            next="proposer_slashed" if proposer_cheated
            else "challenger_slashed")
        dispute.adjudication_path = path
        dispute.adjudication_details = dict(details or {})
        self._post_dispute_tx(
            dispute, caller, "post_adjudication", payload_bytes=64,
            details={"dispute_id": dispute_id, "path": path,
                     "proposer_cheated": proposer_cheated},
        )
        self._resolve(dispute, task, proposer_cheated=proposer_cheated, path=path)

    def _resolve(self, dispute: DisputeRecord, task: TaskRecord,
                 proposer_cheated: bool, path: str) -> None:
        dispute.phase = DisputePhase.RESOLVED
        dispute.adjudication_path = dispute.adjudication_path or path
        if proposer_cheated:
            dispute.winner = dispute.challenger
            task.status = TaskStatus.PROPOSER_SLASHED
            reward = self.challenger_reward_share * task.proposer_bond
            self.chain.transfer(ESCROW_ACCOUNT, dispute.challenger,
                                reward + dispute.challenger_bond)
            self.chain.transfer(ESCROW_ACCOUNT, BURN_ACCOUNT,
                                task.proposer_bond - reward)
            self.chain.transfer(ESCROW_ACCOUNT, task.user, task.fee)
        else:
            dispute.winner = task.proposer
            task.status = TaskStatus.CHALLENGER_SLASHED
            self.chain.transfer(ESCROW_ACCOUNT, task.proposer,
                                task.fee + task.proposer_bond + dispute.challenger_bond)
        self._post_dispute_tx(
            dispute, "coordinator", "slash", payload_bytes=32,
            details={"dispute_id": dispute.dispute_id, "winner": dispute.winner},
        )

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------

    def dispute_gas(self, dispute_id: int) -> int:
        """Gas of every transaction ``dispute_id``'s game posted.

        Each dispute transaction adds its gas to the record as it posts, so
        this reads the record, not the log: exact when several games multiplex one chain,
        and exact for coordinators sharing one log (dispute ids are only
        unique per coordinator).
        """
        return self.dispute(dispute_id).gas_used

    def dispute_gas_by_action(self, dispute_id: int) -> Dict[str, int]:
        """``dispute_gas`` split by action (a copy of the record's totals)."""
        return dict(self.dispute(dispute_id).gas_by_action)
