"""The N-way, Merkle-anchored, threshold-guided dispute game (paper Sec. 5.3).

Each round the proposer deterministically partitions the disputed operator
range into N contiguous children and posts their interface commitments; the
challenger re-executes the children from the committed live-in tensors and
selects the first child whose live-out errors exceed the calibrated
thresholds (Eq. 15); the coordinator advances the state and enforces
timeouts.  After ``O(log_N |V|)`` rounds the dispute reaches a single
operator and Phase 3 adjudication resolves it.

:class:`DisputeGame` orchestrates the exchange between role objects and the
coordinator, and collects the statistics reported in Fig. 8 and Table 3:
round counts, per-round substep latency, Merkle-proof checks, challenger
FLOPs (DCR) and on-chain gas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.fp_model import BoundMode
from repro.calibration.committee import leaf_operands
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.subgraph import SubgraphSlice
from repro.merkle.commitments import ModelCommitment
from repro.protocol.adjudication import (
    AdjudicationResult,
    committee_vote,
    route_and_adjudicate,
    theoretical_bound_check,
)
from repro.protocol.coordinator import Coordinator, PartitionEntry, TaskRecord
from repro.protocol.roles import Challenger, CommitteeMember, ProposedResult, Proposer
from repro.utils.timing import now


@dataclass
class RoundStatistics:
    """Per-round substep accounting (Fig. 8 right panel)."""

    round_index: int
    slice_start: int
    slice_end: int
    num_children: int
    selected_child: Optional[int]
    partition_time_s: float
    selection_time_s: float
    merkle_checks: int
    challenger_flops: float


@dataclass
class DisputeStatistics:
    """Aggregate dispute-game statistics (Fig. 8, Table 3)."""

    rounds: int
    dispute_time_s: float
    merkle_checks: int
    challenger_flops: float
    adjudication_flops: float
    gas_used: int
    per_round: List[RoundStatistics] = field(default_factory=list)

    @property
    def dcr_flops(self) -> float:
        """Challenger FLOPs to reach and adjudicate the leaf (the paper's DCR)."""
        return self.challenger_flops + self.adjudication_flops

    def cost_ratio(self, forward_flops: float) -> float:
        if forward_flops <= 0:
            return float("nan")
        return self.dcr_flops / forward_flops


@dataclass
class DisputeOutcome:
    """Final result of one dispute game."""

    dispute_id: int
    task_id: int
    proposer_cheated: bool
    winner: str
    localized_operator: Optional[str]
    adjudication: Optional[AdjudicationResult]
    statistics: DisputeStatistics
    resolved_by_timeout: bool = False


@dataclass
class ActiveDispute:
    """In-flight state of one dispute game (one per multiplexed dispute).

    A service keeps several of these open against the same coordinator and
    advances them round-robin via :meth:`DisputeGame.step_round`; each holds
    exactly the loop state the seed's monolithic ``run`` loop carried.
    """

    task: TaskRecord
    proposer: Proposer
    challenger: Challenger
    result: ProposedResult
    dispute: object  # coordinator DisputeRecord
    per_round: List[RoundStatistics] = field(default_factory=list)
    resolved_by_timeout: bool = False
    #: True when the dispute was settled by an input-binding fraud proof
    #: (the committed trace did not extend the committed input hash).
    input_fraud: bool = False
    #: Hash checks spent on the input-binding verification at open time
    #: (performed for every dispute, fraud or not).
    binding_checks: int = 0

    @property
    def finished(self) -> bool:
        return self.dispute.at_leaf or self.dispute.phase.value == "resolved"


class DisputeGame:
    """Drives one dispute between a proposer and a challenger via the coordinator."""

    def __init__(
        self,
        coordinator: Coordinator,
        graph_module: GraphModule,
        model_commitment: ModelCommitment,
        thresholds: ThresholdTable,
        committee: Sequence[CommitteeMember] = (),
        n_way: int = 2,
        bound_mode: BoundMode = BoundMode.PROBABILISTIC,
        leaf_path: str = "routed",
        committee_envelope=None,
    ) -> None:
        if n_way < 2:
            raise ValueError("the dispute game requires an N-way partition with N >= 2")
        if leaf_path not in ("routed", "theoretical", "committee"):
            raise ValueError(f"unknown leaf adjudication path {leaf_path!r}")
        self.coordinator = coordinator
        self.graph_module = graph_module
        self.model_commitment = model_commitment
        self.thresholds = thresholds
        self.committee = list(committee)
        self.n_way = int(n_way)
        self.bound_mode = bound_mode
        self.leaf_path = leaf_path
        #: Committed single-op acceptance envelope consulted by the
        #: committee-vote leaf paths; ``None`` keeps the reference tolerance.
        self.committee_envelope = committee_envelope

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(
        self,
        task: TaskRecord,
        proposer: Proposer,
        challenger: Challenger,
        result: ProposedResult,
    ) -> DisputeOutcome:
        """Play the dispute game for ``task`` until resolution."""
        active = self.open(task, proposer, challenger, result)
        while self.step_round(active):
            pass
        return self.conclude(active)

    def open(
        self,
        task: TaskRecord,
        proposer: Proposer,
        challenger: Challenger,
        result: ProposedResult,
    ) -> ActiveDispute:
        """Open the dispute on chain; rounds are then driven by :meth:`step_round`.

        Before any localization round the challenger checks that the
        proposer's committed trace extends the committed input hash; a
        mismatch (stale/substituted trace) is settled immediately by an
        input-binding fraud proof rather than by playing the game.
        """
        dispute = self.coordinator.open_dispute(task.task_id, challenger.name)
        active = ActiveDispute(task=task, proposer=proposer, challenger=challenger,
                               result=result, dispute=dispute)
        bound, checks = challenger.verify_input_binding(result)
        active.binding_checks = checks
        if not bound:
            self.coordinator.post_input_binding_fraud(dispute.dispute_id,
                                                      challenger.name)
            active.input_fraud = True
        return active

    def step_round(self, active: ActiveDispute) -> bool:
        """Play one partition/selection round; returns True while rounds remain.

        Disputes over a shared coordinator are independent between rounds, so
        a service can interleave ``step_round`` calls across many active
        disputes (multiplexed dispute games) and reach the same outcome as
        running each game to completion back to back.
        """
        dispute = active.dispute
        if active.finished:
            return False
        proposer, challenger, result = active.proposer, active.challenger, active.result

        # Liveness faults: either party may stall before its move.  Time
        # advances on chain; a stall at or beyond the round timeout lets the
        # counterparty enforce it, forfeiting the dispute.
        if self._stall(active, proposer.move_delay_s(dispute.round_index),
                       enforcer=challenger.name):
            return False

        slice_ = SubgraphSlice(dispute.current_start, dispute.current_end)
        started = now()
        records = proposer.partition(
            self.graph_module, self.model_commitment, result, slice_, self.n_way
        )
        partition_time = now() - started

        entries = [
            PartitionEntry(r.slice_start, r.slice_end, r.h_in, r.h_out) for r in records
        ]
        onchain_bytes = 16 + 80 * len(entries)
        self.coordinator.post_partition(dispute.dispute_id, proposer.name, entries,
                                        payload_bytes=onchain_bytes)

        started = now()
        outcome = challenger.select_offending(
            self.graph_module, self.model_commitment, records
        )
        selection_time = now() - started

        active.per_round.append(RoundStatistics(
            round_index=dispute.round_index,
            slice_start=slice_.start,
            slice_end=slice_.end,
            num_children=len(records),
            selected_child=outcome.selected_index,
            partition_time_s=partition_time,
            selection_time_s=selection_time,
            merkle_checks=outcome.merkle_checks,
            challenger_flops=outcome.flops,
        ))

        if outcome.selected_index is None:
            # No child exceeds the thresholds: the challenger cannot make
            # progress and (per protocol) loses the round by timing out.
            self.coordinator.chain.advance_time(self.coordinator.round_timeout_s + 1.0)
            self.coordinator.enforce_timeout(dispute.dispute_id, active.challenger.name)
            active.resolved_by_timeout = True
            return False
        if self._stall(active, challenger.move_delay_s(dispute.round_index),
                       enforcer=proposer.name):
            return False
        self.coordinator.post_selection(dispute.dispute_id, active.challenger.name,
                                        outcome.selected_index)
        return not active.finished

    def _stall(self, active: ActiveDispute, delay_s: float, enforcer: str) -> bool:
        """Advance chain time by a party's stall; returns True when it forfeits.

        A delay below the round timeout is merely late (the move still
        lands); at or beyond it the counterparty enforces the timeout and the
        stalled party loses whichever phase the dispute is awaiting.
        """
        if delay_s <= 0:
            return False
        self.coordinator.chain.advance_time(float(delay_s))
        loser = self.coordinator.enforce_timeout(active.dispute.dispute_id, enforcer)
        if loser is None:
            return False
        active.resolved_by_timeout = True
        return True

    def conclude(self, active: ActiveDispute) -> DisputeOutcome:
        """Adjudicate the localized leaf (if reached) and settle the outcome."""
        dispute = active.dispute
        task, challenger, result = active.task, active.challenger, active.result
        adjudication: Optional[AdjudicationResult] = None
        localized_operator: Optional[str] = None
        adjudication_flops = 0.0

        if dispute.phase.value == "await_adjudication":
            localized_operator, operand_values, proposer_output = self._leaf_state(result, dispute)
            adjudication = self._adjudicate(localized_operator, operand_values,
                                            proposer_output, challenger)
            adjudication_flops = adjudication.flops
            self.coordinator.post_adjudication(
                dispute.dispute_id, challenger.name,
                proposer_cheated=adjudication.proposer_cheated,
                path=adjudication.path,
                details=dict(adjudication.details),
            )

        per_round = active.per_round
        statistics = DisputeStatistics(
            rounds=len(per_round),
            dispute_time_s=sum(r.partition_time_s + r.selection_time_s for r in per_round),
            merkle_checks=active.binding_checks + sum(r.merkle_checks for r in per_round),
            challenger_flops=sum((r.challenger_flops for r in per_round), 0.0),
            adjudication_flops=adjudication_flops,
            gas_used=dispute.gas_used,
            per_round=per_round,
        )
        task_record = self.coordinator.task(task.task_id)
        proposer_cheated = task_record.status.value == "proposer_slashed"
        winner = challenger.name if proposer_cheated else active.proposer.name
        return DisputeOutcome(
            dispute_id=dispute.dispute_id,
            task_id=task.task_id,
            proposer_cheated=proposer_cheated,
            winner=winner,
            localized_operator=localized_operator,
            adjudication=adjudication,
            statistics=statistics,
            resolved_by_timeout=active.resolved_by_timeout,
        )

    # ------------------------------------------------------------------
    # Leaf handling
    # ------------------------------------------------------------------

    def _leaf_state(self, result: ProposedResult, dispute) -> Tuple[str, List[np.ndarray], np.ndarray]:
        """Resolve the localized operator, its agreed inputs and the claimed output.

        The inputs come from the proposer's committed trace: by construction
        of the selection rule, every value upstream of the localized operator
        has been implicitly accepted by the challenger.
        """
        operator = self.graph_module.graph.operators[dispute.current_start]
        operand_values = leaf_operands(self.graph_module, operator, result.trace_values)
        proposer_output = np.asarray(result.trace_values[operator.name])
        return operator.name, operand_values, proposer_output

    def _adjudicate(self, operator_name: str, operand_values: Sequence[np.ndarray],
                    proposer_output: np.ndarray, challenger: Challenger) -> AdjudicationResult:
        if self.leaf_path == "theoretical":
            return theoretical_bound_check(
                self.graph_module, operator_name, operand_values, proposer_output,
                device=challenger.device, mode=self.bound_mode,
            )
        if self.leaf_path == "committee":
            return committee_vote(
                self.graph_module, operator_name, operand_values, proposer_output,
                self.committee, self.thresholds,
                committee_envelope=self.committee_envelope,
            )
        return route_and_adjudicate(
            self.graph_module, operator_name, operand_values, proposer_output,
            challenger_device=challenger.device, committee=self.committee,
            thresholds=self.thresholds, mode=self.bound_mode,
            committee_envelope=self.committee_envelope,
        )
