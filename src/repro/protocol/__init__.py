"""The TAO protocol layer (paper Secs. 2 and 5).

This package contains the coordination substrate (a gas-metered simulated
ledger standing in for the paper's Ethereum Holesky deployment), the
coordinator state machine, the protocol roles (proposer, challenger,
committee), the N-way threshold-guided dispute game, leaf adjudication, the
economic/incentive model, and an analytic zkML cost baseline used for the
Sec. 6.3 comparison.
"""

from repro.protocol.chain import GasSchedule, ShardChainView, SimulatedChain, Transaction
from repro.protocol.coordinator import (
    Coordinator,
    CoordinatorError,
    DisputeRecord,
    TaskRecord,
    TaskStatus,
)
from repro.protocol.roles import (
    Challenger,
    CommitteeMember,
    HonestProposer,
    AdversarialProposer,
    ProposedResult,
    Proposer,
    User,
)
from repro.protocol.dispute import DisputeGame, DisputeOutcome, DisputeStatistics
from repro.protocol.adjudication import (
    AdjudicationDecision,
    AdjudicationResult,
    committee_vote,
    route_and_adjudicate,
    theoretical_bound_check,
)
from repro.protocol.economics import (
    EconomicParameters,
    IncentiveAnalysis,
    analyze_incentives,
    detection_probability,
    feasible_slash_region,
)
from repro.protocol.multistep import (
    MultiStepDispute,
    MultiStepOutcome,
    TemporalCommitment,
    commit_step_chain,
    find_earliest_offending_step,
    hash_seeded_tie_break,
    lexicographic_tie_break,
)
from repro.protocol.zk_baseline import ZkProverModel, ZkCostEstimate, compare_with_tao
from repro.protocol.lifecycle import TAOSession, SessionReport
from repro.protocol.service import ServiceCore, ServiceRequest, ServiceStats, TAOService

__all__ = [
    "GasSchedule",
    "ShardChainView",
    "SimulatedChain",
    "Transaction",
    "Coordinator",
    "CoordinatorError",
    "DisputeRecord",
    "TaskRecord",
    "TaskStatus",
    "Challenger",
    "CommitteeMember",
    "HonestProposer",
    "AdversarialProposer",
    "ProposedResult",
    "Proposer",
    "User",
    "DisputeGame",
    "DisputeOutcome",
    "DisputeStatistics",
    "AdjudicationDecision",
    "AdjudicationResult",
    "committee_vote",
    "route_and_adjudicate",
    "theoretical_bound_check",
    "EconomicParameters",
    "IncentiveAnalysis",
    "analyze_incentives",
    "detection_probability",
    "feasible_slash_region",
    "MultiStepDispute",
    "MultiStepOutcome",
    "TemporalCommitment",
    "commit_step_chain",
    "find_earliest_offending_step",
    "hash_seeded_tie_break",
    "lexicographic_tie_break",
    "ZkProverModel",
    "ZkCostEstimate",
    "compare_with_tao",
    "TAOSession",
    "SessionReport",
    "ServiceCore",
    "ServiceRequest",
    "ServiceStats",
    "TAOService",
]
