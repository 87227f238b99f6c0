"""Protocol invariant checking over a finished simulation episode.

Three invariant families, checked after every scenario:

**Safety**
  * S1 — a proposer whose committed execution is honest is never slashed,
    no matter how the challenger or committee behave.
  * S2 — a result the (honest) verification flagged as beyond threshold
    never reaches ``finalized``: a flag always escalates to a dispute, and a
    dispute ends in a slash, never a quiet finalization.
  * S3 — a *strong* tamper (far outside the committed thresholds) that was
    flagged, fought by an honest, live challenger and judged by an
    honest-majority committee always ends with the proposer slashed.

**Liveness**
  * L1 — every accepted request reaches a terminal coordinator status by the
    end of its drain (no task left ``pending``, no dispute left open, and no
    request stranded on a service queue — a multi-cycle drain must hand
    every admitted cycle back, not just the ones that cleared every stage).
  * L2 — rejected requests are terminal too, and never touched the chain.

**Conservation**
  * C1 — stake conservation: the sum of every account balance equals the
    total ever minted, exactly (all protocol amounts are binary fractions,
    so float addition is exact here).
  * C2 — gas partition: per-dispute gas accounting is exact under
    multiplexing — dispute-tagged gas plus untagged gas equals total gas.
  * C3 — no account balance is negative.
  * C4 — once every coordinator task is terminal the escrow account is
    empty, so a task a crash left open on the chain shows even when no
    coordinator mirror saw it.

**Journal** (fleet scenarios only)
  * J1 — every shard's write-ahead journal is a well-formed run of the
    protocol state machine (:func:`repro.spec.machine.validate_journal`):
    each recorded ``(state, event)`` extends its task's transition chain,
    and after the final drain every journaled task is terminal.

The checker is deliberately *conditional*: each assertion states the actor
assumptions under which the paper claims it (e.g. S3 assumes one honest
challenger and an honest-majority committee), and the scenario schedule
carries exactly those honesty bits per request.

Every family is **fleet-aware**: when a scenario drives a
:class:`~repro.cluster.cluster.TAOCluster`, liveness sweeps every shard
coordinator (active and retired), and conservation is checked on the shared
settlement chain — balances across all shards sum exactly to the total ever
minted, and the per-dispute gas of every shard's coordinator partitions the
dispute-tagged gas of the whole shared log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.protocol.coordinator import ESCROW_ACCOUNT, TaskStatus
from repro.sim.scenario import RequestEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runner import SimulationResult

TERMINAL_STATUSES = {
    TaskStatus.FINALIZED.value,
    TaskStatus.PROPOSER_SLASHED.value,
    TaskStatus.CHALLENGER_SLASHED.value,
    "rejected",
}


def service_coordinators(service) -> List:
    """Every coordinator behind a serving front end.

    A plain :class:`~repro.protocol.service.TAOService` has exactly one; a
    :class:`~repro.cluster.cluster.TAOCluster` has one per shard (including
    retired shards, whose history stays on the shared chain).  Duck-typed so
    this module needs no cluster import.
    """
    coordinators = getattr(service, "coordinators", None)
    if callable(coordinators):
        return list(coordinators())
    return [service.coordinator]


def settlement_chain(service):
    """The ledger a front end settles on (the shared chain for a cluster)."""
    chain = getattr(service, "chain", None)
    if chain is not None:
        return chain
    return service.coordinator.chain


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant failure, tied to the event(s) that produced it."""

    family: str  # "safety" | "liveness" | "conservation"
    rule: str    # e.g. "S1"
    message: str
    event_index: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        where = f" [event {self.event_index}]" if self.event_index is not None else ""
        return f"{self.rule} ({self.family}){where}: {self.message}"


class InvariantError(AssertionError):
    """Raised by :func:`assert_invariants` when any invariant fails."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in violations))


@dataclass
class EventOutcome:
    """What actually happened to one scheduled event."""

    event: RequestEvent
    status: str
    flagged: bool            # verification reported a threshold exceedance
    challenged: bool
    proposer_slashed: bool
    finalized: bool
    rejected: bool
    dispute_path: Optional[str] = None


def check_invariants(result: "SimulationResult") -> List[InvariantViolation]:
    """Run all three invariant families; returns the (possibly empty) list."""
    violations: List[InvariantViolation] = []
    violations.extend(_check_safety(result))
    violations.extend(_check_liveness(result))
    violations.extend(_check_conservation(result))
    violations.extend(_check_journal(result))
    return violations


def assert_invariants(result: "SimulationResult") -> None:
    violations = check_invariants(result)
    if violations:
        raise InvariantError(violations)


# ----------------------------------------------------------------------
# Safety
# ----------------------------------------------------------------------

def _check_safety(result: "SimulationResult") -> List[InvariantViolation]:
    out: List[InvariantViolation] = []
    for outcome in result.outcomes:
        event = outcome.event
        if outcome.rejected:
            continue
        # S1: honest execution is never slashed.
        if event.execution_honest and outcome.proposer_slashed:
            out.append(InvariantViolation(
                "safety", "S1",
                f"honest proposer slashed (kind={event.kind}, "
                f"status={outcome.status})",
                event.index,
            ))
        # S2: a flagged result never finalizes.
        if outcome.flagged and outcome.finalized:
            out.append(InvariantViolation(
                "safety", "S2",
                f"verification flagged the result but it finalized "
                f"(kind={event.kind})",
                event.index,
            ))
        # S3: strong tamper + flag + honest live adjudication => slash.
        # The theoretical-only leaf path is excluded: its IEEE envelope is
        # sound for honest proposers but deliberately permissive (a cheat
        # hiding inside the worst-case envelope is acquitted by design).
        # Localization-dependent tampers are enforced only under
        # ``strict_localization``: on deep graphs a flagged intermediate
        # tamper can attenuate below the thresholds of the bisection's cut
        # points and legitimately dead-end the dispute.
        adjudication_honest = (
            not event.challenger_faulty
            and not event.committee_faulty
            and not result.schedule.scenario.colluding_committee
            and result.schedule.scenario.leaf_path != "theoretical"
            and result.schedule.scenario.threshold_scale == 1.0
        )
        s3_applies = event.strong_tamper and (
            event.localization_free
            or result.schedule.scenario.strict_localization
        )
        if (s3_applies and outcome.flagged and adjudication_honest
                and not outcome.proposer_slashed):
            out.append(InvariantViolation(
                "safety", "S3",
                f"flagged strong tamper escaped the honest challenger "
                f"(kind={event.kind}, victim={event.victim}, "
                f"status={outcome.status}, path={outcome.dispute_path})",
                event.index,
            ))
    return out


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------

def _check_liveness(result: "SimulationResult") -> List[InvariantViolation]:
    out: List[InvariantViolation] = []
    for outcome in result.outcomes:
        if outcome.status not in TERMINAL_STATUSES:
            out.append(InvariantViolation(
                "liveness", "L1",
                f"request ended in non-terminal status {outcome.status!r}",
                outcome.event.index,
            ))
    for coordinator in service_coordinators(result.service):
        for task in coordinator.tasks.values():
            if task.status is TaskStatus.PENDING or task.status is TaskStatus.DISPUTED:
                out.append(InvariantViolation(
                    "liveness", "L1",
                    f"coordinator task {task.task_id} left in {task.status.value!r}",
                ))
        for dispute in coordinator.disputes.values():
            if dispute.phase.value != "resolved":
                out.append(InvariantViolation(
                    "liveness", "L1",
                    f"dispute {dispute.dispute_id} left in phase "
                    f"{dispute.phase.value!r}",
                ))
    stranded = int(getattr(result.service, "pending_count", 0))
    if stranded:
        out.append(InvariantViolation(
            "liveness", "L1",
            f"{stranded} request(s) left on the service queue after the "
            f"final drain",
        ))
    for outcome in result.outcomes:
        if outcome.rejected and outcome.challenged:
            out.append(InvariantViolation(
                "liveness", "L2",
                "rejected request reached the coordinator",
                outcome.event.index,
            ))
    return out


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------

def _check_conservation(result: "SimulationResult") -> List[InvariantViolation]:
    out: List[InvariantViolation] = []
    chain = settlement_chain(result.service)
    total = sum(chain.balances.values())
    if total != chain.minted:
        out.append(InvariantViolation(
            "conservation", "C1",
            f"balances sum to {total!r} but {chain.minted!r} was minted",
        ))
    for account, balance in chain.balances.items():
        if balance < 0:
            out.append(InvariantViolation(
                "conservation", "C3",
                f"account {account!r} has negative balance {balance!r}",
            ))
    coordinators = service_coordinators(result.service)
    escrow = chain.balances.get(ESCROW_ACCOUNT, 0.0)
    if escrow and all(task.status.value in TERMINAL_STATUSES
                      for coordinator in coordinators
                      for task in coordinator.tasks.values()):
        out.append(InvariantViolation(
            "conservation", "C4",
            f"every task is terminal but {ESCROW_ACCOUNT!r} holds {escrow!r}",
        ))
    # C2 fleet-wide: each dispute's running gas total (summed as its game
    # posts, mirrored parent-side for fleet workers) must partition every
    # dispute-tagged transaction on the shared log exactly.
    tagged = 0
    for coordinator in coordinators:
        for dispute_id in coordinator.disputes:
            tagged += coordinator.dispute_gas(dispute_id)
    untagged = sum(
        tx.gas_used for tx in chain.transactions
        if tx.details.get("dispute_id") is None
    )
    total_gas = chain.total_gas()
    if tagged + untagged != total_gas:
        out.append(InvariantViolation(
            "conservation", "C2",
            f"gas partition mismatch: {tagged} dispute-tagged + {untagged} "
            f"untagged != {total_gas} total",
        ))
    return out


# ----------------------------------------------------------------------
# Journal (fleet scenarios)
# ----------------------------------------------------------------------

def _check_journal(result: "SimulationResult") -> List[InvariantViolation]:
    """J1: each shard's write-ahead journal is a valid spec-machine run.

    Duck-typed on ``service.spec_journals()`` so only fleet scenarios pay
    for it; a scenario over the in-process service/cluster has no journal
    and the family vacuously passes.
    """
    spec_journals = getattr(result.service, "spec_journals", None)
    if not callable(spec_journals):
        return []
    from repro.spec.machine import SpecViolation, validate_journal

    out: List[InvariantViolation] = []
    for shard_id, entries in spec_journals().items():
        try:
            summary = validate_journal(entries)
        except SpecViolation as exc:
            out.append(InvariantViolation(
                "journal", "J1",
                f"shard {shard_id!r} journal is not a valid spec run: {exc}",
            ))
            continue
        for task_id, state in sorted(summary.in_flight_tasks.items()):
            out.append(InvariantViolation(
                "journal", "J1",
                f"shard {shard_id!r} journal leaves task {task_id} "
                f"non-terminal in {state!r} after the final drain",
            ))
    return out


def summarize_outcomes(outcomes: List[EventOutcome]) -> Dict[str, int]:
    """Small status histogram used by reports and tests."""
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts
