"""Conformance replay: every explored spec trace against the real coordinator.

The explorer proves properties of the *spec*; this module closes the loop by
replaying each enumerated per-task trace, move for move, against a live
``TAOService``'s :class:`~repro.protocol.coordinator.Coordinator` — the same
object the shard workers run in production.  After every event the replay
asserts the coordinator's ``(TaskStatus, DisputePhase)`` pair maps exactly to
the spec state the trace predicts, and at the end of each trace it asserts
the real float ledger moved by *bit-exactly* the integer deltas of
:func:`repro.spec.machine.settlement` (protocol amounts are all exactly
representable).  The coordinator's own write-ahead journal entries are
captured during the replay and re-validated against the transition relation,
so the journal a crashed shard recovers from is checked by the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.merkle.commitments import ExecutionCommitment
from repro.protocol.coordinator import (
    BURN_ACCOUNT,
    ESCROW_ACCOUNT,
    Coordinator,
    DisputePhase,
    PartitionEntry,
    TaskStatus,
)

from .explorer import SpecScope, Trace, local_traces
from .machine import (
    ACCOUNTS,
    FEE,
    SpecViolation,
    settlement,
    validate_journal,
)

#: Spec state -> the coordinator encoding it must be observed in.
STATE_MAP: Dict[str, Tuple[TaskStatus, Optional[DisputePhase]]] = {
    "pending": (TaskStatus.PENDING, None),
    "finalized": (TaskStatus.FINALIZED, None),
    "dispute_partition": (TaskStatus.DISPUTED, DisputePhase.AWAIT_PARTITION),
    "dispute_selection": (TaskStatus.DISPUTED, DisputePhase.AWAIT_SELECTION),
    "dispute_adjudication": (TaskStatus.DISPUTED,
                             DisputePhase.AWAIT_ADJUDICATION),
    "proposer_slashed": (TaskStatus.PROPOSER_SLASHED, DisputePhase.RESOLVED),
    "challenger_slashed": (TaskStatus.CHALLENGER_SLASHED,
                           DisputePhase.RESOLVED),
}

#: Placeholder commitment hashes: the coordinator checks slice geometry and
#: ordering, never hash preimages (those are checked off-chain by the
#: dispute game), so fixed bytes keep the replay purely protocol-level.
_H = bytes(32)

#: Stake funded to each trace's fresh accounts (covers fee + either bond).
_TRACE_STAKE = 1000.0


@dataclass
class ConformanceReport:
    """Outcome of replaying one scope's traces against a coordinator."""

    traces_replayed: int = 0
    events_replayed: int = 0
    mismatches: List[str] = field(default_factory=list)
    journal_entries_validated: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _assert_state(coordinator: Coordinator, task_id: int,
                  spec_state: str) -> None:
    expected_status, expected_phase = STATE_MAP[spec_state]
    task = coordinator.task(task_id)
    if task.status is not expected_status:
        raise SpecViolation(
            f"task {task_id}: spec state {spec_state!r} expects status "
            f"{expected_status.value!r}, coordinator has {task.status.value!r}")
    if expected_phase is not None:
        dispute = coordinator.dispute(task.dispute_id)
        if dispute.phase is not expected_phase:
            raise SpecViolation(
                f"task {task_id}: spec state {spec_state!r} expects phase "
                f"{expected_phase.value!r}, coordinator has "
                f"{dispute.phase.value!r}")


def _replay_one(coordinator: Coordinator, model_name: str, trace: Trace,
                index: int) -> int:
    """Replay one per-task trace; returns the number of events applied."""
    chain = coordinator.chain
    accounts = {"user": f"spec-user-{index}",
                "proposer": f"spec-proposer-{index}",
                "challenger": f"spec-challenger-{index}",
                "escrow": ESCROW_ACCOUNT,
                "burn": BURN_ACCOUNT}
    for role in ("user", "proposer", "challenger"):
        chain.fund(accounts[role], _TRACE_STAKE)
    before = {role: chain.balance(name) for role, name in accounts.items()}

    _, events = trace
    task_id: Optional[int] = None
    dispute_id: Optional[int] = None
    applied = 0
    for event, spec_state in events:
        if event.kind == "submit":
            commitment = ExecutionCommitment(
                value=_H, input_hash=_H, output_hash=_H,
                meta={"spec_trace": index})
            task = coordinator.submit_result(
                model_name, accounts["user"], accounts["proposer"],
                commitment, fee=float(FEE))
            task_id = task.task_id
        elif event.kind == "window_lapse":
            task = coordinator.task(task_id)
            chain.advance_time(
                task.challenge_deadline - chain.timestamp + 1.0)
        elif event.kind == "finalize":
            if not coordinator.try_finalize(task_id, accounts["proposer"]):
                raise SpecViolation(
                    f"trace {index}: try_finalize refused after the window")
        elif event.kind == "challenge":
            dispute = coordinator.open_dispute(task_id,
                                               accounts["challenger"])
            dispute_id = dispute.dispute_id
        elif event.kind == "partition":
            entries = [PartitionEntry(lo, hi, _H, _H)
                       for lo, hi in event.children]
            coordinator.post_partition(
                dispute_id, accounts["proposer"], entries,
                payload_bytes=16 + 80 * len(entries))
        elif event.kind == "select":
            coordinator.post_selection(dispute_id, accounts["challenger"],
                                       event.child)
        elif event.kind == "timeout":
            chain.advance_time(coordinator.round_timeout_s + 1.0)
            loser = coordinator.enforce_timeout(dispute_id, "spec-watchtower")
            if loser is None:
                raise SpecViolation(
                    f"trace {index}: enforce_timeout did not fire")
        elif event.kind == "input_fraud":
            coordinator.post_input_binding_fraud(dispute_id,
                                                 accounts["challenger"])
        elif event.kind == "adjudicate":
            coordinator.post_adjudication(
                dispute_id, accounts["challenger"],
                proposer_cheated=event.cheated, path="routed")
        else:
            raise SpecViolation(f"trace {index}: unknown event {event!r}")
        _assert_state(coordinator, task_id, spec_state)
        applied += 1

    final_state = events[-1][1]
    expected = settlement(final_state)
    for role in ACCOUNTS:
        delta = chain.balance(accounts[role]) - before[role]
        if delta != float(expected[role]):
            raise SpecViolation(
                f"trace {index} ({final_state}): account {role!r} moved "
                f"{delta!r}, spec settlement says {float(expected[role])!r}")
    total = sum(chain.balances.values())
    if total != chain.minted:
        raise SpecViolation(
            f"trace {index}: conservation broke: sum(balances)={total!r} "
            f"minted={chain.minted!r}")
    return applied


def conformance_replay(service, model_name: str, scope: SpecScope,
                       traces: Optional[Iterable[Trace]] = None,
                       ) -> ConformanceReport:
    """Replay every per-task trace of ``scope`` against ``service``'s live
    coordinator, recording and re-validating its write-ahead journal.

    ``service`` is a real ``TAOService`` with ``model_name`` registered; the
    scope's ``num_operators`` must match the registered model so partition
    geometry replays exactly.
    """
    coordinator = service.coordinator
    registered = coordinator.model(model_name)
    if registered.num_operators != scope.num_operators:
        raise SpecViolation(
            f"scope has {scope.num_operators} operators but "
            f"{model_name!r} registered {registered.num_operators}")

    report = ConformanceReport()
    captured: List[Dict[str, object]] = []
    previous_sink = coordinator.journal
    coordinator.journal = captured.append
    try:
        for index, trace in enumerate(traces if traces is not None
                                      else local_traces(scope)):
            try:
                report.events_replayed += _replay_one(
                    coordinator, model_name, trace, index)
            except Exception as exc:  # record the mismatch, keep replaying
                report.mismatches.append(f"trace {index}: {exc}")
            report.traces_replayed += 1
    finally:
        coordinator.journal = previous_sink
    try:
        summary = validate_journal(captured)
        report.journal_entries_validated = summary.entries_validated
    except SpecViolation as exc:
        report.mismatches.append(f"journal: {exc}")
    return report
