"""The protocol state machine: enumerated states, events and transition rules.

Every per-request protocol state the coordinator can hold is enumerated
here, together with the ``(state, event) -> state`` transition relation the
implementation must follow.  The machine is *executable*: :func:`transition`
advances one request's state by one event, :data:`TRANSITIONS` is the full
relation as data (used by :func:`validate_journal` to check write-ahead
journals recorded by live shard workers), and the integer escrow model
(:func:`account_deltas`, :func:`settlement`) states exactly which balances
move on every edge — the conservation invariant the simulator samples is a
*theorem* of this model (every state's deltas sum to zero).

The state names deliberately refine the implementation's two-level encoding
(``TaskStatus`` x ``DisputePhase``) into one flat space::

    queued ── submit ──> pending ── finalize ──> finalized
                            │
                        challenge
                            v
                    dispute_partition <──── select ──┐
                      │         │                    │
                  partition   timeout/input_fraud    │
                      v         v                    │
                dispute_selection ── select ──> dispute_adjudication
                                                      │
                                              adjudicate/timeout
                                                      v
                                 proposer_slashed / challenger_slashed

All amounts are small integers (exactly representable as floats), so the
spec's predicted balances compare *bit-exactly* against the simulated
chain's float ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Enumerated per-request states (flattened TaskStatus x DisputePhase).
STATES: Tuple[str, ...] = (
    "queued",
    "pending",
    "finalized",
    "dispute_partition",
    "dispute_selection",
    "dispute_adjudication",
    "proposer_slashed",
    "challenger_slashed",
)

#: States with no outgoing transitions.
TERMINAL_STATES = frozenset({"finalized", "proposer_slashed",
                             "challenger_slashed"})

#: States in which a dispute is open (a challenger bond is escrowed).
DISPUTE_STATES = frozenset({"dispute_partition", "dispute_selection",
                            "dispute_adjudication"})

#: Event kinds.  ``window_lapse`` is a pure time event (the challenge window
#: closing); every other kind corresponds to exactly one coordinator method.
EVENTS: Tuple[str, ...] = (
    "submit",          # Coordinator.submit_result
    "window_lapse",    # chain time passes the challenge deadline
    "finalize",        # Coordinator.try_finalize (succeeding)
    "challenge",       # Coordinator.open_dispute
    "partition",       # Coordinator.post_partition
    "select",          # Coordinator.post_selection
    "timeout",         # Coordinator.enforce_timeout (firing)
    "input_fraud",     # Coordinator.post_input_binding_fraud
    "adjudicate",      # Coordinator.post_adjudication
)

#: The transition relation as data: ``(state, event kind) -> admissible next
#: states``.  Events whose next state depends on payload (``challenge`` and
#: ``select`` on slice size, ``adjudicate`` on the verdict) list every
#: admissible target; :func:`transition` picks the one the payload implies
#: and :func:`validate_journal` accepts any listed target.
TRANSITIONS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("queued", "submit"): ("pending",),
    ("pending", "window_lapse"): ("pending",),
    ("pending", "finalize"): ("finalized",),
    ("pending", "challenge"): ("dispute_partition", "dispute_adjudication"),
    ("dispute_partition", "partition"): ("dispute_selection",),
    ("dispute_partition", "timeout"): ("proposer_slashed",),
    ("dispute_partition", "input_fraud"): ("proposer_slashed",),
    ("dispute_selection", "select"): ("dispute_partition",
                                      "dispute_adjudication"),
    ("dispute_selection", "timeout"): ("challenger_slashed",),
    ("dispute_selection", "input_fraud"): ("proposer_slashed",),
    ("dispute_adjudication", "adjudicate"): ("proposer_slashed",
                                             "challenger_slashed"),
    ("dispute_adjudication", "timeout"): ("challenger_slashed",),
    ("dispute_adjudication", "input_fraud"): ("proposer_slashed",),
}

# ----------------------------------------------------------------------
# Protocol economics (integer units; exact as floats)
# ----------------------------------------------------------------------

#: Per-request fee paid by the user (the coordinator default in the tests).
FEE = 10
#: Proposer bond escrowed at submission (coordinator default).
PROPOSER_BOND = 100
#: Challenger bond escrowed at dispute open (coordinator default).
CHALLENGER_BOND = 50
#: Challenger's share of a slashed proposer bond (reward share 0.5).
CHALLENGER_REWARD = PROPOSER_BOND // 2

#: Account roles of one request (the spec abstracts names away).
ACCOUNTS: Tuple[str, ...] = ("user", "proposer", "challenger", "escrow",
                             "burn")


class SpecViolation(AssertionError):
    """An event was applied in a state where the spec forbids it, or a
    recorded journal does not follow the transition relation."""


@dataclass(frozen=True)
class SpecEvent:
    """One protocol event, with the payload its transition depends on.

    ``at_leaf`` steers ``challenge``/``select`` (a one-operator slice goes
    straight to adjudication); ``cheated`` steers ``adjudicate``; ``child``
    and ``children`` carry the bisection payload so a trace can be replayed
    against a real coordinator move for move.
    """

    kind: str
    at_leaf: bool = False
    cheated: bool = False
    child: int = -1
    #: Contiguous ``(start, end)`` child slices posted by a partition.
    children: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENTS:
            raise SpecViolation(f"unknown event kind {self.kind!r}")


def transition(state: str, event: SpecEvent) -> str:
    """Apply one event to one request's state; raises :class:`SpecViolation`
    when the relation has no edge for ``(state, event)``."""
    allowed = TRANSITIONS.get((state, event.kind))
    if allowed is None:
        raise SpecViolation(
            f"event {event.kind!r} is not admissible in state {state!r}")
    if event.kind in ("challenge", "select"):
        nxt = "dispute_adjudication" if event.at_leaf else "dispute_partition"
    elif event.kind == "adjudicate":
        nxt = "proposer_slashed" if event.cheated else "challenger_slashed"
    else:
        nxt = allowed[0]
    if nxt not in allowed:
        raise SpecViolation(
            f"event {event.kind!r} in state {state!r} cannot reach {nxt!r}")
    return nxt


def account_deltas(state: str) -> Dict[str, int]:
    """Balance movement of one request *by the time it is in ``state``*,
    relative to the pre-submission balances (integer units).

    Summing the deltas of any state yields zero — conservation
    (``sum(balances) == minted``) holds at every reachable state, not only
    at settlement.  Escrow holdings are non-negative in every state.
    """
    if state == "queued":
        return dict.fromkeys(ACCOUNTS, 0)
    if state == "pending":
        return {"user": -FEE, "proposer": -PROPOSER_BOND, "challenger": 0,
                "escrow": FEE + PROPOSER_BOND, "burn": 0}
    if state in DISPUTE_STATES:
        return {"user": -FEE, "proposer": -PROPOSER_BOND,
                "challenger": -CHALLENGER_BOND,
                "escrow": FEE + PROPOSER_BOND + CHALLENGER_BOND, "burn": 0}
    if state == "finalized":
        return {"user": -FEE, "proposer": FEE, "challenger": 0,
                "escrow": 0, "burn": 0}
    if state == "proposer_slashed":
        return {"user": 0, "proposer": -PROPOSER_BOND,
                "challenger": CHALLENGER_REWARD, "escrow": 0,
                "burn": PROPOSER_BOND - CHALLENGER_REWARD}
    if state == "challenger_slashed":
        return {"user": -FEE, "proposer": FEE + CHALLENGER_BOND,
                "challenger": -CHALLENGER_BOND, "escrow": 0, "burn": 0}
    raise SpecViolation(f"unknown state {state!r}")


def settlement(final_state: str) -> Dict[str, int]:
    """Terminal balance deltas (the slash/forfeit/settle payout rule)."""
    if final_state not in TERMINAL_STATES:
        raise SpecViolation(
            f"settlement is only defined for terminal states, not "
            f"{final_state!r}")
    return account_deltas(final_state)


# ----------------------------------------------------------------------
# Journal validation
# ----------------------------------------------------------------------

@dataclass
class JournalSummary:
    """Result of validating one shard's spec journal."""

    #: Final spec state per task id (non-terminal = in flight at shutdown).
    final_states: Dict[int, str] = field(default_factory=dict)
    #: Models whose registration was journaled.
    registered_models: List[str] = field(default_factory=list)
    entries_validated: int = 0

    @property
    def in_flight_tasks(self) -> Dict[int, str]:
        """Tasks whose journal ends before a terminal state (a crash here
        means the dispute is resumed by journal replay)."""
        return {task: state for task, state in self.final_states.items()
                if state not in TERMINAL_STATES}


def validate_journal(entries: Iterable[Mapping[str, object]]) -> JournalSummary:
    """Check a recorded ``(state, event)`` journal against the machine.

    ``entries`` are the write-ahead records a worker coordinator emits just
    before each chain mutation: maps with ``event``, and for task-scoped
    events ``task`` (int), ``state`` (the state the coordinator observed)
    and ``next`` (the state it was about to enter).  Raises
    :class:`SpecViolation` on the first entry that is out of order, skips a
    state, or takes an edge the relation does not contain.
    """
    summary = JournalSummary()
    current: Dict[int, str] = {}
    for position, entry in enumerate(entries):
        event = entry.get("event")
        if event == "register":
            summary.registered_models.append(str(entry.get("model")))
            summary.entries_validated += 1
            continue
        task = entry.get("task")
        state = entry.get("state")
        nxt = entry.get("next")
        if task is None or state is None or nxt is None:
            raise SpecViolation(
                f"journal entry {position} is missing task/state/next: "
                f"{dict(entry)!r}")
        task = int(task)
        tracked = current.get(task, "queued")
        if state != tracked:
            raise SpecViolation(
                f"journal entry {position}: task {task} recorded state "
                f"{state!r} but the journal prefix implies {tracked!r}")
        allowed = TRANSITIONS.get((str(state), str(event)))
        if allowed is None:
            raise SpecViolation(
                f"journal entry {position}: event {event!r} is not "
                f"admissible in state {state!r}")
        if nxt not in allowed:
            raise SpecViolation(
                f"journal entry {position}: event {event!r} in state "
                f"{state!r} cannot reach {nxt!r} (admissible: {allowed})")
        current[task] = str(nxt)
        summary.final_states[task] = str(nxt)
        summary.entries_validated += 1
    return summary


def partition_children(start: int, end: int, n_way: int) -> Tuple[Tuple[int, int], ...]:
    """The canonical contiguous ``n_way`` split of a disputed slice.

    Sizes follow ``numpy.array_split`` (the first ``size % n_way`` children
    take the extra operator); empty children are dropped, so every child is
    non-empty and strictly smaller than the parent — the measure the
    explorer's termination argument uses.
    """
    size = end - start
    if size < 2:
        raise SpecViolation("only slices of two or more operators partition")
    base, extra = divmod(size, n_way)
    children: List[Tuple[int, int]] = []
    cursor = start
    for index in range(n_way):
        width = base + (1 if index < extra else 0)
        if width == 0:
            continue
        children.append((cursor, cursor + width))
        cursor += width
    return tuple(children)
