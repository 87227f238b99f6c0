"""Multi-step workloads: temporal commitments and prefix finality (paper Sec. 7).

TAO extends to multi-step settings (autoregressive decoding, diffusion
sampling, training) by layering time over the dispute game: the proposer
commits to a *temporal Merkle chain* of per-step states, disagreement is
first bisected **across time** to the earliest offending step, and the
ordinary operator-level dispute game then localizes the fault **within** that
step.  Steps before the earliest offending one attain *prefix finality*: they
can finalize even while later steps remain challengeable.

This module provides:

* :class:`TemporalCommitment` — the per-step state hashes plus a Merkle root
  over them (the on-chain commitment for a multi-step request);
* :func:`find_earliest_offending_step` — the challenger's time-bisection:
  re-execute the committed chain step by step from the committed inputs and
  flag the first step whose claimed state exceeds a step-level tolerance;
* :class:`MultiStepDispute` — orchestration glue that resolves a multi-step
  claim into (finalized prefix, offending step, operator-level dispute
  outcome) using an ordinary :class:`~repro.protocol.dispute.DisputeGame`
  within the offending step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.interpreter import Interpreter
from repro.merkle.commitments import hash_tensor
from repro.merkle.tree import MerkleTree
from repro.tensorlib.device import DeviceProfile

#: A function mapping (step index, previous state) -> the graph inputs of that step.
StepInputBuilder = Callable[[int, np.ndarray], Dict[str, np.ndarray]]
#: A function mapping (step index, previous state, step output) -> the next state.
StateUpdateFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class StepRecord:
    """One committed step: the claimed post-step state and its hash."""

    index: int
    state: np.ndarray
    state_hash: bytes


@dataclass
class TemporalCommitment:
    """The proposer's commitment to a multi-step execution.

    ``root`` is the Merkle root over per-step state hashes; each step can be
    opened individually with an inclusion proof, so prefix finality does not
    require revealing the whole chain on-chain.
    """

    initial_state_hash: bytes
    steps: List[StepRecord]
    root: bytes
    tree: Optional[MerkleTree] = None

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def step_proof(self, index: int):
        if self.tree is None:
            raise ValueError("temporal commitment was built without its tree")
        return self.tree.prove(index)


def commit_step_chain(initial_state: np.ndarray,
                      states: Sequence[np.ndarray]) -> TemporalCommitment:
    """Build the temporal commitment for a chain of per-step states."""
    if not states:
        raise ValueError("a multi-step commitment needs at least one step")
    steps = [
        StepRecord(index=i, state=np.asarray(state), state_hash=hash_tensor(state))
        for i, state in enumerate(states)
    ]
    tree = MerkleTree([record.state_hash for record in steps])
    return TemporalCommitment(
        initial_state_hash=hash_tensor(initial_state),
        steps=steps,
        root=tree.root,
        tree=tree,
    )


@dataclass
class StepCheck:
    """Challenger-side verdict for one step of the chain."""

    index: int
    max_abs_deviation: float
    within_tolerance: bool


def find_earliest_offending_step(
    commitment: TemporalCommitment,
    initial_state: np.ndarray,
    graph_module: GraphModule,
    step_inputs: StepInputBuilder,
    state_update: StateUpdateFn,
    device: DeviceProfile,
    step_tolerance: float,
) -> Tuple[Optional[int], List[StepCheck]]:
    """Time-bisection: locate the earliest step whose claimed state is off.

    The challenger re-executes the chain *from the proposer's claimed previous
    states* (so a single tampered step cannot hide behind honest downstream
    recomputation) and compares each claimed post-step state against its own
    within ``step_tolerance`` (a state-level tolerance derived from the
    calibrated per-operator thresholds).  Returns the earliest offending step
    index (or ``None``) plus the per-step checks.
    """
    interpreter = Interpreter(device)
    checks: List[StepCheck] = []
    offending: Optional[int] = None
    previous_state = np.asarray(initial_state)
    for record in commitment.steps:
        inputs = step_inputs(record.index, previous_state)
        trace = interpreter.run(graph_module, inputs)
        local_state = state_update(record.index, previous_state, trace.output)
        deviation = float(np.max(np.abs(np.asarray(record.state, dtype=np.float64)
                                        - np.asarray(local_state, dtype=np.float64))))
        ok = deviation <= step_tolerance
        checks.append(StepCheck(index=record.index, max_abs_deviation=deviation,
                                within_tolerance=ok))
        if not ok and offending is None:
            offending = record.index
            break
        # Continue the chain from the *claimed* state (implicitly accepted).
        previous_state = np.asarray(record.state)
    return offending, checks


@dataclass
class MultiStepOutcome:
    """Resolution of a multi-step claim."""

    finalized_prefix: int
    offending_step: Optional[int]
    step_checks: List[StepCheck]
    operator_dispute: Optional[object] = None  # DisputeOutcome when a step was disputed

    @property
    def fully_finalized(self) -> bool:
        return self.offending_step is None


class MultiStepDispute:
    """Resolve a temporal commitment: prefix finality + in-step dispute.

    The in-step dispute reuses the ordinary operator-level machinery via a
    caller-supplied ``dispute_step`` callback (typically submitting the
    offending step's inputs to a
    :class:`~repro.protocol.service.TAOService` and draining it), keeping
    this class agnostic of coordinator wiring.
    """

    def __init__(
        self,
        graph_module: GraphModule,
        thresholds: ThresholdTable,
        step_inputs: StepInputBuilder,
        state_update: StateUpdateFn,
        device: DeviceProfile,
        step_tolerance: float,
    ) -> None:
        self.graph_module = graph_module
        self.thresholds = thresholds
        self.step_inputs = step_inputs
        self.state_update = state_update
        self.device = device
        self.step_tolerance = float(step_tolerance)

    def resolve(
        self,
        commitment: TemporalCommitment,
        initial_state: np.ndarray,
        dispute_step: Optional[Callable[[int, Dict[str, np.ndarray]], object]] = None,
    ) -> MultiStepOutcome:
        offending, checks = find_earliest_offending_step(
            commitment, initial_state, self.graph_module, self.step_inputs,
            self.state_update, self.device, self.step_tolerance,
        )
        if offending is None:
            return MultiStepOutcome(
                finalized_prefix=commitment.num_steps,
                offending_step=None,
                step_checks=checks,
            )
        previous_state = (np.asarray(initial_state) if offending == 0
                          else np.asarray(commitment.steps[offending - 1].state))
        operator_dispute = None
        if dispute_step is not None:
            operator_dispute = dispute_step(offending,
                                            self.step_inputs(offending, previous_state))
        return MultiStepOutcome(
            finalized_prefix=offending,
            offending_step=offending,
            step_checks=checks,
            operator_dispute=operator_dispute,
        )


# ---------------------------------------------------------------------------
# Deterministic tie-break rules for discrete decisions (paper Sec. 7)
# ---------------------------------------------------------------------------

def lexicographic_tie_break(logits: np.ndarray, margin: float) -> int:
    """Pick the smallest class index among candidates within ``margin`` of the max.

    In multi-step generation a small numerical drift can flip an argmax; the
    paper proposes committing to a deterministic tie-break rule so honest
    executions converge on the same discrete decision whenever competing
    logits lie within the accepted tolerance.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    best = float(logits.max())
    candidates = np.flatnonzero(logits >= best - float(margin))
    return int(candidates.min())


def hash_seeded_tie_break(logits: np.ndarray, margin: float, seed_material: bytes) -> int:
    """Deterministically select among near-tie candidates using committed public data.

    The seed is derived from committed bytes (e.g. the execution commitment),
    so the choice is unpredictable in advance yet identical for every honest
    party.
    """
    import hashlib

    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    best = float(logits.max())
    candidates = np.flatnonzero(logits >= best - float(margin))
    if candidates.size == 1:
        return int(candidates[0])
    digest = hashlib.sha256(seed_material).digest()
    pick = int.from_bytes(digest[:8], "big") % candidates.size
    return int(candidates[pick])
