"""Fault models and faulty actor wrappers for the protocol simulator.

Each fault model is a recipe for building a *misbehaving actor* out of the
real role objects in :mod:`repro.protocol.roles` — no protocol code is
forked.  Proposer-side faults reuse the :class:`AdversarialProposer`
override hook (compute honestly, then tamper); challenger/committee faults
override the narrow liveness and voting hooks the protocol exposes.

Catalog (``FAULT_KINDS``):

``bit_flip``
    XOR the low-order mantissa bits of one operator's output — the smallest
    physically meaningful tamper.  Magnitude = number of low bits flipped;
    a handful of bits hides inside cross-device noise, ~16+ bits is far
    outside any calibrated threshold.
``bound_edge``
    A random perturbation of a graph output projected onto the committed
    empirical cap curve with :func:`repro.attacks.projections.project_empirical`
    and scaled by an edge factor: below 1 rides inside the feasible set (the
    tolerated sub-threshold cheat of Sec. 4), above 1 sticks out of it.
``wrong_weight``
    Substitute one committed parameter tensor at execution time (the
    ``get_param`` node is overridden), so the whole trace is honestly
    computed from the wrong weights — detectable only against the Merkle
    weight commitment.
``stale_trace``
    Replay a previously committed trace against a fresh request: the
    commitment binds the fresh ``H(x)`` but the trace extends a stale one.
    Caught by the challenger's input-binding check, settled by
    ``post_input_binding_fraud`` without a localization game.
``drop_partition``
    A cheating proposer that never answers the dispute (stalls past the
    round timeout) — must be slashed by timeout.
``drop_selection``
    A challenger that opens the dispute but never posts its selection —
    forfeits its bond by timeout, letting the cheat escape (the paper's
    one-honest-challenger assumption, made executable).
``late_move``
    A challenger that answers every round late but inside the timeout — the
    dispute must still conclude.
``colluding_committee``
    Committee members that always vote for the proposer; with an
    honest-majority assumption broken, a localized cheat escapes at the leaf.
``device_drift``
    An *honest* proposer whose device profile drifts to another fleet member
    mid-schedule — must never be flagged or slashed (the fleet is what the
    thresholds were calibrated over).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.attacks.projections import project_empirical
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.interpreter import ExecutionTrace
from repro.merkle.cache import HashCache
from repro.protocol.roles import (
    AdversarialProposer,
    Challenger,
    CommitteeMember,
    CommitteeVoteRecord,
    Proposer,
)
from repro.tensorlib.device import DeviceProfile
from repro.utils.rng import seeded_rng

#: Every fault kind the scenario engine can schedule.
FAULT_KINDS = (
    "bit_flip",
    "bound_edge",
    "wrong_weight",
    "stale_trace",
    "drop_partition",
    "drop_selection",
    "late_move",
    "colluding_committee",
    "device_drift",
)

#: Fault kinds whose proposer commits a tampered execution.
TAMPERING_KINDS = frozenset({
    "bit_flip", "bound_edge", "wrong_weight", "stale_trace",
    "drop_partition", "drop_selection", "late_move", "colluding_committee",
})

#: Tampering kinds for which, under fully honest adjudication, a flagged
#: request MUST end with the proposer slashed (the strong safety check S3).
#: ``bound_edge`` is excluded by design: it rides the threshold boundary,
#: where the paper's tolerance semantics deliberately lets the cheat stand.
#: Localization-*dependent* kinds in this set are only enforced under a
#: scenario's ``strict_localization`` flag — on deep graphs an intermediate
#: tamper can be flagged at the output yet attenuate below the thresholds of
#: the intermediate cut points (attention softmax, global pooling), so the
#: threshold-guided bisection legitimately dead-ends.
STRONG_TAMPER_KINDS = frozenset({
    "bit_flip", "wrong_weight", "stale_trace", "drop_partition", "late_move",
})

#: The subset of STRONG_TAMPER_KINDS whose slash path does not depend on
#: localization at all: a replayed trace is settled by the input-binding
#: fraud proof, and a proposer that never partitions is slashed by timeout.
#: These are enforced in *every* scenario.
LOCALIZATION_FREE_KINDS = frozenset({"stale_trace", "drop_partition"})


def flip_low_bits(value: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """XOR a random pattern into the ``bits`` low-order mantissa bits."""
    arr = np.asarray(value, dtype=np.float32)
    rng = seeded_rng(seed)
    raw = arr.view(np.uint32).copy()
    mask = rng.integers(0, np.uint32(1) << bits, size=raw.shape, dtype=np.uint32)
    flipped = (raw ^ mask).view(np.float32)
    # Never turn a finite value into inf/nan through exponent carries.
    return np.where(np.isfinite(flipped), flipped, arr).astype(np.float32)


def bound_edge_delta(base: np.ndarray, thresholds: ThresholdTable, node_name: str,
                     edge_factor: float, seed: int) -> np.ndarray:
    """A random delta projected onto the cap curve, then scaled by the factor."""
    rng = seeded_rng(seed)
    ranks, caps = thresholds.cap_curve(node_name)
    scale = float(np.max(caps)) if caps.size else 1e-6
    raw = rng.standard_normal(np.shape(base)) * max(scale, 1e-9)
    projected = project_empirical(raw, ranks, caps)
    return float(edge_factor) * projected


class SimProposer(AdversarialProposer):
    """An adversarial proposer with the simulator's liveness fault hook."""

    def __init__(self, name: str, device: DeviceProfile, perturbations=None,
                 hash_cache: Optional[HashCache] = None,
                 partition_delay_s: float = 0.0) -> None:
        super().__init__(name, device, perturbations, hash_cache=hash_cache)
        self.partition_delay_s = float(partition_delay_s)

    def move_delay_s(self, round_index: int) -> float:
        return self.partition_delay_s


class StaleTraceProposer(Proposer):
    """Commits a previously recorded trace against a fresh request.

    The execution commitment is built over the *fresh* inputs (the payload
    hash the coordinator records), but outputs and trace values are replayed
    from ``source`` — the committed trace does not extend the committed
    ``H(x)``, which is exactly what the challenger's input-binding check
    catches.
    """

    def __init__(self, name: str, device: DeviceProfile, source: ExecutionTrace,
                 hash_cache: Optional[HashCache] = None) -> None:
        super().__init__(name, device, hash_cache=hash_cache)
        self.source = source

    def trace(self, graph_module: GraphModule, inputs) -> ExecutionTrace:
        return self.source


class SimChallenger(Challenger):
    """A challenger with configurable per-round lateness (or a full drop)."""

    def __init__(self, name: str, device: DeviceProfile,
                 threshold_table: ThresholdTable,
                 hash_cache: Optional[HashCache] = None,
                 selection_delay_s: float = 0.0,
                 committee_envelope=None) -> None:
        super().__init__(name, device, threshold_table, hash_cache=hash_cache,
                         committee_envelope=committee_envelope)
        self.selection_delay_s = float(selection_delay_s)

    def move_delay_s(self, round_index: int) -> float:
        return self.selection_delay_s


class ColludingCommitteeMember(CommitteeMember):
    """Votes for the proposer unconditionally (a bought adjudicator)."""

    def vote(self, graph_module, operator_name, operand_values, proposer_output,
             thresholds, committee_envelope=None) -> CommitteeVoteRecord:
        return CommitteeVoteRecord(self.name, True, None)


def make_fault_overrides(kind: str, graph: GraphModule, thresholds: ThresholdTable,
                         victim: str, magnitude: float, seed: int,
                         ) -> Dict[str, object]:
    """Build the interpreter override spec for a proposer-side tamper."""
    if kind == "bit_flip" or kind in ("drop_partition", "drop_selection",
                                      "late_move", "colluding_committee"):
        bits = int(magnitude)
        return {victim: (lambda base, b=bits, s=seed: flip_low_bits(base, b, s))}
    if kind == "bound_edge":
        return {victim: (lambda base, f=float(magnitude), s=seed, n=victim:
                         base + bound_edge_delta(base, thresholds, n, f, s))}
    if kind == "wrong_weight":
        # Override the get_param node itself: the whole downstream trace is
        # honestly computed from substituted weights.  The additive component
        # falls back to an absolute scale so zero-initialized parameters
        # (biases) are still genuinely substituted.
        def substitute(base, m=float(magnitude), s=seed):
            scale = float(np.abs(base).mean()) if np.size(base) else 0.0
            if scale == 0.0:
                scale = 1.0
            noise = seeded_rng(s).standard_normal(np.shape(base)).astype(np.float32)
            return base * (1.0 + m) + m * scale * noise

        return {victim: substitute}
    raise ValueError(f"fault kind {kind!r} has no proposer override spec")
