"""Single-operator adjudication (paper Secs. 2.2 Phase 3 and 5.4).

At the dispute leaf both parties agree on the operator's type, attributes and
input tensors; only the proposer's claimed output is in question.  The
challenger's routing policy picks between two checks:

* **theoretical-bound check** — a canonical reference execution plus the
  operator's IEEE-754 envelope ``tau_theo``; the proposer's output is
  accepted iff it lies within the envelope element-wise.  Cheap, portable,
  sound, but potentially permissive.
* **committee vote** — each sampled member re-executes the operator on its
  own device, forms the error percentile profile against the proposer's
  output and votes using the committed empirical acceptance envelope; the
  majority decides.  Tighter but more expensive.

Routing: the challenger first compares the proposer's output against its own
reference under ``tau_theo``; if any element falls outside, path (i) settles
the dispute immediately, otherwise path (ii) applies the tighter empirical
thresholds.

The committee's acceptance envelope has two committed forms.  The *reference*
tolerance (:func:`committee_vote` with ``committee_envelope=None``, the
pre-calibration protocol) votes against the full-trace threshold table ``r_e`` directly — a table
calibrated on error *accumulated through the whole graph prefix*, which is
systematically mis-scaled for the leaf's single-operator comparison: too
loose deep in a graph (tampers survive the vote) and zero-floored at low
percentiles of bit-deterministic kernels (honest cross-device noise is
slashed).  The calibrated form votes against a committed
:class:`~repro.calibration.committee.CommitteeEnvelopeProfile` (root
``r_c``): per-operator percentile envelopes of honest single-op re-execution
spreads across the device fleet.  Passing ``committee_envelope=None``
everywhere reproduces the reference behaviour bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bounds.coexec import BoundInterpreter
from repro.bounds.fp_model import BoundMode
from repro.calibration.profiles import non_finite_errors
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.ops.registry import get_op
from repro.protocol.roles import CommitteeMember, CommitteeVoteRecord
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import FlopCounter


class AdjudicationDecision(str, Enum):
    PROPOSER_HONEST = "proposer_honest"
    PROPOSER_CHEATED = "proposer_cheated"


@dataclass
class AdjudicationResult:
    """Outcome of a leaf adjudication together with its accounting."""

    decision: AdjudicationDecision
    path: str
    operator_name: str
    op_type: str
    max_violation_ratio: float
    details: Dict[str, object] = field(default_factory=dict)
    committee_votes: List[CommitteeVoteRecord] = field(default_factory=list)
    flops: float = 0.0

    @property
    def proposer_cheated(self) -> bool:
        return self.decision is AdjudicationDecision.PROPOSER_CHEATED


def _leaf_flops(graph_module: GraphModule, operator_name: str,
                operand_values: Sequence[np.ndarray],
                output: np.ndarray) -> float:
    node = graph_module.graph.node(operator_name)
    spec = get_op(node.target)
    return spec.estimate_flops(output, *operand_values, **node.kwargs)


def theoretical_bound_check(
    graph_module: GraphModule,
    operator_name: str,
    operand_values: Sequence[np.ndarray],
    proposer_output: np.ndarray,
    device: DeviceProfile,
    mode: BoundMode = BoundMode.PROBABILISTIC,
) -> AdjudicationResult:
    """Path (i): accept iff |y_P - y_ref| <= tau_theo element-wise.

    Non-finite elements follow
    :func:`~repro.calibration.profiles.non_finite_errors`: both sides NaN,
    or the same infinity, agree; a claim and reference that disagree on
    finiteness are a violation of ratio ``inf`` whatever ``tau`` is.
    """
    bound_interp = BoundInterpreter(device=device, mode=mode)
    reference, tau = bound_interp.bound_single_operator(
        graph_module, operator_name, list(operand_values)
    )
    claim64 = np.asarray(proposer_output, dtype=np.float64)
    reference64 = np.asarray(reference, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        diff = np.asarray(np.abs(claim64 - reference64))
    # A non-finite side makes |a - b| NaN or inf, so finite inputs skip the rule.
    if not np.isfinite(diff).all():
        non_finite_errors(claim64, reference64, diff)
    disagree = np.isinf(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(tau > 0, diff / np.maximum(tau, 1e-300), np.where(diff > 0, np.inf, 0.0))
    ratios = np.where(disagree, np.inf, ratios)
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    cheated = bool(np.any((diff > tau) | disagree))
    node = graph_module.graph.node(operator_name)
    return AdjudicationResult(
        decision=(AdjudicationDecision.PROPOSER_CHEATED if cheated
                  else AdjudicationDecision.PROPOSER_HONEST),
        path="theoretical_bound",
        operator_name=operator_name,
        op_type=node.target,
        max_violation_ratio=max_ratio,
        details={
            "bound_mode": mode.value,
            "max_abs_diff": float(diff.max()) if diff.size else 0.0,
            "max_tau": float(np.max(tau)) if np.size(tau) else 0.0,
        },
        flops=_leaf_flops(graph_module, operator_name, operand_values, reference),
    )


def committee_vote(
    graph_module: GraphModule,
    operator_name: str,
    operand_values: Sequence[np.ndarray],
    proposer_output: np.ndarray,
    committee: Sequence[CommitteeMember],
    thresholds: ThresholdTable,
    committee_envelope=None,
) -> AdjudicationResult:
    """Path (ii): honest-majority vote against the empirical acceptance envelope.

    With a calibrated ``committee_envelope`` each member votes against the
    committed single-operator envelope (root ``r_c``); without one, against
    the full-trace threshold table — the reference tolerance.
    """
    if not committee:
        raise ValueError("committee vote requires at least one member")
    votes = [
        member.vote(graph_module, operator_name, operand_values, proposer_output,
                    thresholds, committee_envelope=committee_envelope)
        for member in committee
    ]
    in_favor = sum(1 for vote in votes if vote.within_threshold)
    accepted = in_favor * 2 > len(votes)
    worst_ratio = max(
        (vote.report.max_ratio for vote in votes if vote.report is not None), default=0.0
    )
    node = graph_module.graph.node(operator_name)
    flops = 0.0
    for _ in committee:
        sample_output = np.asarray(proposer_output)
        flops += _leaf_flops(graph_module, operator_name, operand_values, sample_output)
    return AdjudicationResult(
        decision=(AdjudicationDecision.PROPOSER_HONEST if accepted
                  else AdjudicationDecision.PROPOSER_CHEATED),
        path="committee_vote",
        operator_name=operator_name,
        op_type=node.target,
        max_violation_ratio=float(worst_ratio),
        details={
            "votes_for": in_favor,
            "votes_total": len(votes),
            "envelope": "calibrated" if committee_envelope is not None else "reference",
        },
        committee_votes=votes,
        flops=flops,
    )


def route_and_adjudicate(
    graph_module: GraphModule,
    operator_name: str,
    operand_values: Sequence[np.ndarray],
    proposer_output: np.ndarray,
    challenger_device: DeviceProfile,
    committee: Sequence[CommitteeMember],
    thresholds: ThresholdTable,
    mode: BoundMode = BoundMode.PROBABILISTIC,
    committee_envelope=None,
) -> AdjudicationResult:
    """The challenger's routing policy (Sec. 5.4).

    First run the cheap theoretical check against the challenger's own
    reference; a violation settles the dispute immediately.  When the claim
    lies *within* the theoretical envelope the (tighter, costlier) committee
    vote decides, consulting the calibrated acceptance envelope when one was
    committed.
    """
    theo = theoretical_bound_check(
        graph_module, operator_name, operand_values, proposer_output,
        device=challenger_device, mode=mode,
    )
    if theo.proposer_cheated:
        return theo
    vote = committee_vote(
        graph_module, operator_name, operand_values, proposer_output, committee,
        thresholds, committee_envelope=committee_envelope,
    )
    vote.flops += theo.flops
    vote.details["theoretical_max_ratio"] = theo.max_violation_ratio
    return vote
