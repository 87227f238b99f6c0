"""Unit tests for single-operator adjudication (Phase 3)."""

import numpy as np
import pytest

from repro.bounds.fp_model import BoundMode
from repro.calibration import CommitteeEnvelopeConfig, calibrate_committee_envelope
from repro.graph.interpreter import Interpreter
from repro.graph.node import Node
from repro.protocol.adjudication import (
    AdjudicationDecision,
    committee_vote,
    route_and_adjudicate,
    theoretical_bound_check,
)
from repro.protocol.roles import CommitteeMember, CommitteeVoteRecord
from repro.tensorlib.device import DEVICE_FLEET


def _leaf_state(mlp_graph, mlp_inputs, op_target="linear_1", device=DEVICE_FLEET[0]):
    """Return (operator name, operand values, honest output) from a proposer trace."""
    trace = Interpreter(device).run(mlp_graph, mlp_inputs, record=True)
    node = mlp_graph.graph.node(op_target)
    operands = []
    for arg in node.args:
        if isinstance(arg, Node):
            if arg.op == "get_param":
                operands.append(np.asarray(mlp_graph.parameters[arg.target]))
            else:
                operands.append(trace.values[arg.name])
        else:
            operands.append(arg)
    return node.name, operands, trace.values[node.name]


@pytest.fixture(scope="module")
def committee():
    return [CommitteeMember(f"cm{i}", DEVICE_FLEET[i % len(DEVICE_FLEET)]) for i in range(3)]


def test_theoretical_check_accepts_honest_cross_device_output(mlp_graph, mlp_inputs):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs, device=DEVICE_FLEET[0])
    # Challenger re-executes on a different device: divergence is pure FP noise.
    result = theoretical_bound_check(mlp_graph, name, operands, honest_output,
                                     device=DEVICE_FLEET[3])
    assert result.decision is AdjudicationDecision.PROPOSER_HONEST
    assert result.max_violation_ratio <= 1.0
    assert result.path == "theoretical_bound"
    assert result.flops > 0


def test_theoretical_check_rejects_large_perturbation(mlp_graph, mlp_inputs):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    result = theoretical_bound_check(mlp_graph, name, operands, honest_output + 0.01,
                                     device=DEVICE_FLEET[1])
    assert result.proposer_cheated
    assert result.max_violation_ratio > 1.0


def test_theoretical_check_deterministic_mode_is_more_permissive(mlp_graph, mlp_inputs):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    perturbed = honest_output + np.float32(2e-6)
    prob = theoretical_bound_check(mlp_graph, name, operands, perturbed,
                                   device=DEVICE_FLEET[1], mode=BoundMode.PROBABILISTIC)
    det = theoretical_bound_check(mlp_graph, name, operands, perturbed,
                                  device=DEVICE_FLEET[1], mode=BoundMode.DETERMINISTIC)
    assert det.max_violation_ratio <= prob.max_violation_ratio


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_theoretical_check_rejects_a_non_finite_claim_whatever_tau(
        mlp_graph, mlp_inputs, bad):
    """A claim that disagrees with the reference on finiteness is a violation
    of ratio inf, in the loosest bound mode too."""
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    claim = np.array(honest_output, dtype=np.float32)
    claim.flat[3] = bad
    for mode in BoundMode:
        result = theoretical_bound_check(mlp_graph, name, operands, claim,
                                         device=DEVICE_FLEET[1], mode=mode)
        assert result.proposer_cheated
        assert result.max_violation_ratio == np.inf


def test_theoretical_check_accepts_matching_non_finite_values(mlp_graph, mlp_inputs):
    """NaN against NaN, or the same infinity, is no violation."""
    name, operands, _ = _leaf_state(mlp_graph, mlp_inputs, op_target="gelu")
    operands = [np.array(operand, dtype=np.float32) for operand in operands]
    operands[0].flat[0] = np.nan
    operands[0].flat[1] = np.inf
    reference = Interpreter(DEVICE_FLEET[1]).run_single_operator(mlp_graph, name, operands)
    assert np.isnan(reference.flat[0]) and reference.flat[1] == np.inf
    result = theoretical_bound_check(mlp_graph, name, operands, reference,
                                     device=DEVICE_FLEET[1])
    assert not result.proposer_cheated
    assert result.max_violation_ratio == 0.0

    flipped = np.array(reference)
    flipped.flat[1] = -np.inf
    assert theoretical_bound_check(mlp_graph, name, operands, flipped,
                                   device=DEVICE_FLEET[1]).proposer_cheated


def test_committee_vote_accepts_honest_and_rejects_cheat(mlp_graph, mlp_inputs, mlp_thresholds,
                                                         committee):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    accept = committee_vote(mlp_graph, name, operands, honest_output, committee, mlp_thresholds)
    assert accept.decision is AdjudicationDecision.PROPOSER_HONEST
    assert accept.details["votes_for"] == len(committee)

    reject = committee_vote(mlp_graph, name, operands, honest_output + 0.01,
                            committee, mlp_thresholds)
    assert reject.proposer_cheated
    assert reject.details["votes_for"] < len(committee)
    assert len(reject.committee_votes) == len(committee)


def test_committee_vote_requires_members(mlp_graph, mlp_inputs, mlp_thresholds):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    with pytest.raises(ValueError):
        committee_vote(mlp_graph, name, operands, honest_output, [], mlp_thresholds)


def test_routing_with_empty_committee_raises_for_subtle_claims(mlp_graph, mlp_inputs,
                                                               mlp_thresholds):
    """A claim inside tau_theo must reach the committee; with no members the
    routing cannot adjudicate and surfaces the configuration error."""
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    with pytest.raises(ValueError, match="at least one member"):
        route_and_adjudicate(mlp_graph, name, operands, honest_output,
                             challenger_device=DEVICE_FLEET[2], committee=[],
                             thresholds=mlp_thresholds)


class _YesMember(CommitteeMember):
    """Always votes for the proposer (vote-splitting test double)."""

    def vote(self, graph_module, operator_name, operand_values, proposer_output,
             thresholds, committee_envelope=None):
        return CommitteeVoteRecord(self.name, True, None)


def test_tie_vote_resolves_against_the_proposer(mlp_graph, mlp_inputs,
                                                mlp_thresholds):
    """An even committee splitting 1-1 has no majority *for* the proposer:
    acceptance requires a strict majority, so ties slash."""
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    split = [_YesMember("yes", DEVICE_FLEET[0]),
             CommitteeMember("honest", DEVICE_FLEET[1])]
    result = committee_vote(mlp_graph, name, operands, honest_output + 0.01,
                            split, mlp_thresholds)
    assert result.details["votes_for"] == 1
    assert result.details["votes_total"] == 2
    assert result.proposer_cheated

    # The same even committee unanimous for an honest claim still accepts.
    accept = committee_vote(mlp_graph, name, operands, honest_output,
                            split, mlp_thresholds)
    assert accept.details["votes_for"] == 2
    assert not accept.proposer_cheated


def test_theoretical_vs_committee_routing_boundary(mlp_graph, mlp_inputs,
                                                   mlp_thresholds, committee):
    """Claims straddling tau_theo route to different paths: just outside the
    IEEE envelope settles on the theoretical check, just inside falls through
    to the committee."""
    from repro.bounds.coexec import BoundInterpreter

    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    reference, tau = BoundInterpreter(DEVICE_FLEET[2]).bound_single_operator(
        mlp_graph, name, operands)
    just_outside = (reference + 1.5 * tau).astype(np.float32)
    just_inside = (reference + 0.5 * tau).astype(np.float32)

    outside = route_and_adjudicate(mlp_graph, name, operands, just_outside,
                                   challenger_device=DEVICE_FLEET[2],
                                   committee=committee, thresholds=mlp_thresholds)
    assert outside.path == "theoretical_bound"
    assert outside.proposer_cheated

    inside = route_and_adjudicate(mlp_graph, name, operands, just_inside,
                                  challenger_device=DEVICE_FLEET[2],
                                  committee=committee, thresholds=mlp_thresholds)
    assert inside.path == "committee_vote"


# ----------------------------------------------------------------------
# Calibrated committee envelope at the leaf
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def committee_envelope(mlp_graph, mlp_input_factory):
    return calibrate_committee_envelope(
        mlp_graph, [mlp_input_factory(1000 + i) for i in range(8)],
        CommitteeEnvelopeConfig(devices=DEVICE_FLEET),
    )


def test_committee_vote_reference_is_the_envelope_free_path(
        mlp_graph, mlp_inputs, mlp_thresholds, committee):
    """Without an envelope every member votes against the full-trace table."""
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    ref = committee_vote(mlp_graph, name, operands, honest_output,
                         committee, mlp_thresholds, committee_envelope=None)
    direct = [member.vote(mlp_graph, name, operands, honest_output, mlp_thresholds)
              for member in committee]
    assert ref.details["envelope"] == "reference"
    assert [v.within_threshold for v in ref.committee_votes] == \
        [v.within_threshold for v in direct]
    assert [v.report.max_ratio for v in ref.committee_votes] == \
        [v.report.max_ratio for v in direct]


def test_calibrated_envelope_vote_is_marked_and_accepts_honest(
        mlp_graph, mlp_inputs, mlp_thresholds, committee, committee_envelope):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    result = committee_vote(mlp_graph, name, operands, honest_output,
                            committee, mlp_thresholds,
                            committee_envelope=committee_envelope)
    assert result.details["envelope"] == "calibrated"
    assert not result.proposer_cheated
    # Members really consulted the envelope: every report carries a finite
    # ratio measured against it, not an abstention.
    assert all(v.report is not None for v in result.committee_votes)


def test_calibrated_envelope_catches_tamper_inside_full_trace_tolerance(
        mlp_graph, mlp_inputs, mlp_thresholds, committee, committee_envelope):
    """A tamper riding inside the committed full-trace tolerance is caught
    by the single-op envelope — the ROADMAP escape mechanism, reproduced at
    the adjudication level.

    The perturbation is projected onto the committed cap curve at half the
    tolerance edge (the simulator's ``bound_edge`` shape), so its percentile
    profile sits under the full-trace thresholds by construction; the
    committee's own re-execution of the (bit-deterministic) operator exposes
    it immediately.
    """
    from repro.sim.faults import bound_edge_delta

    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs,
                                                op_target="gelu")
    delta = bound_edge_delta(honest_output, mlp_thresholds, name,
                             edge_factor=0.5, seed=99)
    tampered = (honest_output + delta).astype(np.float32)
    assert float(np.abs(delta).max()) > 0

    reference = committee_vote(mlp_graph, name, operands, tampered,
                               committee, mlp_thresholds, committee_envelope=None)
    calibrated = committee_vote(mlp_graph, name, operands, tampered,
                                committee, mlp_thresholds,
                                committee_envelope=committee_envelope)
    assert not reference.proposer_cheated  # escapes the fixed tolerance
    assert calibrated.proposer_cheated     # caught by the leaf envelope


def test_routing_uses_theoretical_path_for_gross_violations(mlp_graph, mlp_inputs,
                                                            mlp_thresholds, committee):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    result = route_and_adjudicate(mlp_graph, name, operands, honest_output + 0.05,
                                  challenger_device=DEVICE_FLEET[2], committee=committee,
                                  thresholds=mlp_thresholds)
    assert result.path == "theoretical_bound"
    assert result.proposer_cheated


def test_routing_falls_back_to_committee_for_subtle_claims(mlp_graph, mlp_inputs,
                                                           mlp_thresholds, committee):
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs)
    result = route_and_adjudicate(mlp_graph, name, operands, honest_output,
                                  challenger_device=DEVICE_FLEET[2], committee=committee,
                                  thresholds=mlp_thresholds)
    assert result.path == "committee_vote"
    assert result.decision is AdjudicationDecision.PROPOSER_HONEST
    assert "theoretical_max_ratio" in result.details


def test_routing_committee_catches_within_theoretical_but_outside_empirical(
        mlp_graph, mlp_inputs, mlp_thresholds, committee):
    """A perturbation small enough to hide inside tau_theo is still caught by the
    (much tighter) empirical committee vote — the paper's motivation for path (ii)."""
    name, operands, honest_output = _leaf_state(mlp_graph, mlp_inputs, op_target="linear")
    from repro.bounds.coexec import BoundInterpreter

    reference, tau = BoundInterpreter(DEVICE_FLEET[2]).bound_single_operator(
        mlp_graph, name, operands)
    sneaky = (reference + 0.5 * tau).astype(np.float32)  # inside tau_theo everywhere
    result = route_and_adjudicate(mlp_graph, name, operands, sneaky,
                                  challenger_device=DEVICE_FLEET[2], committee=committee,
                                  thresholds=mlp_thresholds)
    assert result.path == "committee_vote"
    assert result.proposer_cheated
