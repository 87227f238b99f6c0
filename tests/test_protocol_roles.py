"""Unit tests for the protocol roles (proposer, challenger, committee)."""

import numpy as np
import pytest

from repro.graph.subgraph import SubgraphSlice
from repro.merkle.commitments import commit_model
from repro.protocol.roles import (
    AdversarialProposer,
    Challenger,
    CommitteeMember,
    HonestProposer,
)
from repro.tensorlib.device import DEVICE_FLEET


@pytest.fixture(scope="module")
def commitment(mlp_graph, mlp_thresholds):
    return commit_model(mlp_graph, mlp_thresholds)


def test_honest_proposer_result_structure(mlp_graph, commitment, mlp_inputs):
    proposer = HonestProposer("prop", DEVICE_FLEET[0])
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    assert result.model_name == "tiny_mlp"
    assert result.forward_flops > 0
    assert result.device_name == DEVICE_FLEET[0].name
    assert result.commitment.meta["proposer"] == "prop"
    # The committed trace includes every operator value.
    for node in mlp_graph.graph.operators:
        assert node.name in result.trace_values


def test_honest_results_from_different_devices_commit_differently(mlp_graph, commitment,
                                                                   mlp_inputs):
    result_a = HonestProposer("a", DEVICE_FLEET[0]).execute(mlp_graph, commitment, mlp_inputs)
    result_b = HonestProposer("b", DEVICE_FLEET[3]).execute(mlp_graph, commitment, mlp_inputs)
    # Outputs differ in low bits across devices, so C0 differs too.
    assert result_a.commitment.value != result_b.commitment.value


def test_adversarial_proposer_applies_additive_perturbation(mlp_graph, commitment, mlp_inputs):
    honest = HonestProposer("h", DEVICE_FLEET[0]).execute(mlp_graph, commitment, mlp_inputs)
    cheat = AdversarialProposer("c", DEVICE_FLEET[0], {"gelu": np.float32(0.1)})
    result = cheat.execute(mlp_graph, commitment, mlp_inputs)
    assert np.allclose(result.trace_values["gelu"],
                       honest.trace_values["gelu"] + 0.1, atol=1e-5)
    # Downstream values are computed from the perturbed tensor (self-consistent cheat).
    assert not np.allclose(result.outputs[0], honest.outputs[0])


def test_adversarial_proposer_callable_perturbation(mlp_graph, commitment, mlp_inputs):
    cheat = AdversarialProposer("c", DEVICE_FLEET[1],
                                {"relu": lambda value: np.zeros_like(value)})
    result = cheat.execute(mlp_graph, commitment, mlp_inputs)
    assert np.allclose(result.trace_values["relu"], 0.0)


def test_adversarial_proposer_unknown_node_raises(mlp_graph, commitment, mlp_inputs):
    cheat = AdversarialProposer("c", DEVICE_FLEET[1], {"nonexistent": np.float32(1.0)})
    with pytest.raises(KeyError):
        cheat.execute(mlp_graph, commitment, mlp_inputs)


def test_adversarial_proposer_perturbation_management(mlp_graph, commitment, mlp_inputs):
    cheat = AdversarialProposer("c", DEVICE_FLEET[0])
    cheat.set_perturbation("gelu", np.float32(0.2))
    assert "gelu" in cheat.perturbations
    cheat.clear_perturbations()
    honest_like = cheat.execute(mlp_graph, commitment, mlp_inputs)
    reference = HonestProposer("h", DEVICE_FLEET[0]).execute(mlp_graph, commitment, mlp_inputs)
    assert np.array_equal(honest_like.outputs[0], reference.outputs[0])


def test_proposer_partition_produces_verifiable_records(mlp_graph, commitment, mlp_inputs):
    proposer = HonestProposer("prop", DEVICE_FLEET[0])
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    records = proposer.partition(mlp_graph, commitment, result,
                                 SubgraphSlice(0, mlp_graph.num_operators), n_way=3)
    assert len(records) == 3
    assert records[0].slice_start == 0
    assert records[-1].slice_end == mlp_graph.num_operators


def test_challenger_accepts_honest_result(mlp_graph, commitment, mlp_inputs, mlp_thresholds):
    proposer = HonestProposer("prop", DEVICE_FLEET[0])
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    challenger = Challenger("chal", DEVICE_FLEET[3], mlp_thresholds)
    ok, reports = challenger.verify_result(mlp_graph, result)
    assert ok
    assert all(not r.exceeded for r in reports)


def test_challenger_flags_tampered_result(mlp_graph, commitment, mlp_inputs, mlp_thresholds):
    # Perturb a single logit (a uniform shift would be absorbed by the final
    # softmax's shift invariance and is not an output-visible cheat).
    logits_node = mlp_graph.graph.node("linear_2")
    delta = np.zeros(logits_node.shape, dtype=np.float32)
    delta[:, 0] = 0.05
    cheat = AdversarialProposer("c", DEVICE_FLEET[0], {"linear_2": delta})
    result = cheat.execute(mlp_graph, commitment, mlp_inputs)
    challenger = Challenger("chal", DEVICE_FLEET[3], mlp_thresholds)
    ok, reports = challenger.verify_result(mlp_graph, result)
    assert not ok
    assert any(r.exceeded for r in reports)


def test_challenger_selection_rule_finds_offending_child(mlp_graph, commitment, mlp_inputs,
                                                         mlp_thresholds):
    cheat = AdversarialProposer("c", DEVICE_FLEET[0], {"relu": np.float32(0.05)})
    result = cheat.execute(mlp_graph, commitment, mlp_inputs)
    challenger = Challenger("chal", DEVICE_FLEET[2], mlp_thresholds)
    proposer_view = HonestProposer("helper", DEVICE_FLEET[0])
    records = proposer_view.partition(mlp_graph, commitment, result,
                                      SubgraphSlice(0, mlp_graph.num_operators), n_way=3)
    outcome = challenger.select_offending(mlp_graph, commitment, records)
    assert outcome.selected_index is not None
    offending_index = mlp_graph.graph.operator_index("relu")
    chosen = records[outcome.selected_index]
    assert chosen.slice_start <= offending_index < chosen.slice_end
    assert outcome.merkle_checks > 0
    assert outcome.flops > 0


def test_challenger_selection_none_for_honest_children(mlp_graph, commitment, mlp_inputs,
                                                       mlp_thresholds):
    proposer = HonestProposer("prop", DEVICE_FLEET[1])
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    challenger = Challenger("chal", DEVICE_FLEET[2], mlp_thresholds)
    records = proposer.partition(mlp_graph, commitment, result,
                                 SubgraphSlice(0, mlp_graph.num_operators), n_way=4)
    outcome = challenger.select_offending(mlp_graph, commitment, records)
    assert outcome.selected_index is None
    assert outcome.all_valid


def test_committee_member_vote(mlp_graph, commitment, mlp_inputs, mlp_thresholds):
    proposer = HonestProposer("prop", DEVICE_FLEET[0])
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    member = CommitteeMember("cm", DEVICE_FLEET[2])
    node = next(n for n in mlp_graph.graph.operators if n.target == "gelu")
    operands = [result.trace_values[node.args[0].name]]
    honest_vote = member.vote(mlp_graph, node.name, operands,
                              result.trace_values[node.name], mlp_thresholds)
    assert honest_vote.within_threshold
    cheating_output = result.trace_values[node.name] + 0.01
    cheat_vote = member.vote(mlp_graph, node.name, operands, cheating_output, mlp_thresholds)
    assert not cheat_vote.within_threshold
