"""End-to-end integration tests on real zoo models.

These are the heaviest tests in the suite: they take a real workload (MiniBERT
/ MiniResNet), calibrate it across the simulated fleet, commit it, and serve
honest and cheating proposers' requests through ``TAOService`` — asserting the
paper's headline behaviours (no false positives, exact fault localization,
slashing, bounded dispute cost).
"""

import numpy as np
import pytest

from repro.models import get_model_spec
from repro.protocol.service import TAOService
from repro.tensorlib.device import DEVICE_FLEET


def _deployment(name, calibration_samples, seed):
    spec = get_model_spec(name)
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1)
    service = TAOService(n_way=4, committee_size=3)
    session = service.register_model(
        graph, calibration_inputs=spec.dataset(module, calibration_samples, seed=seed,
                                               batch_size=1))
    return spec, module, graph, service, session


def _serve(service, graph, inputs, proposer):
    request_id = service.submit(graph.name, inputs, proposer=proposer)
    service.process()
    return service.request(request_id).report


@pytest.fixture(scope="module")
def bert_deployment():
    return _deployment("bert_mini", 5, seed=1)


@pytest.fixture(scope="module")
def resnet_deployment():
    return _deployment("resnet_mini", 4, seed=2)


def test_bert_honest_requests_have_no_false_positives(bert_deployment):
    spec, module, graph, service, session = bert_deployment
    for i, device in enumerate(DEVICE_FLEET):
        proposer = session.make_honest_proposer(f"prov-{i}", device)
        report = _serve(service, graph, spec.sample_inputs(module, 1, seed=600 + i), proposer)
        assert report.final_status == "finalized"
        assert not report.challenged


def test_bert_model_swap_is_caught_and_localized(bert_deployment):
    """A model downgrade (zeroing an attention projection output) is detected,
    localized to an operator inside the tampered slice, and slashed."""
    spec, module, graph, service, session = bert_deployment
    victim = next(n.name for n in graph.graph.operators if n.target == "linear")
    cheater = session.make_adversarial_proposer(
        "swapper", {victim: lambda value: np.zeros_like(value)}, DEVICE_FLEET[0]
    )
    report = _serve(service, graph, spec.sample_inputs(module, 1, seed=700), cheater)
    assert report.final_status == "proposer_slashed"
    assert report.dispute.localized_operator == victim
    stats = report.dispute.statistics
    assert stats.rounds >= 2
    assert stats.cost_ratio(report.result.forward_flops) < 10.0
    assert stats.gas_used < 5_000_000


def test_bert_subtle_quantization_is_caught(bert_deployment):
    spec, module, graph, service, session = bert_deployment
    ffn = [n.name for n in graph.graph.operators if n.target == "linear"][-1]

    def quantize(value):
        return (np.round(value / 1e-2) * 1e-2).astype(np.float32)

    cheater = session.make_adversarial_proposer("quantizer", {ffn: quantize}, DEVICE_FLEET[1])
    report = _serve(service, graph, spec.sample_inputs(module, 1, seed=701), cheater)
    assert report.challenged
    assert report.final_status == "proposer_slashed"


def test_resnet_fault_positions_localize_correctly(resnet_deployment):
    spec, module, graph, service, session = resnet_deployment
    operators = graph.graph.operators
    victims = [operators[3].name, operators[len(operators) // 2].name, operators[-3].name]
    for i, victim in enumerate(victims):
        cheater = session.make_adversarial_proposer(
            f"cheat-{i}", {victim: np.float32(0.05)}, DEVICE_FLEET[0]
        )
        report = _serve(service, graph, spec.sample_inputs(module, 1, seed=800 + i), cheater)
        assert report.final_status == "proposer_slashed", victim
        assert report.dispute.localized_operator == victim


def test_resnet_honest_cross_device_requests_finalize(resnet_deployment):
    spec, module, graph, service, session = resnet_deployment
    proposer = session.make_honest_proposer("resnet-prov", DEVICE_FLEET[2])
    report = _serve(service, graph, spec.sample_inputs(module, 1, seed=900), proposer)
    assert report.final_status == "finalized"
    assert report.result.forward_flops > 1e6


def test_dispute_cost_is_comparable_to_forward_pass(bert_deployment):
    spec, module, graph, service, session = bert_deployment
    victim = graph.graph.operators[len(graph.graph.operators) // 2].name
    cheater = session.make_adversarial_proposer("mid-cheat", {victim: np.float32(0.05)},
                                                DEVICE_FLEET[0])
    report = _serve(service, graph, spec.sample_inputs(module, 1, seed=901), cheater)
    ratio = report.dispute.statistics.cost_ratio(report.result.forward_flops)
    # DCR should be on the order of a forward pass (paper: 0.39x - 1.24x), not
    # the rounds-times-forward blowup naive replication would cost.
    assert 0.1 < ratio < 6.0
