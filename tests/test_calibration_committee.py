"""Committee-leaf acceptance-envelope calibration unit tests."""

import numpy as np
import pytest

from repro.calibration import (
    PERCENTILE_GRID,
    CommitteeEnvelopeConfig,
    CommitteeEnvelopeProfile,
    calibrate_committee_envelope,
)
from repro.calibration.committee import leaf_elementwise_errors, leaf_operands
from repro.graph.interpreter import Interpreter
from repro.tensorlib import DEVICE_FLEET


@pytest.fixture(scope="module")
def envelope(mlp_graph, mlp_input_factory):
    return calibrate_committee_envelope(
        mlp_graph, [mlp_input_factory(1000 + i) for i in range(8)],
        CommitteeEnvelopeConfig(devices=DEVICE_FLEET),
    )


def test_envelope_covers_every_operator(mlp_graph, envelope):
    operator_names = {node.name for node in mlp_graph.graph.operators}
    assert set(envelope.operator_names()) == operator_names
    assert envelope.num_samples == 8
    assert envelope.num_pairs == len(DEVICE_FLEET) * (len(DEVICE_FLEET) - 1)
    for name in envelope.operator_names():
        assert envelope.abs_thresholds[name].shape == (len(PERCENTILE_GRID),)
        # Percentile curves are nondecreasing; max/percentile aggregation
        # preserves that.
        assert np.all(np.diff(envelope.abs_thresholds[name]) >= 0)
        assert name in envelope.stability


def test_envelope_accepts_honest_single_op_reexecution(mlp_graph, mlp_input_factory,
                                                       envelope):
    """Fresh-input honest leaf states stay inside the calibrated envelope."""
    for seed in (7, 8, 9):
        inputs = mlp_input_factory(5000 + seed)
        for proposer_device in DEVICE_FLEET:
            trace = Interpreter(proposer_device).run(mlp_graph, inputs, record=True)
            for node in mlp_graph.graph.operators:
                operands = leaf_operands(mlp_graph, node, trace.values)
                for member_device in DEVICE_FLEET:
                    reference = Interpreter(member_device).run_single_operator(
                        mlp_graph, node.name, operands)
                    report = envelope.check(node.name, trace.values[node.name],
                                            reference)
                    assert not report.exceeded, (
                        f"honest leaf flagged: {node.name} proposer="
                        f"{proposer_device.name} member={member_device.name} "
                        f"ratio={report.max_ratio}"
                    )


def test_envelope_flags_tampered_leaf_claims(mlp_graph, mlp_inputs, envelope):
    """Low-bit tampers far outside honest spread exceed the envelope."""
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs, record=True)
    for op_name in ("linear", "linear_1", "gelu"):
        node = mlp_graph.graph.node(op_name)
        operands = leaf_operands(mlp_graph, node, trace.values)
        reference = Interpreter(DEVICE_FLEET[1]).run_single_operator(
            mlp_graph, op_name, operands)
        honest = trace.values[op_name]
        tampered = honest + 0.01 * np.maximum(np.abs(honest), 0.1).astype(np.float32)
        report = envelope.check(op_name, tampered, reference)
        assert report.exceeded, op_name


def test_deterministic_operator_envelope_is_exact_zero(envelope):
    """Bit-deterministic kernels calibrate a zero envelope: any deviation is
    fraud, and honest re-execution has exactly zero error (no floor blow-up)."""
    assert float(envelope.abs_thresholds["relu"].max()) == 0.0
    value = np.linspace(-1.0, 1.0, 32, dtype=np.float32)
    clean = envelope.check("relu", value, value)
    assert not clean.exceeded and clean.max_ratio == 0.0
    tampered = envelope.check("relu", value + np.float32(1e-6), value)
    assert tampered.exceeded


def test_leaf_statistic_floors_near_zero_denominators():
    proposed = np.array([1.0, 1e-9, -2.0], dtype=np.float32)
    reference = np.array([1.0 + 1e-6, 2e-9, -2.0], dtype=np.float32)
    abs_err, rel_err = leaf_elementwise_errors(proposed, reference,
                                               rel_scale_floor=1e-3)
    # The near-zero element is measured against 1e-3 * max|proposed| = 2e-3,
    # not against its own vanishing magnitude.
    assert rel_err[1] == pytest.approx(abs_err[1] / 2e-3)
    # Elements of consequential size keep the plain relative error.
    assert rel_err[0] == pytest.approx(abs_err[0] / 1.0, rel=1e-6)


_REFERENCE = np.tile(np.arange(1.0, 5.0, dtype=np.float32), (3, 1))
_SQUARE = np.arange(16.0, dtype=np.float32).reshape(4, 4)


@pytest.mark.parametrize("checker_name", ["envelope", "mlp_thresholds"])
@pytest.mark.parametrize("proposed, reference", [
    (_REFERENCE[:1], _REFERENCE),       # broadcasts onto equal rows
    (_REFERENCE[0, 0], _REFERENCE),     # a scalar claim
    (_REFERENCE.T, _REFERENCE),         # same size, transposed
    (_SQUARE.T, _SQUARE),               # same shape only by transposition
    (_REFERENCE.reshape(4, 3), _REFERENCE),
], ids=["row", "scalar", "transposed", "square-transposed", "reshaped"])
def test_mismatched_claim_shape_is_exceeded(request, checker_name, proposed,
                                            reference):
    """A claim shaped unlike the reference fails either Eq. 15 check outright."""
    checker = request.getfixturevalue(checker_name)
    name = checker.operator_names()[0]
    report = checker.check(name, proposed, reference)
    assert report.exceeded and report.node_name == name
    if np.shape(proposed) != reference.shape:
        assert report.max_ratio == float("inf")


def test_leaf_statistic_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        leaf_elementwise_errors(_REFERENCE.T, _REFERENCE)


def test_floor_merges_elementwise_maximum(envelope, mlp_thresholds):
    floored = envelope.floor(mlp_thresholds)
    assert isinstance(floored, CommitteeEnvelopeProfile)
    for name in mlp_thresholds.operator_names():
        expected = np.maximum(mlp_thresholds.abs_thresholds[name],
                              envelope.abs_thresholds[name])
        np.testing.assert_array_equal(floored.abs_thresholds[name], expected)
        expected_rel = np.maximum(mlp_thresholds.rel_thresholds[name],
                                  envelope.rel_thresholds[name])
        np.testing.assert_array_equal(floored.rel_thresholds[name], expected_rel)
    # The floored checker inherits the leaf statistic's provenance.
    assert floored.rel_scale_floor == envelope.rel_scale_floor


def test_floor_rejects_grid_mismatch(envelope, mlp_thresholds):
    import dataclasses
    other = dataclasses.replace(mlp_thresholds, grid=(0.0, 50.0, 100.0))
    with pytest.raises(ValueError, match="grid"):
        envelope.floor(other)


def test_serialization_round_trip(envelope):
    payload = envelope.to_dict()
    restored = CommitteeEnvelopeProfile.from_dict(payload)
    assert restored.model_name == envelope.model_name
    assert restored.envelope_percentile == envelope.envelope_percentile
    assert restored.rel_scale_floor == envelope.rel_scale_floor
    assert restored.operator_names() == envelope.operator_names()
    for name in envelope.operator_names():
        np.testing.assert_allclose(restored.abs_thresholds[name],
                                   envelope.abs_thresholds[name])
        np.testing.assert_allclose(restored.rel_thresholds[name],
                                   envelope.rel_thresholds[name])


def test_leaf_payloads_pin_decision_rule_provenance(envelope):
    payloads = envelope.leaf_payloads()
    assert set(payloads) == set(envelope.operator_names())
    sample = payloads["linear"]
    assert b"envelope_percentile" in sample
    assert b"rel_scale_floor" in sample
    assert b"safety_factor" in sample


def test_config_validation():
    with pytest.raises(ValueError, match="two devices"):
        CommitteeEnvelopeConfig(devices=(DEVICE_FLEET[0],))
    with pytest.raises(ValueError, match="envelope_percentile"):
        CommitteeEnvelopeConfig(envelope_percentile=0.0)
    with pytest.raises(ValueError, match="safety_factor"):
        CommitteeEnvelopeConfig(safety_factor=0.0)
    with pytest.raises(ValueError, match="rel_scale_floor"):
        CommitteeEnvelopeConfig(rel_scale_floor=1.0)


def test_lower_envelope_percentile_is_tighter(mlp_graph, mlp_input_factory):
    dataset = [mlp_input_factory(1000 + i) for i in range(8)]
    loose = calibrate_committee_envelope(
        mlp_graph, dataset, CommitteeEnvelopeConfig(envelope_percentile=100.0))
    tight = calibrate_committee_envelope(
        mlp_graph, dataset, CommitteeEnvelopeConfig(envelope_percentile=50.0))
    assert all(
        np.all(tight.abs_thresholds[name] <= loose.abs_thresholds[name])
        for name in loose.operator_names()
    )
    # And at least one operator is strictly tighter somewhere.
    assert any(
        np.any(tight.abs_thresholds[name] < loose.abs_thresholds[name])
        for name in loose.operator_names()
    )
