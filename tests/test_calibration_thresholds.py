"""Unit tests for threshold construction and the Eq. 15 check."""

import numpy as np
import pytest

from repro.calibration.thresholds import DEFAULT_SAFETY_FACTOR, ThresholdTable
from repro.graph.interpreter import Interpreter
from repro.tensorlib.device import DEVICE_FLEET


def test_default_safety_factor_matches_paper():
    assert DEFAULT_SAFETY_FACTOR == 3.0


def test_thresholds_are_alpha_times_envelope(mlp_calibration, mlp_thresholds):
    for name, calib in mlp_calibration.operators.items():
        assert np.allclose(mlp_thresholds.abs_threshold(name), 3.0 * calib.envelope.abs_values)
        assert np.allclose(mlp_thresholds.rel_threshold(name), 3.0 * calib.envelope.rel_values)


def test_honest_cross_device_execution_never_exceeds(mlp_graph, mlp_thresholds, mlp_input_factory):
    inputs = mlp_input_factory(777)
    trace_a = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, inputs, record=True)
    trace_b = Interpreter(DEVICE_FLEET[3]).run(mlp_graph, inputs, record=True)
    for name in mlp_thresholds.operator_names():
        report = mlp_thresholds.check(name, trace_a.values[name], trace_b.values[name])
        assert not report.exceeded, f"honest execution flagged at {name}: ratio {report.max_ratio}"


def test_tampered_output_is_flagged(mlp_graph, mlp_thresholds, mlp_input_factory):
    inputs = mlp_input_factory(888)
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, inputs, record=True)
    name = "linear_1"
    tampered = trace.values[name] + 1e-2
    report = mlp_thresholds.check(name, tampered, trace.values[name])
    assert report.exceeded
    assert report.max_ratio > 10.0
    assert bool(report) is True


def test_identical_tensors_have_zero_ratio(mlp_thresholds, rng):
    name = mlp_thresholds.operator_names()[0]
    # identical proposer/reference values -> zero error everywhere
    value = rng.standard_normal((4, 6)).astype(np.float32)
    report = mlp_thresholds.check(name, value, value)
    assert report.max_ratio == 0.0
    assert not report.exceeded


def test_unknown_operator_raises(mlp_thresholds, rng):
    with pytest.raises(KeyError):
        mlp_thresholds.check("no_such_operator", rng.standard_normal(4), rng.standard_normal(4))


def test_scaled_table(mlp_thresholds):
    doubled = mlp_thresholds.scaled(2.0)
    for name in mlp_thresholds.operator_names():
        assert np.allclose(doubled.abs_threshold(name), 2.0 * mlp_thresholds.abs_threshold(name))
    assert doubled.alpha == pytest.approx(2.0 * mlp_thresholds.alpha)


def test_cap_curve_is_monotone(mlp_thresholds):
    for name in mlp_thresholds.operator_names():
        ranks, caps = mlp_thresholds.cap_curve(name)
        assert ranks[0] == 0.0 and ranks[-1] == 1.0
        assert (np.diff(caps) >= -1e-18).all()


def test_leaf_payloads_unique_per_operator(mlp_thresholds):
    payloads = mlp_thresholds.leaf_payloads()
    assert set(payloads) == set(mlp_thresholds.operator_names())
    assert len(set(payloads.values())) == len(payloads)


def test_dict_roundtrip(mlp_thresholds):
    restored = ThresholdTable.from_dict(mlp_thresholds.to_dict())
    assert restored.alpha == mlp_thresholds.alpha
    assert restored.operator_names() == mlp_thresholds.operator_names()
    for name in mlp_thresholds.operator_names():
        assert np.allclose(restored.abs_threshold(name), mlp_thresholds.abs_threshold(name))
        assert restored.op_types[name] == mlp_thresholds.op_types[name]


def test_check_profile_equivalent_to_check(mlp_graph, mlp_thresholds, mlp_input_factory):
    from repro.calibration.profiles import PercentileProfile, elementwise_errors

    inputs = mlp_input_factory(999)
    trace_a = Interpreter(DEVICE_FLEET[1]).run(mlp_graph, inputs, record=True)
    trace_b = Interpreter(DEVICE_FLEET[2]).run(mlp_graph, inputs, record=True)
    name = mlp_thresholds.operator_names()[0]
    abs_err, rel_err = elementwise_errors(trace_a.values[name], trace_b.values[name])
    profile = PercentileProfile.from_errors(abs_err, rel_err, mlp_thresholds.grid)
    direct = mlp_thresholds.check(name, trace_a.values[name], trace_b.values[name])
    via_profile = mlp_thresholds.check_profile(name, profile)
    assert direct.max_ratio == pytest.approx(via_profile.max_ratio)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_proposed_element_is_flagged(mlp_graph, mlp_thresholds,
                                                mlp_input_factory, value):
    from repro.calibration.committee import calibrate_committee_envelope

    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_input_factory(888),
                                             record=True)
    reference = trace.values["softmax"]
    proposed = reference.copy()
    proposed[0, 0] = value
    envelope = calibrate_committee_envelope(mlp_graph, [mlp_input_factory(1000)])
    for checker in (mlp_thresholds, envelope):
        report = checker.check("softmax", proposed, reference)
        assert report.exceeded
        assert report.max_ratio == float("inf")
        # Matching non-finite elements on both sides are agreement, not error.
        both = reference.copy()
        both[0, 0] = value
        assert not checker.check("softmax", both, both.copy()).exceeded
