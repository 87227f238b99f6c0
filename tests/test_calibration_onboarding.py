"""Tests for onboarding new device configurations (Sec. 7 discussion)."""

import numpy as np
import pytest

from repro.calibration.onboarding import detect_configuration_drift, onboard_device
from repro.tensorlib.accumulate import AccumulationStrategy
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile

#: A device with a reduced-precision (TF32-style) accumulate fast path: its
#: rounding behaviour sits far outside what the FP32 fleet was calibrated on,
#: so it cannot serve under the existing commitment until it is onboarded as
#: its own configuration class.
EXOTIC_DEVICE = DeviceProfile(
    name="sim-exotic-accelerator",
    reduction_chunk=32,
    strategy=AccumulationStrategy.REDUCED_PRECISION,
    matmul_split_k=8,
    description="Reduced-precision accumulate path used for onboarding tests.",
)


def _probes(mlp_input_factory, n=2):
    return [mlp_input_factory(40_000 + i) for i in range(n)]


def test_fleet_member_shows_no_drift(mlp_graph, mlp_thresholds, mlp_input_factory):
    report = detect_configuration_drift(
        mlp_graph, mlp_thresholds, candidate_device=DEVICE_FLEET[1],
        incumbent_device=DEVICE_FLEET[0], probe_inputs=_probes(mlp_input_factory),
    )
    assert report.within_committed_thresholds
    assert report.exceedance_fraction == 0.0
    assert not report.requires_onboarding()   # nothing to onboard


def test_exotic_device_requires_onboarding(mlp_graph, mlp_thresholds, mlp_input_factory):
    report = detect_configuration_drift(
        mlp_graph, mlp_thresholds, candidate_device=EXOTIC_DEVICE,
        incumbent_device=DEVICE_FLEET[0], probe_inputs=_probes(mlp_input_factory),
    )
    # The reduced-precision accumulate path lands outside the committed
    # thresholds for reduction-bearing operators: faithful executions on this
    # device would be disputed until the configuration is onboarded.
    assert not report.within_committed_thresholds
    assert report.requires_onboarding()
    assert report.worst_ratio > 1.0
    assert report.exceedance_fraction > 0.2
    assert report.candidate == EXOTIC_DEVICE.name


def test_cheat_exceeds_thresholds_by_orders_of_magnitude(mlp_graph, mlp_thresholds,
                                                         mlp_input_factory):
    """A grossly tampered execution exceeds thresholds by orders of magnitude."""
    from repro.graph.interpreter import Interpreter

    inputs = mlp_input_factory(41_000)
    honest = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, inputs, record=True)
    tampered = honest.values["linear_1"] + 0.1
    report = mlp_thresholds.check("linear_1", tampered, honest.values["linear_1"])
    assert report.exceeded
    assert report.max_ratio > 1000.0  # far beyond any benign configuration drift


def test_onboarding_widens_thresholds_and_accepts_new_device(mlp_graph, mlp_thresholds,
                                                             mlp_input_factory):
    calibration_inputs = [mlp_input_factory(42_000 + i) for i in range(4)]
    result = onboard_device(
        mlp_graph, mlp_thresholds, fleet=DEVICE_FLEET, new_device=EXOTIC_DEVICE,
        calibration_inputs=calibration_inputs,
    )
    updated = result.updated_thresholds
    assert updated.alpha == mlp_thresholds.alpha
    assert set(updated.operator_names()) == set(mlp_thresholds.operator_names())
    # Thresholds only widen (max-envelope over a strictly larger fleet).
    assert result.max_widening >= 1.0
    assert all(factor >= 1.0 for factor in result.widened_operators.values())

    # After onboarding, the previously drifting device passes verification.
    post = detect_configuration_drift(
        mlp_graph, updated, candidate_device=EXOTIC_DEVICE,
        incumbent_device=DEVICE_FLEET[0],
        probe_inputs=calibration_inputs[:2],
    )
    assert post.within_committed_thresholds


def test_onboarding_with_custom_alpha(mlp_graph, mlp_thresholds, mlp_input_factory):
    result = onboard_device(
        mlp_graph, mlp_thresholds, fleet=DEVICE_FLEET[:2], new_device=EXOTIC_DEVICE,
        calibration_inputs=[mlp_input_factory(43_000)], alpha=5.0,
    )
    assert result.updated_thresholds.alpha == 5.0
