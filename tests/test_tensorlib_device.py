"""Unit tests for device profiles and the simulated fleet."""

import pytest

from repro.tensorlib.accumulate import AccumulationStrategy
from repro.tensorlib.device import (
    DEVICE_FLEET,
    REFERENCE_DEVICE,
    DeviceProfile,
    get_device,
    list_devices,
    register_device,
)


def test_fleet_has_four_devices_with_distinct_configs():
    assert len(DEVICE_FLEET) == 4
    configs = {(d.reduction_chunk, d.strategy, d.matmul_split_k) for d in DEVICE_FLEET}
    assert len(configs) == 4


def test_reference_device_is_flagged():
    assert REFERENCE_DEVICE.is_reference
    assert all(not d.is_reference for d in DEVICE_FLEET)


def test_get_device_by_name():
    for device in DEVICE_FLEET:
        assert get_device(device.name) is device


def test_get_device_unknown_raises_with_known_names():
    with pytest.raises(KeyError) as excinfo:
        get_device("sim-tpu")
    assert "sim-a100" in str(excinfo.value)


def test_list_devices_reference_flag():
    assert REFERENCE_DEVICE not in list_devices()
    assert REFERENCE_DEVICE in list_devices(include_reference=True)


def test_signature_contains_configuration():
    sig = DEVICE_FLEET[0].signature()
    assert sig["device"] == DEVICE_FLEET[0].name
    assert sig["strategy"] == DEVICE_FLEET[0].strategy.value


def test_signature_is_the_committed_kernel_stack_format():
    """Every contraction reads one split, and ``signature()`` still emits the
    ``conv_split`` key committed execution metadata has always carried."""
    assert [d.signature() for d in list_devices(include_reference=True)] == [
        {"device": "sim-rtx4090", "reduction_chunk": 32, "strategy": "sequential",
         "matmul_split_k": 2, "conv_split": 2},
        {"device": "sim-rtx6000", "reduction_chunk": 48, "strategy": "reversed",
         "matmul_split_k": 3, "conv_split": 3},
        {"device": "sim-a100", "reduction_chunk": 64, "strategy": "pairwise",
         "matmul_split_k": 4, "conv_split": 4},
        {"device": "sim-h100", "reduction_chunk": 128, "strategy": "pairwise",
         "matmul_split_k": 8, "conv_split": 8},
        {"device": "reference-fp64", "reduction_chunk": 1_048_576, "strategy": "fp64",
         "matmul_split_k": 1, "conv_split": 1},
    ]


def test_invalid_profile_rejected():
    with pytest.raises(ValueError):
        DeviceProfile(name="bad", reduction_chunk=0, strategy=AccumulationStrategy.SEQUENTIAL)
    with pytest.raises(ValueError):
        DeviceProfile(name="bad", reduction_chunk=8, strategy=AccumulationStrategy.SEQUENTIAL,
                      matmul_split_k=0)


def test_register_device_rejects_duplicates():
    custom = DeviceProfile(name="sim-custom-test", reduction_chunk=16,
                           strategy=AccumulationStrategy.SEQUENTIAL)
    register_device(custom)
    assert get_device("sim-custom-test") is custom
    with pytest.raises(ValueError):
        register_device(custom)
