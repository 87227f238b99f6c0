"""Tests for the TracedRuntime facade, determinism mode, and standalone verifier."""

import numpy as np
import pytest

from repro.graph.subgraph import SubgraphSlice, live_in, live_out
from repro.runtime.determinism import deterministic_profile, measure_determinism_overhead
from repro.runtime.traced_runtime import TracedRuntime
from repro.runtime.verifier import verify_execution, verify_model_commitment
from repro.tensorlib.accumulate import AccumulationStrategy
from repro.tensorlib.device import DEVICE_FLEET

from tests.conftest import TinyMLP


@pytest.fixture(scope="module")
def runtime():
    module = TinyMLP(seed=9)
    inputs = {"x": np.random.default_rng(1).standard_normal((4, 32)).astype(np.float32)}
    return TracedRuntime(module, inputs, name="runtime_mlp"), inputs


def test_runtime_describe(runtime):
    rt, _ = runtime
    assert rt.num_operators == 7
    description = rt.describe()
    assert description["name"] == "runtime_mlp"


def test_runtime_execute_and_flops(runtime):
    rt, inputs = runtime
    trace = rt.execute(inputs, DEVICE_FLEET[0], record=True, count_flops=True)
    assert trace.flops.total > 0
    assert trace.output.shape == (4, 6)


def test_runtime_execute_with_bounds(runtime):
    rt, inputs = runtime
    bounded = rt.execute_with_bounds(inputs, DEVICE_FLEET[1])
    assert len(bounded.bounds) == rt.num_operators


def test_runtime_subgraph_roundtrip(runtime):
    rt, inputs = runtime
    full = rt.execute(inputs, DEVICE_FLEET[2], record=True)
    slice_ = SubgraphSlice(2, 5)
    boundary = {name: full.values[name] for name in live_in(rt.graph_module.graph, slice_)}
    sub_trace = rt.execute_subgraph(2, 5, boundary, DEVICE_FLEET[2])
    assert sub_trace.output_names == tuple(live_out(rt.graph_module.graph, slice_))
    for name, value in zip(sub_trace.output_names, sub_trace.outputs):
        assert np.array_equal(value.view(np.uint8), full.values[name].view(np.uint8))


def test_runtime_calibrate_commit_verify(runtime):
    rt, inputs = runtime
    dataset = [
        {"x": np.random.default_rng(100 + i).standard_normal((4, 32)).astype(np.float32)}
        for i in range(3)
    ]
    calibration = rt.calibrate(dataset)
    thresholds = rt.build_thresholds(calibration, alpha=3.0)
    commitment = rt.commit(thresholds, metadata={"alpha": 3.0})
    ok, checks = verify_model_commitment(rt.graph_module, thresholds, commitment)
    assert ok and all(checks.values())

    # Tampering with one weight breaks exactly the weight root.
    tampered = dict(rt.graph_module.parameters)
    key = sorted(tampered)[0]
    tampered[key] = np.asarray(tampered[key]) + 1e-4
    from repro.graph.graph import GraphModule

    tampered_graph = GraphModule(graph=rt.graph_module.graph, parameters=tampered,
                                 input_names=rt.graph_module.input_names, name="tampered")
    ok, checks = verify_model_commitment(tampered_graph, thresholds, commitment)
    assert not ok
    assert not checks["weight_root"]
    assert checks["graph_root"]


def test_verify_execution_accepts_honest_and_flags_cheat(runtime):
    rt, inputs = runtime
    dataset = [
        {"x": np.random.default_rng(200 + i).standard_normal((4, 32)).astype(np.float32)}
        for i in range(3)
    ]
    thresholds = rt.build_thresholds(rt.calibrate(dataset), alpha=3.0)
    claimed = rt.execute(inputs, DEVICE_FLEET[0], record=True)
    honest_report = verify_execution(rt.graph_module, thresholds, inputs,
                                     claimed.values, DEVICE_FLEET[3])
    assert honest_report.accepted
    assert honest_report.checked_operators > 0

    tampered_values = dict(claimed.values)
    tampered_values["relu"] = tampered_values["relu"] + 0.01
    cheat_report = verify_execution(rt.graph_module, thresholds, inputs,
                                    tampered_values, DEVICE_FLEET[3])
    assert not cheat_report.accepted
    assert cheat_report.worst_ratio > 1.0
    assert any(r.node_name == "relu" for r in cheat_report.exceedances)


def test_deterministic_profile_is_sequential_and_distinct():
    for device in DEVICE_FLEET:
        det = deterministic_profile(device)
        assert det.strategy is AccumulationStrategy.SEQUENTIAL
        assert det.name != device.name
        assert det.matmul_split_k == device.matmul_split_k + 1


def test_determinism_measurement(runtime):
    rt, _ = runtime
    dataset = [
        {"x": np.random.default_rng(300 + i).standard_normal((4, 32)).astype(np.float32)}
        for i in range(4)
    ]
    report = measure_determinism_overhead(rt.graph_module, dataset, DEVICE_FLEET[0])
    assert report.bitwise_reproducible
    assert report.fast_latency_s > 0 and report.deterministic_latency_s > 0
    assert report.num_inputs == 4
    assert -50.0 < report.overhead_percent < 500.0


def test_determinism_measurement_requires_inputs(runtime):
    rt, _ = runtime
    with pytest.raises(ValueError):
        measure_determinism_overhead(rt.graph_module, [], DEVICE_FLEET[0])
