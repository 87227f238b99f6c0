"""Engine parity: the plan-based interpreter must match the reference loop
bit for bit on every zoo model.

The contract is that ``Interpreter.run`` (a walk over a cached
:class:`~repro.engine.plan.ExecutionPlan`) is observationally
identical to the seed node-by-node loop, kept here as the oracle
:func:`run_reference`: same outputs, same recorded trace, same FLOP
accounting, and therefore identical execution-commitment hashes.  These
tests pin that contract for every model in :mod:`repro.models.zoo` on two
device profiles, and additionally pin the batched path (stacked execution
must be certified bit-identical or fall back to sequential).
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.engine import plan_for
from repro.graph.interpreter import ExecutionTrace, Interpreter
from repro.graph.node import Node
from repro.merkle.commitments import hash_tensor
from repro.models import available_models, get_model_spec
from repro.ops.registry import get_op
from repro.tensorlib.device import DEVICE_FLEET
from repro.tensorlib.flops import FlopCounter
from repro.utils.hashing import sha256_bytes
from repro.utils.serialization import canonical_bytes

#: Two profiles with different accumulation strategies and split factors.
PARITY_DEVICES = (DEVICE_FLEET[0], DEVICE_FLEET[2])

_TRACED: Dict[str, tuple] = {}


def run_reference(interpreter: Interpreter, graph_module, inputs,
                  record: bool = False, count_flops: bool = False) -> ExecutionTrace:
    """The seed node-by-node execution loop: the specification the
    plan-based interpreter must match bit for bit."""
    graph = graph_module.graph
    env: Dict[str, np.ndarray] = {}
    flops = FlopCounter()
    for node in graph.nodes:
        if node.op == "placeholder":
            value = np.asarray(inputs[node.name])
        elif node.op == "get_param":
            value = np.asarray(graph_module.parameters[node.target])
        elif node.op == "constant":
            value = np.asarray(graph.constants[node.target])
        elif node.op == "call_op":
            spec = get_op(node.target)
            args = [env[arg.name] if isinstance(arg, Node) else arg
                    for arg in node.args]
            value = spec.forward(interpreter.device, *args, **node.kwargs)
            if count_flops:
                flops.add(node.target, spec.estimate_flops(value, *args, **node.kwargs))
        else:  # the output node
            continue
        env[node.name] = value
    output_names = tuple(arg.name for arg in graph.output_node.args
                         if isinstance(arg, Node))
    return ExecutionTrace(
        device_name=interpreter.device.name,
        outputs=tuple(env[name] for name in output_names),
        output_names=output_names,
        values=env if record else {name: env[name] for name in output_names},
        flops=flops,
    )


def traced_model(name: str):
    """Trace each zoo model once per test session (tracing dominates cost)."""
    if name not in _TRACED:
        spec = get_model_spec(name)
        module = spec.build_module()
        graph = spec.trace(module, batch_size=1, seed=3)
        requests = [spec.sample_inputs(module, 1, seed=100 + i) for i in range(3)]
        _TRACED[name] = (spec, module, graph, requests)
    return _TRACED[name]


def assert_traces_identical(got, expected, model_name: str, device_name: str) -> None:
    assert got.output_names == expected.output_names
    assert set(got.values) == set(expected.values), (
        f"{model_name}@{device_name}: plan walk records different nodes"
    )
    for node_name, reference in expected.values.items():
        reference = np.asarray(reference)
        value = np.asarray(got.values[node_name])
        assert value.shape == reference.shape, f"{model_name}:{node_name} shape"
        assert value.dtype == reference.dtype, f"{model_name}:{node_name} dtype"
        assert value.tobytes() == reference.tobytes(), (
            f"{model_name}@{device_name}: node {node_name!r} is not bit-identical"
        )
    assert got.flops.per_op == expected.flops.per_op


@pytest.mark.parametrize("model_name", available_models())
@pytest.mark.parametrize("device", PARITY_DEVICES, ids=lambda d: d.name)
def test_engine_matches_reference_interpreter(model_name, device):
    """Outputs, recorded traces and trace hashes are bit-identical."""
    _, _, graph, requests = traced_model(model_name)
    interpreter = Interpreter(device)

    plan_trace = interpreter.run(graph, requests[0], record=True, count_flops=True)
    reference_trace = run_reference(interpreter, graph, requests[0], record=True,
                                    count_flops=True)
    assert_traces_identical(plan_trace, reference_trace, model_name, device.name)

    # The canonical tensor hashes over the trace (what commitments and
    # dispute records are built from) are consequently identical too.
    for node_name in reference_trace.values:
        assert hash_tensor(plan_trace.values[node_name]) == \
            hash_tensor(reference_trace.values[node_name])


@pytest.mark.parametrize("model_name", available_models())
def test_engine_commitment_hashes_match(model_name):
    """Execution commitments built from both paths have equal digests."""
    from repro.merkle.commitments import interface_hash

    _, _, graph, requests = traced_model(model_name)
    device = PARITY_DEVICES[0]
    interpreter = Interpreter(device)
    plan_trace = interpreter.run(graph, requests[1])
    reference_trace = run_reference(interpreter, graph, requests[1])
    assert interface_hash(list(plan_trace.outputs)) == \
        interface_hash(list(reference_trace.outputs))


@pytest.mark.parametrize("model_name", available_models())
def test_batched_execution_matches_sequential(model_name):
    """run_batch returns per-request traces bit-identical to sequential runs.

    Batch-polymorphic graphs take the certified stacked path; the rest
    (e.g. transformers with traced-batch reshape attributes) must fall back
    — either way the observable results are identical.
    """
    _, _, graph, requests = traced_model(model_name)
    device = PARITY_DEVICES[1]
    interpreter = Interpreter(device)

    batched = interpreter.run_batch(graph, requests, record=True, count_flops=True)
    sequential = [interpreter.run(graph, req, record=True, count_flops=True)
                  for req in requests]
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert got.output_names == expected.output_names
        assert set(got.values) == set(expected.values)
        for node_name, reference in expected.values.items():
            value = np.asarray(got.values[node_name])
            reference = np.asarray(reference)
            assert value.shape == reference.shape
            assert value.dtype == reference.dtype
            assert value.tobytes() == reference.tobytes(), (
                f"{model_name}: batched value for {node_name!r} diverges"
            )
        # FLOPs are attributed proportionally in the stacked path; equal-size
        # requests must therefore match the sequential accounting closely.
        assert got.flops.total == pytest.approx(expected.flops.total, rel=1e-6)


#: A third profile (deep split-K tree) never covered by PARITY_DEVICES.
THIRD_DEVICE = DEVICE_FLEET[3]


def assert_batch_matches_sequential(interpreter, graph, requests, model_name):
    batched = interpreter.run_batch(graph, requests, record=True, count_flops=True)
    sequential = [interpreter.run(graph, req, record=True, count_flops=True)
                  for req in requests]
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert got.output_names == expected.output_names
        assert set(got.values) == set(expected.values)
        for node_name, reference in expected.values.items():
            value = np.asarray(got.values[node_name])
            reference = np.asarray(reference)
            assert value.shape == reference.shape, f"{model_name}:{node_name}"
            assert value.dtype == reference.dtype, f"{model_name}:{node_name}"
            assert value.tobytes() == reference.tobytes(), (
                f"{model_name}: batched value for {node_name!r} diverges"
            )
        assert got.flops.total == pytest.approx(expected.flops.total, rel=1e-6)


@pytest.mark.parametrize("model_name", available_models())
def test_run_batch_ragged_dtype_signature_falls_back(model_name):
    """A request with widened input dtypes makes the signature ragged.

    Stacking is impossible (the trailing signatures disagree), so run_batch
    must fall back to sequential execution — and the fallback must be
    bit-identical to per-request run() calls, on a third device profile the
    regular parity matrix never exercises.
    """
    spec, module, graph, _ = traced_model(model_name)
    normal = spec.sample_inputs(module, 1, seed=300)
    widened = {
        name: (value.astype(np.int32) if value.dtype.kind == "i"
               else value.astype(np.float64))
        for name, value in spec.sample_inputs(module, 1, seed=301).items()
    }
    requests = [normal, widened, spec.sample_inputs(module, 1, seed=302)]
    interpreter = Interpreter(THIRD_DEVICE)
    assert_batch_matches_sequential(interpreter, graph, requests, model_name)
    assert not interpreter.last_batch_stacked, (
        "ragged dtype signatures must not take the stacked path"
    )


@pytest.mark.parametrize("model_name", ["resnet_mini", "resnet_deep"])
def test_run_batch_mixed_batch_sizes_parity_on_third_device(model_name):
    """Unequal leading batch sizes: parity must hold whichever path runs.

    (The conv kernels' reduction tiling is not batch-bit-stable, so these
    graphs fail certification and take the fallback — the point is that the
    observable results are identical either way.)
    """
    spec, module, graph, _ = traced_model(model_name)
    requests = [spec.sample_inputs(module, b, seed=310 + b) for b in (1, 2, 3)]
    interpreter = Interpreter(THIRD_DEVICE)
    assert_batch_matches_sequential(interpreter, graph, requests, model_name)


def test_run_batch_mixed_batch_sizes_stack_on_third_device(mlp_graph):
    """A certified-stackable graph stacks ragged batch sizes bit-exactly.

    The MLP is batch-polymorphic down to the reduction tiling, so unequal
    leading sizes (4/2/6 rows) concatenate into one stacked pass whose
    per-request slices — and proportionally attributed FLOPs — must match
    sequential execution exactly, on the third device profile.
    """
    rng = np.random.default_rng(17)
    requests = [
        {"x": rng.standard_normal((batch, 32)).astype(np.float32)}
        for batch in (4, 2, 6)
    ]
    interpreter = Interpreter(THIRD_DEVICE)
    assert_batch_matches_sequential(interpreter, mlp_graph, requests, "tiny_mlp")
    assert interpreter.last_batch_stacked, (
        "the batch-polymorphic MLP should certify and stack ragged batch sizes"
    )


def test_run_batch_spatially_ragged_shapes_fall_back():
    """Same dtype, different spatial trailing shape: fallback, bit-exact."""
    spec, module, graph, _ = traced_model("resnet_mini")
    rng = np.random.default_rng(5)
    channels = module.config.in_channels
    side = module.config.image_size
    requests = [
        spec.sample_inputs(module, 1, seed=320),
        {"images": rng.standard_normal((1, channels, side - 8, side - 8)
                                       ).astype(np.float32)},
    ]
    interpreter = Interpreter(THIRD_DEVICE)
    assert_batch_matches_sequential(interpreter, graph, requests, "resnet_mini")
    assert not interpreter.last_batch_stacked


def test_streaming_tensor_hash_matches_canonical_bytes():
    """hash_tensor streams canon(z) into SHA-256 without changing digests."""
    rng = np.random.default_rng(0)
    samples = [
        rng.standard_normal((3, 5)).astype(np.float32),
        rng.integers(0, 100, size=(4, 7)),
        np.float32(3.25) * np.ones((1,), dtype=np.float32),
        rng.standard_normal((2, 3, 4, 5)).astype(np.float32)[:, ::2],  # non-contiguous
        np.zeros((0, 4), dtype=np.float32),  # zero-size batch axis
        np.float32(7.5),  # 0-d
    ]
    for sample in samples:
        assert hash_tensor(sample) == sha256_bytes(canonical_bytes(np.asarray(sample)))


def test_plan_is_cached_and_invalidated_on_retrace():
    """plan_for reuses the compiled plan and recompiles on graph change."""
    _, _, graph, _ = traced_model("resnet_mini")
    plan_a = plan_for(graph)
    plan_b = plan_for(graph)
    assert plan_a is plan_b
    assert plan_a.num_operators == graph.num_operators
    assert set(plan_a.output_names) == set(
        arg.name for arg in graph.graph.output_node.args
        if not isinstance(arg, (int, float, str))
    )
