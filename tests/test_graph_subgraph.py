"""Unit and property tests for cut sets and slice re-execution on the parent plan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.interpreter import Interpreter
from repro.graph.node import Node
from repro.graph.subgraph import SubgraphSlice, live_in, live_out
from repro.models import get_model_spec
from repro.ops.registry import get_op
from repro.tensorlib.device import DEVICE_FLEET


def test_slice_validation():
    with pytest.raises(ValueError):
        SubgraphSlice(-1, 2)
    with pytest.raises(ValueError):
        SubgraphSlice(3, 2)
    assert SubgraphSlice(2, 5).size == 3
    assert SubgraphSlice(2, 5).contains(4)
    assert not SubgraphSlice(2, 5).contains(5)


def test_split_covers_parent_contiguously():
    parent = SubgraphSlice(0, 10)
    children = parent.split(3)
    assert children[0].start == 0 and children[-1].end == 10
    for left, right in zip(children, children[1:]):
        assert left.end == right.start
    assert sum(c.size for c in children) == 10


def test_split_does_not_create_empty_children():
    children = SubgraphSlice(0, 3).split(8)
    assert len(children) == 3
    assert all(c.size == 1 for c in children)


def test_split_single_operator_is_identity():
    assert SubgraphSlice(4, 5).split(4) == [SubgraphSlice(4, 5)]


def test_split_requires_at_least_two_way():
    with pytest.raises(ValueError):
        SubgraphSlice(0, 4).split(1)


@settings(deadline=None, max_examples=50)
@given(start=st.integers(0, 50), size=st.integers(1, 200), n_way=st.integers(2, 16))
def test_split_properties(start, size, n_way):
    parent = SubgraphSlice(start, start + size)
    children = parent.split(n_way)
    assert len(children) <= n_way
    assert children[0].start == parent.start
    assert children[-1].end == parent.end
    assert all(c.size >= 1 for c in children)
    assert sum(c.size for c in children) == parent.size
    sizes = [c.size for c in children]
    assert max(sizes) - min(sizes) <= 1  # near-equal deterministic partition


def test_live_in_excludes_params_and_constants(mlp_graph):
    slice_ = SubgraphSlice(1, 3)
    inputs = live_in(mlp_graph.graph, slice_)
    for name in inputs:
        node = mlp_graph.graph.node(name)
        assert node.op in ("placeholder", "call_op")


def test_live_out_contains_last_operator(mlp_graph):
    n_ops = mlp_graph.num_operators
    for end in range(1, n_ops + 1):
        slice_ = SubgraphSlice(0, end)
        outs = live_out(mlp_graph.graph, slice_)
        last_op = mlp_graph.graph.operators[end - 1].name
        assert last_op in outs


def test_slice_out_of_range_raises(mlp_graph):
    with pytest.raises(ValueError):
        live_in(mlp_graph.graph, SubgraphSlice(0, mlp_graph.num_operators + 5))


def _run_slice(graph_module, device, parent_trace, slice_):
    boundary = {name: parent_trace.values[name]
                for name in live_in(graph_module.graph, slice_)}
    return Interpreter(device).run(graph_module, boundary, record=True,
                                   count_flops=True, slice_=slice_)


def _assert_bit_identical(got, expected, where):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype, where
    assert np.array_equal(got.view(np.uint8), expected.view(np.uint8)), (
        f"{where} is not bit-identical to the full run"
    )


def test_slice_run_reproduces_parent_values(mlp_graph, mlp_inputs):
    device = DEVICE_FLEET[1]
    parent_trace = Interpreter(device).run(mlp_graph, mlp_inputs, record=True)
    n_ops = mlp_graph.num_operators
    for start, end in [(0, 2), (1, 4), (2, n_ops), (0, n_ops)]:
        slice_ = SubgraphSlice(start, end)
        sub_trace = _run_slice(mlp_graph, device, parent_trace, slice_)
        assert sub_trace.output_names == tuple(live_out(mlp_graph.graph, slice_))
        for name, value in zip(sub_trace.output_names, sub_trace.outputs):
            _assert_bit_identical(value, parent_trace.values[name],
                                  f"slice [{start}:{end}] output {name}")


def test_slice_run_executes_only_its_operators_and_their_parameters(mlp_graph, mlp_inputs):
    """The first linear reads x's layer norm and w1/b1: nothing else runs."""
    parent_trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs, record=True)
    slice_ = SubgraphSlice(1, 2)
    linear = mlp_graph.graph.operators[1]
    sub_trace = _run_slice(mlp_graph, DEVICE_FLEET[0], parent_trace, slice_)
    params = {dep.name for dep in linear.input_nodes if dep.op == "get_param"}
    assert {mlp_graph.graph.node(name).target for name in params} == {"w1", "b1"}
    assert set(sub_trace.values) == set(live_in(mlp_graph.graph, slice_)) | params | {
        linear.name}


def test_slice_run_rejects_missing_live_in_and_out_of_range(mlp_graph):
    interpreter = Interpreter(DEVICE_FLEET[0])
    slice_ = SubgraphSlice(2, 4)
    with pytest.raises(ValueError, match="missing graph inputs"):
        interpreter.run(mlp_graph, {}, slice_=slice_)
    with pytest.raises(ValueError, match="exceeds operator count"):
        interpreter.run(mlp_graph, {}, slice_=SubgraphSlice(0, mlp_graph.num_operators + 1))


def test_children_partition_composes_to_parent(mlp_graph, mlp_inputs):
    """Re-executing every child in order from proposer boundaries reproduces the graph."""
    device = DEVICE_FLEET[0]
    parent_trace = Interpreter(device).run(mlp_graph, mlp_inputs, record=True)
    children = SubgraphSlice(0, mlp_graph.num_operators).split(3)
    for child in children:
        sub_trace = _run_slice(mlp_graph, device, parent_trace, child)
        for name, value in zip(sub_trace.output_names, sub_trace.outputs):
            _assert_bit_identical(value, parent_trace.values[name], f"child {child} {name}")


_ZOO_TRACES = {}


def _zoo_model(name):
    if name not in _ZOO_TRACES:
        spec = get_model_spec(name)
        module = spec.build_module()
        graph = spec.trace(module, batch_size=1, seed=3)
        _ZOO_TRACES[name] = (graph, spec.sample_inputs(module, 1, seed=41))
    return _ZOO_TRACES[name]


def _partition_tree(root, n_way):
    """Every node of the dispute game's n-way partition tree under ``root``."""
    nodes, frontier = [], [root]
    while frontier:
        slice_ = frontier.pop()
        nodes.append(slice_)
        if slice_.size > 1:
            frontier.extend(slice_.split(n_way))
    return nodes


def _operator_flops(trace, node):
    operands = [trace.values[arg.name] if isinstance(arg, Node) else arg
                for arg in node.args]
    return get_op(node.target).estimate_flops(trace.values[node.name], *operands,
                                              **node.kwargs)


@pytest.mark.parametrize("device", DEVICE_FLEET, ids=lambda device: device.name)
@pytest.mark.parametrize("model", ["bert_mini", "qwen_mini", "resnet_mini", "diffusion_mini"])
def test_partition_tree_slices_reproduce_the_full_run(model, device):
    """Every slice of the 2-way and 4-way partition trees, run from the full
    run's recorded live-ins, reproduces that run bit for bit and counts the
    FLOPs of exactly its own operators."""
    graph_module, inputs = _zoo_model(model)
    full = Interpreter(device).run(graph_module, inputs, record=True, count_flops=True)
    operators = graph_module.graph.operators
    op_flops = [_operator_flops(full, node) for node in operators]
    root = SubgraphSlice(0, len(operators))
    for n_way in (2, 4):
        for slice_ in _partition_tree(root, n_way):
            sub = _run_slice(graph_module, device, full, slice_)
            for name, value in sub.values.items():
                _assert_bit_identical(value, full.values[name],
                                      f"{model}@{device.name} {slice_} {name}")
            expected = {}
            for node, flops in zip(operators[slice_.start:slice_.end],
                                   op_flops[slice_.start:slice_.end]):
                expected[node.target] = expected.get(node.target, 0.0) + flops
            assert sub.flops.per_op == expected, f"{model} {slice_} FLOPs"
    assert _run_slice(graph_module, device, full, root).flops.per_op == full.flops.per_op
