"""Unit tests for model / execution / subgraph commitments."""

import numpy as np
import pytest

from repro.graph.interpreter import Interpreter
from repro.graph.subgraph import SubgraphSlice
from repro.merkle.commitments import (
    commit_graph,
    commit_model,
    commit_thresholds,
    commit_weights,
    hash_tensor,
    interface_hash,
    make_execution_commitment,
    make_subgraph_record,
    verify_subgraph_record,
)
from repro.tensorlib.device import DEVICE_FLEET


@pytest.fixture(scope="module")
def model_commitment(mlp_graph, mlp_thresholds):
    return commit_model(mlp_graph, mlp_thresholds, metadata={"alpha": 3.0})


def test_hash_tensor_sensitive_to_values_and_dtype(rng):
    a = rng.standard_normal((3, 3)).astype(np.float32)
    assert hash_tensor(a) == hash_tensor(a.copy())
    assert hash_tensor(a) != hash_tensor(a + 1e-6)
    assert hash_tensor(a) != hash_tensor(a.astype(np.float64))


def test_interface_hash_order_sensitive(rng):
    a = rng.standard_normal(4).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    assert interface_hash([a, b]) != interface_hash([b, a])


def test_weight_commitment_changes_with_any_parameter(mlp_graph):
    tree, index = commit_weights(mlp_graph.parameters)
    assert set(index) == set(mlp_graph.parameters)
    tampered = dict(mlp_graph.parameters)
    key = sorted(tampered)[0]
    tampered[key] = np.asarray(tampered[key]) + 1e-6
    tree2, _ = commit_weights(tampered)
    assert tree.root != tree2.root


def test_weight_tamper_moves_only_the_weight_root(mlp_graph, mlp_thresholds,
                                                 model_commitment):
    tampered = dict(mlp_graph.parameters)
    key = sorted(tampered)[0]
    tampered[key] = np.asarray(tampered[key]) + 1e-4
    from repro.graph.graph import GraphModule

    tampered_graph = GraphModule(graph=mlp_graph.graph, parameters=tampered,
                                 input_names=mlp_graph.input_names, name="tampered")
    tampered_commitment = commit_model(tampered_graph, mlp_thresholds,
                                       metadata={"alpha": 3.0})
    assert tampered_commitment.weight_root != model_commitment.weight_root
    assert tampered_commitment.graph_root == model_commitment.graph_root
    assert tampered_commitment.threshold_root == model_commitment.threshold_root


def test_graph_commitment_covers_all_nodes(mlp_graph):
    tree, index = commit_graph(mlp_graph)
    assert len(index) == len(mlp_graph.graph.nodes)
    assert tree.num_leaves == len(mlp_graph.graph.nodes)


def test_threshold_commitment_changes_with_alpha(mlp_calibration, mlp_thresholds):
    from repro.calibration.thresholds import ThresholdTable

    tree_a, _ = commit_thresholds(mlp_thresholds)
    looser = ThresholdTable.from_calibration(mlp_calibration, alpha=4.0)
    tree_b, _ = commit_thresholds(looser)
    assert tree_a.root != tree_b.root


def test_model_commitment_public_view_drops_trees(model_commitment):
    public = model_commitment.public_view()
    assert public.weight_tree is None and public.graph_tree is None
    assert public.weight_root == model_commitment.weight_root
    assert public.num_operators == model_commitment.num_operators
    assert public.digest() == model_commitment.digest()


def test_execution_commitment_binds_inputs_and_outputs(model_commitment, mlp_graph,
                                                        mlp_inputs):
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs)
    c0 = make_execution_commitment(model_commitment, mlp_inputs, list(trace.outputs),
                                   meta={"device": "sim-rtx4090"})
    # Changing the output changes the commitment.
    altered = [trace.outputs[0] + 1e-5]
    c1 = make_execution_commitment(model_commitment, mlp_inputs, altered,
                                   meta={"device": "sim-rtx4090"})
    assert c0.value != c1.value
    # Changing the metadata changes the commitment.
    c2 = make_execution_commitment(model_commitment, mlp_inputs, list(trace.outputs),
                                   meta={"device": "sim-h100"})
    assert c0.value != c2.value
    assert c0.size_bytes() > 96


def test_subgraph_record_roundtrip(model_commitment, mlp_graph, mlp_inputs):
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs, record=True)
    slice_ = SubgraphSlice(1, 4)
    record = make_subgraph_record(mlp_graph, model_commitment, slice_, trace.values)
    assert record.slice.start == 1 and record.slice.end == 4
    assert record.num_merkle_proofs() == len(record.operator_proofs) + len(record.weight_proofs)
    assert record.onchain_size_bytes() > 0
    ok, checks = verify_subgraph_record(record, model_commitment)
    assert ok
    assert checks == record.num_merkle_proofs()


def test_subgraph_record_detects_tampered_boundary(model_commitment, mlp_graph, mlp_inputs):
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs, record=True)
    record = make_subgraph_record(mlp_graph, model_commitment, SubgraphSlice(0, 3), trace.values)
    victim = record.live_out_names[0]
    record.live_out_values[victim] = record.live_out_values[victim] + 1.0
    ok, _ = verify_subgraph_record(record, model_commitment)
    assert not ok


def test_subgraph_record_detects_wrong_model(model_commitment, mlp_graph, mlp_inputs,
                                             mlp_thresholds):
    # Commit a tampered copy of the model and try to verify its records
    # against the original roots.
    tampered_params = {k: np.asarray(v) + 1e-5 for k, v in mlp_graph.parameters.items()}
    from repro.graph.graph import GraphModule

    tampered_graph = GraphModule(graph=mlp_graph.graph, parameters=tampered_params,
                                 input_names=mlp_graph.input_names, name="tampered")
    tampered_commitment = commit_model(tampered_graph, mlp_thresholds)
    trace = Interpreter(DEVICE_FLEET[0]).run(tampered_graph, mlp_inputs, record=True)
    record = make_subgraph_record(tampered_graph, tampered_commitment, SubgraphSlice(1, 3),
                                  trace.values)
    ok, _ = verify_subgraph_record(record, model_commitment)
    assert not ok


def test_subgraph_record_requires_trees(model_commitment, mlp_graph, mlp_inputs):
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, mlp_inputs, record=True)
    with pytest.raises(ValueError):
        make_subgraph_record(mlp_graph, model_commitment.public_view(), SubgraphSlice(0, 2),
                             trace.values)
