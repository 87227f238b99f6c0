"""Wire payload builders for everything the fleet ships between processes.

The canonical codec (:mod:`repro.utils.serialization`) moves arrays, scalars,
bytes, lists and string-keyed maps — and it *normalizes* (tuples become
lists, 0-d numpy scalars collapse to Python scalars).  The protocol objects
that cross the fleet boundary care about exactly the structure the codec
normalizes away, so this module defines the explicit, tagged payload shapes:

* **Graphs** — nodes in topological order with type-tagged arguments:
  ``{"__node__": name}`` marks a node reference (the same marker the graph's
  own ``signature_payload`` uses) and ``{"__tuple__": [...]}`` preserves
  tuple-vs-list structure for the interpreter.  Round-tripping a traced
  module through :func:`graph_to_payload`/:func:`graph_from_payload` yields
  a graph with an identical signature, identical parameters and therefore a
  byte-identical model commitment.
* **Perturbations** — adversarial deltas keep their numpy dtype via a
  ``{"__scalar__": {"dtype", "value"}}`` tag (a bare ``np.float32`` would
  come back as a Python float and change the perturbed trace bits).
* **Statistics** — :class:`~repro.protocol.service.ServiceStats` as a flat
  map, lossless in both directions so fleet-wide aggregation sums the same
  numbers the in-process service would.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.graph.graph import Graph, GraphModule
from repro.graph.node import Node
from repro.protocol.service import ServiceStats

_NODE_TAG = "__node__"
_TUPLE_TAG = "__tuple__"
_SCALAR_TAG = "__scalar__"


# ----------------------------------------------------------------------
# Graph modules
# ----------------------------------------------------------------------

def _encode_arg(value: Any) -> Any:
    if isinstance(value, Node):
        return {_NODE_TAG: value.name}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_arg(item) for item in value]}
    if isinstance(value, list):
        return [_encode_arg(item) for item in value]
    if isinstance(value, dict):
        if _NODE_TAG in value or _TUPLE_TAG in value:
            raise ValueError("argument dict collides with wire tags")
        return {str(key): _encode_arg(item) for key, item in value.items()}
    return value


def _decode_arg(value: Any, by_name: Dict[str, Node]) -> Any:
    if isinstance(value, dict):
        if set(value) == {_NODE_TAG}:
            return by_name[value[_NODE_TAG]]
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode_arg(item, by_name) for item in value[_TUPLE_TAG])
        return {key: _decode_arg(item, by_name) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_arg(item, by_name) for item in value]
    return value


def graph_to_payload(graph_module: GraphModule) -> Dict[str, Any]:
    """A codec-shippable description of one traced module."""
    graph = graph_module.graph
    nodes = []
    for node in graph.nodes:
        nodes.append({
            "name": node.name,
            "op": node.op,
            "target": node.target,
            "args": _encode_arg(tuple(node.args)),
            "kwargs": {key: _encode_arg(value)
                       for key, value in node.kwargs.items()},
            "shape": None if node.shape is None else [int(d) for d in node.shape],
            "dtype": node.dtype,
        })
    return {
        "name": graph_module.name,
        "input_names": list(graph_module.input_names),
        "metadata": dict(graph_module.metadata),
        "parameters": {name: np.asarray(value)
                       for name, value in graph_module.parameters.items()},
        "constants": {name: np.asarray(value)
                      for name, value in graph.constants.items()},
        "nodes": nodes,
    }


def graph_from_payload(payload: Dict[str, Any]) -> GraphModule:
    """Rebuild the traced module; commitment-identical to the original."""
    graph = Graph()
    by_name: Dict[str, Node] = {}
    for spec in payload["nodes"]:
        args = _decode_arg(spec["args"], by_name)
        kwargs = {key: _decode_arg(value, by_name)
                  for key, value in spec["kwargs"].items()}
        shape = spec["shape"]
        node = Node(
            name=spec["name"],
            op=spec["op"],
            target=spec["target"],
            args=tuple(args),
            kwargs=kwargs,
            shape=None if shape is None else tuple(int(d) for d in shape),
            dtype=spec["dtype"],
        )
        graph.add_node(node)
        by_name[node.name] = node
    for name, value in payload["constants"].items():
        graph.add_constant(name, value)
    return GraphModule(
        graph=graph,
        parameters=dict(payload["parameters"]),
        input_names=list(payload["input_names"]),
        name=payload["name"],
        metadata=dict(payload["metadata"]),
    )


# ----------------------------------------------------------------------
# Perturbation values (adversarial-proposer deltas)
# ----------------------------------------------------------------------

def encode_perturbation(value: Any) -> Any:
    """Ship an additive delta keeping its exact numpy dtype.

    Callables cannot cross a process boundary; fault kinds that need one are
    rebuilt worker-side from their (kind, victim, magnitude, seed) spec
    instead of travelling as values.
    """
    if callable(value):
        raise TypeError(
            "callable perturbations cannot cross the fleet boundary; ship the "
            "fault spec and rebuild the override in the worker")
    array = np.asarray(value)
    if array.ndim == 0:
        return {_SCALAR_TAG: {"dtype": str(array.dtype), "value": array.item()}}
    return array


def decode_perturbation(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {_SCALAR_TAG}:
        spec = value[_SCALAR_TAG]
        return np.dtype(spec["dtype"]).type(spec["value"])
    return value


# ----------------------------------------------------------------------
# Service statistics
# ----------------------------------------------------------------------

def stats_to_payload(stats: ServiceStats) -> Dict[str, Any]:
    return {
        "requests_submitted": int(stats.requests_submitted),
        "requests_completed": int(stats.requests_completed),
        "cache_hits": int(stats.cache_hits),
        "batched_requests": int(stats.batched_requests),
        "disputes_opened": int(stats.disputes_opened),
        "dispute_rounds": int(stats.dispute_rounds),
        "processing_time_s": float(stats.processing_time_s),
        "busy_cpu_s": float(stats.busy_cpu_s),
        "stage_busy_s": {stage: float(seconds)
                         for stage, seconds in stats.stage_busy_s.items()},
        "latencies_s": [float(value) for value in stats.latencies_s],
        "status_counts": {status: int(count)
                          for status, count in stats.status_counts.items()},
    }


def stats_from_payload(payload: Dict[str, Any]) -> ServiceStats:
    return ServiceStats(
        requests_submitted=int(payload["requests_submitted"]),
        requests_completed=int(payload["requests_completed"]),
        cache_hits=int(payload["cache_hits"]),
        batched_requests=int(payload["batched_requests"]),
        disputes_opened=int(payload["disputes_opened"]),
        dispute_rounds=int(payload["dispute_rounds"]),
        processing_time_s=float(payload["processing_time_s"]),
        busy_cpu_s=float(payload["busy_cpu_s"]),
        stage_busy_s=dict(payload["stage_busy_s"]),
        latencies_s=list(payload["latencies_s"]),
        status_counts=dict(payload["status_counts"]),
    )
