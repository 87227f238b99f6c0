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
* **Tables** — a :class:`~repro.calibration.thresholds.ThresholdTable` or a
  :class:`~repro.calibration.committee.CommitteeEnvelopeProfile` travels as
  its operator names and op types in sorted-name order, beside one float64
  ``(operators, grid)`` array per side (``abs``, ``rel``) and the table's
  scalar fields.  The decoded rows give :meth:`leaf_payloads` byte for byte,
  so the model commitment is unchanged; a frame whose arrays are not 2-D
  float64 of that shape is refused.  (``to_dict``/``from_dict`` stay the
  calibration goldens' float-list form.)
* **Perturbations** — adversarial deltas keep their numpy dtype via a
  ``{"__scalar__": {"dtype", "value"}}`` tag (a bare ``np.float32`` would
  come back as a Python float and change the perturbed trace bits).

Statistics need no builder here: :class:`~repro.protocol.service.ServiceStats`
ships its own fixed-size ``to_payload()``/``from_payload()`` state (counters
plus the latency digest), lossless in both directions, so the fleet sums
the same numbers the in-process service would.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.calibration.committee import CommitteeEnvelopeProfile
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import Graph, GraphModule
from repro.graph.node import Node

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
# Threshold tables and committee envelopes
# ----------------------------------------------------------------------

def table_to_payload(table: ThresholdTable) -> Dict[str, Any]:
    """A codec-shippable threshold table: names, op types, two row arrays."""
    names = table.operator_names()
    return {
        "model_name": table.model_name,
        "alpha": table.alpha,
        "grid": list(table.grid),
        "names": names,
        "op_types": [table.op_types.get(name, "") for name in names],
        "abs": _rows(table.abs_thresholds, names, len(table.grid)),
        "rel": _rows(table.rel_thresholds, names, len(table.grid)),
    }


def table_from_payload(payload: Dict[str, Any]) -> ThresholdTable:
    """Rebuild the table; its leaf payloads equal the original's."""
    return _fill_table(ThresholdTable(
        model_name=str(payload["model_name"]), alpha=float(payload["alpha"]),
        grid=tuple(payload["grid"])), payload)


def envelope_to_payload(profile: CommitteeEnvelopeProfile) -> Dict[str, Any]:
    """A committee envelope: its table form plus the provenance fields."""
    return dict(
        table_to_payload(profile),
        envelope_percentile=profile.envelope_percentile,
        rel_scale_floor=profile.rel_scale_floor,
        num_samples=profile.num_samples,
        num_pairs=profile.num_pairs,
        stability=dict(profile.stability),
    )


def envelope_from_payload(payload: Dict[str, Any]) -> CommitteeEnvelopeProfile:
    """Rebuild the envelope; its leaf payloads equal the original's."""
    return _fill_table(CommitteeEnvelopeProfile(
        model_name=str(payload["model_name"]), alpha=float(payload["alpha"]),
        grid=tuple(payload["grid"]),
        envelope_percentile=float(payload["envelope_percentile"]),
        rel_scale_floor=float(payload["rel_scale_floor"]),
        num_samples=int(payload["num_samples"]),
        num_pairs=int(payload["num_pairs"]),
        stability={str(name): float(value)
                   for name, value in payload["stability"].items()}), payload)


def _rows(side: Dict[str, np.ndarray], names, width: int) -> np.ndarray:
    rows = np.empty((len(names), width), dtype=np.float64)
    for index, name in enumerate(names):
        rows[index] = side[name]
    return rows


def _fill_table(table, payload: Dict[str, Any]):
    names, op_types = list(payload["names"]), list(payload["op_types"])
    if len(op_types) != len(names) or len(set(names)) != len(names):
        raise ValueError("table frame: names and op types disagree")
    shape = (len(names), len(table.grid))
    for side in ("abs", "rel"):
        rows = payload[side]
        if not isinstance(rows, np.ndarray) or rows.dtype != np.float64 \
                or rows.shape != shape:
            raise ValueError(
                f"table frame: {side!r} must be a float64 array of shape "
                f"{shape}, got {getattr(rows, 'dtype', type(rows).__name__)} "
                f"{getattr(rows, 'shape', '')}")
    for index, name in enumerate(names):
        table.abs_thresholds[name] = payload["abs"][index]
        table.rel_thresholds[name] = payload["rel"][index]
        table.op_types[name] = str(op_types[index])
    return table


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
