"""Graph container and GraphModule.

:class:`Graph` stores nodes in their canonical topological order (creation
order during tracing) and offers the queries the protocol layer needs:
operator listing, per-node signatures, users/producers, and validation.

:class:`GraphModule` pairs a graph with its parameter store (the model
"state_dict") and input names — it is the executable artifact the proposer
runs, the challenger re-executes, and the Merkle layer commits to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.node import Node
from repro.utils.serialization import canonical_json


class Graph:
    """An acyclic dataflow graph with a canonical topological order."""

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._by_name: Dict[str, Node] = {}
        self.constants: Dict[str, np.ndarray] = {}
        self._name_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def fresh_name(self, base: str) -> str:
        """Generate a unique node name derived from ``base``."""
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    def add_node(self, node: Node) -> Node:
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r}")
        for dep in node.input_nodes:
            if dep.name not in self._by_name:
                raise ValueError(
                    f"node {node.name!r} depends on {dep.name!r} which is not in the graph; "
                    "nodes must be added in topological order"
                )
        self._nodes.append(node)
        self._by_name[node.name] = node
        return node

    def add_constant(self, name: str, value: np.ndarray) -> None:
        self.constants[name] = np.asarray(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in graph") from None

    @property
    def placeholders(self) -> List[Node]:
        return [n for n in self._nodes if n.op == "placeholder"]

    @property
    def parameters_used(self) -> List[Node]:
        return [n for n in self._nodes if n.op == "get_param"]

    @property
    def operators(self) -> List[Node]:
        """The ``call_op`` nodes in canonical topological order — the set V."""
        return [n for n in self._nodes if n.op == "call_op"]

    @property
    def output_node(self) -> Node:
        for node in reversed(self._nodes):
            if node.op == "output":
                return node
        raise ValueError("graph has no output node")

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    def users(self, node: Node) -> List[Node]:
        """Nodes that consume ``node``'s value."""
        return [n for n in self._nodes if any(dep.name == node.name for dep in n.input_nodes)]

    def edges(self) -> List[Tuple[str, str]]:
        """Data-dependency edges as (producer, consumer) name pairs."""
        out: List[Tuple[str, str]] = []
        for node in self._nodes:
            for dep in node.input_nodes:
                out.append((dep.name, node.name))
        return out

    def operator_index(self, name: str) -> int:
        """Position of operator ``name`` within the canonical operator order."""
        for idx, node in enumerate(self.operators):
            if node.name == name:
                return idx
        raise KeyError(f"{name!r} is not an operator node of this graph")

    def node_signature(self, node: Node) -> str:
        """Canonical JSON signature sigma(n) merkleized into the graph tree."""
        return canonical_json(node.signature_payload())

    def validate(self) -> None:
        """Check topological ordering and output presence; raise on violation."""
        seen = set()
        for node in self._nodes:
            for dep in node.input_nodes:
                if dep.name not in seen:
                    raise ValueError(
                        f"graph is not topologically ordered: {node.name} uses {dep.name} "
                        "before it is defined"
                    )
            seen.add(node.name)
        _ = self.output_node

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterable[Node]:
        return iter(self._nodes)


@dataclass
class GraphModule:
    """A traced graph together with its parameters and input names.

    ``parameters`` maps qualified names (e.g. ``"encoder.layer0.attn.q.weight"``)
    to arrays; this is the state_dict the weight Merkle tree commits to.
    """

    graph: Graph
    parameters: Dict[str, np.ndarray]
    input_names: List[str]
    name: str = "model"
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.graph.validate()
        placeholder_names = [n.name for n in self.graph.placeholders]
        if placeholder_names != list(self.input_names):
            raise ValueError(
                f"input names {self.input_names} do not match graph placeholders "
                f"{placeholder_names}"
            )
        for node in self.graph.parameters_used:
            if node.target not in self.parameters:
                raise ValueError(f"graph references unknown parameter {node.target!r}")

    @property
    def num_operators(self) -> int:
        return self.graph.num_operators

    def parameter_nbytes(self) -> int:
        return int(sum(np.asarray(p).nbytes for p in self.parameters.values()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Alias matching the paper's terminology for the committed weights."""
        return dict(self.parameters)

    def describe(self) -> Dict[str, Any]:
        """Summary used in reports and commitments metadata."""
        categories: Dict[str, int] = {}
        for node in self.graph.operators:
            categories[node.target] = categories.get(node.target, 0) + 1
        return {
            "name": self.name,
            "num_operators": self.num_operators,
            "num_parameters": len(self.parameters),
            "parameter_bytes": self.parameter_nbytes(),
            "operator_counts": dict(sorted(categories.items())),
            "inputs": list(self.input_names),
        }
