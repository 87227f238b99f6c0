"""Cut sets of contiguous operator slices (paper Sec. 5.2).

A dispute round partitions the currently disputed operator range into N
contiguous slices of the canonical topological order.  A slice ``S`` is
described, never materialized: :func:`live_in` names its live-in activations
``In(S)`` and :func:`live_out` its live-out activations ``Out(S)``, while its
parameters are reused by reference from the committed model (each referenced
parameter carries a Merkle inclusion proof into the weight tree).  The
challenger re-executes a slice on the committed graph's own plan from the
proposer's live-in tensors
(:meth:`~repro.graph.interpreter.Interpreter.run` with ``slice_``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.graph.graph import Graph
from repro.graph.node import Node


@dataclass(frozen=True)
class SubgraphSlice:
    """A contiguous range [start, end) of operator indices in canonical order."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid slice [{self.start}, {self.end})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def split(self, n_way: int) -> List["SubgraphSlice"]:
        """Partition into at most ``n_way`` non-empty contiguous children.

        This is the proposer's *deterministic* canonical partition policy:
        children are as equal as possible, earlier children take the extra
        operator when the size does not divide evenly, so both parties derive
        the same partition independently.
        """
        if n_way < 2:
            raise ValueError("n_way partitions require n_way >= 2")
        size = self.size
        if size <= 1:
            return [self]
        n_children = min(n_way, size)
        base = size // n_children
        remainder = size % n_children
        children: List[SubgraphSlice] = []
        cursor = self.start
        for i in range(n_children):
            length = base + (1 if i < remainder else 0)
            children.append(SubgraphSlice(cursor, cursor + length))
            cursor += length
        return children

    def contains(self, operator_index: int) -> bool:
        return self.start <= operator_index < self.end


def _operator_nodes(graph: Graph, slice_: SubgraphSlice) -> List[Node]:
    operators = graph.operators
    if slice_.end > len(operators):
        raise ValueError(
            f"slice [{slice_.start}, {slice_.end}) exceeds operator count {len(operators)}"
        )
    return operators[slice_.start:slice_.end]


def live_in(graph: Graph, slice_: SubgraphSlice) -> List[str]:
    """Names of activation values produced outside the slice but consumed inside.

    Parameters and constants are *not* included: they are reused by reference
    with Merkle inclusion proofs rather than passed as boundary tensors.
    """
    inside: Set[str] = {node.name for node in _operator_nodes(graph, slice_)}
    needed: List[str] = []
    seen: Set[str] = set()
    for node in _operator_nodes(graph, slice_):
        for dep in node.input_nodes:
            if dep.name in inside or dep.name in seen:
                continue
            if dep.op in ("get_param", "constant"):
                continue
            seen.add(dep.name)
            needed.append(dep.name)
    return needed


def live_out(graph: Graph, slice_: SubgraphSlice) -> List[str]:
    """Names of slice operators whose value is consumed outside the slice.

    A value escapes the slice if a later operator uses it or if it feeds the
    graph output.  The last operator of the slice is always included so that
    every slice exposes at least one comparable output (this matches the
    dispute game's need to compare the slice frontier even when the final
    operator's value is only consumed further downstream).
    """
    operators = _operator_nodes(graph, slice_)
    inside: Set[str] = {node.name for node in operators}
    escaping: List[str] = []
    for node in graph.nodes:
        if node.name in inside:
            continue
        for dep in node.input_nodes:
            if dep.name in inside and dep.name not in escaping:
                escaping.append(dep.name)
    if operators and operators[-1].name not in escaping:
        escaping.append(operators[-1].name)
    # Preserve canonical (topological) order of the escaping values.
    order = {node.name: idx for idx, node in enumerate(graph.nodes)}
    return sorted(escaping, key=lambda name: order[name])
