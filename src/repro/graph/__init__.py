"""Operator-granular dataflow graph: the reproduction's PyTorch-FX analogue.

The paper serializes a PyTorch model into "an acyclic dataflow graph
G = (V, E) with a canonical topological order, where each node denotes a
tensor operator" (Sec. 2.2) and later partitions, commits to, and
re-executes contiguous subgraphs during disputes (Sec. 5.2).  This subpackage provides
that machinery:

* :class:`~repro.graph.node.Node` / :class:`~repro.graph.graph.Graph` — the
  graph IR with a canonical topological order;
* :class:`~repro.graph.module.Module` / ``Parameter`` — a tiny ``nn.Module``
  analogue used by the model zoo;
* :class:`~repro.graph.tracer.Tracer` — concrete tracing: running a module's
  ``forward`` on proxy values records one node per primitive operator;
* :class:`~repro.graph.interpreter.Interpreter` — the one forward walk:
  executes a graph, a batch of requests, or one contiguous slice of it from
  its live-in tensors, on a simulated device over the graph's cached
  execution plan, optionally recording the full intermediate trace and FLOP
  counts;
* :mod:`~repro.graph.subgraph` — contiguous operator slices and their
  live-in/live-out cut sets, which the dispute game partitions and
  re-executes without materializing a subgraph.
"""

from repro.graph.node import Node
from repro.graph.graph import Graph, GraphModule
from repro.graph.module import Module, Parameter
from repro.graph.tracer import Tracer, trace_module
from repro.graph.interpreter import ExecutionTrace, Interpreter
from repro.graph.subgraph import SubgraphSlice, live_in, live_out

__all__ = [
    "Node",
    "Graph",
    "GraphModule",
    "Module",
    "Parameter",
    "Tracer",
    "trace_module",
    "ExecutionTrace",
    "Interpreter",
    "SubgraphSlice",
    "live_in",
    "live_out",
]
