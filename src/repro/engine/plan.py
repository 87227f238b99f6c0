"""Precompiled per-graph execution plans.

The seed interpreter re-derived everything it needed on every call: it
re-walked ``graph.nodes`` (a fresh tuple per access), re-resolved every
operator through the global registry, re-classified node kinds by string
comparison, and re-scanned the graph for the output node.  For a service
keeping many requests in flight against the same committed model, all of
that work is invariant across calls.

:func:`compile_plan` performs that resolution once per :class:`GraphModule`
and freezes it into an :class:`ExecutionPlan`:

* one :class:`PlanStep` per node, with the node kind pre-classified, the
  :class:`~repro.ops.registry.OpSpec` pre-fetched, and each positional
  argument pre-split into "read this env slot" vs. "pass this literal";
* the graph's output names, resolved once;
* output liveness: for every step, the set of upstream values whose last
  consumer is that step, so non-recording executions can free intermediate
  tensors as soon as they are dead.

Plans contain no tensors and are device independent; the same plan drives
execution on every :class:`~repro.tensorlib.device.DeviceProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.ops.registry import OpSpec, get_op

if TYPE_CHECKING:  # the interpreter in repro.graph imports this module
    from repro.graph.graph import GraphModule
    from repro.graph.node import Node
    from repro.graph.subgraph import SubgraphSlice

#: Pre-classified node kinds (faster than string comparison per node per run).
KIND_INPUT = 0
KIND_PARAM = 1
KIND_CONST = 2
KIND_OP = 3

_KIND_BY_OP = {
    "placeholder": KIND_INPUT,
    "get_param": KIND_PARAM,
    "constant": KIND_CONST,
    "call_op": KIND_OP,
}

#: Attribute under which the compiled plan is cached on the GraphModule.
PLAN_ATTR = "_tao_execution_plan"


@dataclass(frozen=True)
class PlanStep:
    """One node of the graph with its execution-time lookups pre-resolved."""

    node: Node
    kind: int
    name: str
    target: str
    #: For ``call_op`` steps: the resolved operator spec.
    spec: Optional[OpSpec] = None
    #: For ``call_op`` steps: per positional argument, ``(True, env_name)``
    #: when the argument is a node value or ``(False, literal)`` otherwise.
    arg_specs: Tuple[Tuple[bool, Any], ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Env entries whose last consumer is this step (excluding outputs);
    #: non-recording runs drop them right after the step executes.
    release: Tuple[str, ...] = ()


@dataclass
class ExecutionPlan:
    """A compiled, reusable schedule for one :class:`GraphModule`."""

    graph_name: str
    steps: Tuple[PlanStep, ...]
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    #: Length of the graph this plan was compiled from; used to detect a
    #: mutated/retraced graph and recompile.
    num_nodes: int

    @property
    def num_operators(self) -> int:
        return sum(1 for step in self.steps if step.kind == KIND_OP)

    def slice_steps(self, slice_: SubgraphSlice) -> Tuple[PlanStep, ...]:
        """The steps a run of ``slice_`` executes, in plan order.

        These are the slice's operator steps plus the parameter and constant
        steps they read; live-in values are seeded by the caller.
        """
        operators = [step for step in self.steps if step.kind == KIND_OP]
        inside = {step.name for step in operators[slice_.start:slice_.end]}
        read = {dep.name for step in operators[slice_.start:slice_.end]
                for dep in step.node.input_nodes}
        return tuple(
            step for step in self.steps
            if step.name in inside
            or (step.kind in (KIND_PARAM, KIND_CONST) and step.name in read)
        )


def compile_plan(graph_module: GraphModule) -> ExecutionPlan:
    """Compile ``graph_module`` into an :class:`ExecutionPlan`."""
    from repro.graph.node import Node

    graph = graph_module.graph
    nodes = graph.nodes

    output_node = graph.output_node
    output_names = tuple(arg.name for arg in output_node.args if isinstance(arg, Node))
    keep_alive = set(output_names)

    # Last consumer per value, over the flattened dependency structure (the
    # interpreter only resolves top-level Node args, but nested Node refs are
    # still conservatively treated as uses so release can never free a value
    # another node might observe).
    last_use: Dict[str, int] = {}
    compute_steps = [node for node in nodes if node.op != "output"]
    for index, node in enumerate(compute_steps):
        for dep in node.input_nodes:
            last_use[dep.name] = index

    release_at: Dict[int, List[str]] = {}
    for name, index in last_use.items():
        if name in keep_alive:
            continue
        release_at.setdefault(index, []).append(name)

    steps: List[PlanStep] = []
    for index, node in enumerate(compute_steps):
        kind = _KIND_BY_OP[node.op]
        spec: Optional[OpSpec] = None
        arg_specs: Tuple[Tuple[bool, Any], ...] = ()
        if kind == KIND_OP:
            spec = get_op(node.target)
            arg_specs = tuple(
                (True, arg.name) if isinstance(arg, Node) else (False, arg)
                for arg in node.args
            )
        steps.append(PlanStep(
            node=node,
            kind=kind,
            name=node.name,
            target=node.target,
            spec=spec,
            arg_specs=arg_specs,
            kwargs=node.kwargs,
            release=tuple(release_at.get(index, ())),
        ))

    return ExecutionPlan(
        graph_name=graph_module.name,
        steps=tuple(steps),
        input_names=tuple(graph_module.input_names),
        output_names=output_names,
        num_nodes=len(graph),
    )


def plan_for(graph_module: GraphModule) -> ExecutionPlan:
    """Return the cached plan for ``graph_module``, compiling on first use.

    The plan is cached on the module instance itself so every interpreter
    (on every device) executing the same committed model, and every slice of
    it a dispute re-executes, shares one compilation.
    A changed node count (retrace/mutation) invalidates the cache.
    """
    plan = getattr(graph_module, PLAN_ATTR, None)
    if plan is None or plan.num_nodes != len(graph_module.graph):
        plan = compile_plan(graph_module)
        setattr(graph_module, PLAN_ATTR, plan)
    return plan
