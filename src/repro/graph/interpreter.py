"""Graph interpreter: the one forward walk over a compiled execution plan.

The interpreter is used in three places that the paper distinguishes:

* the **proposer** runs the full graph on its device and records the
  intermediate trace it later commits to;
* the **challenger** re-executes the full graph (Phase 2 entry) and, during
  the dispute game, re-executes each child slice of the committed graph from
  the proposer's live-in tensors (:meth:`Interpreter.run` with ``slice_``);
* the **committee** re-executes a single operator at the leaf
  (:meth:`Interpreter.run_single_operator`).

Every forward walk in the system is :meth:`Interpreter.run`: over the one
:class:`~repro.engine.plan.ExecutionPlan` that
:func:`~repro.engine.plan.plan_for` caches per committed model, a full run
executes every step, releasing intermediate tensors at their last use when
nothing is recorded, and a slice run executes only the slice's operator
steps plus the parameter/constant steps they read.  No subgraph is ever
materialized.  A run executes one request's payload, so a recorded trace is
a function of (model, inputs, device) alone, never of what else a service
drains alongside it.  Bound co-execution
(:class:`~repro.bounds.coexec.BoundInterpreter`) evaluates its templates over
a recorded run.  ``tests/test_engine_parity.py`` pins :meth:`run` bit-identical
to the original node-by-node loop, which lives there as the test's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import KIND_INPUT, KIND_OP, KIND_PARAM, plan_for
from repro.graph.graph import GraphModule
from repro.graph.subgraph import SubgraphSlice, live_in, live_out
from repro.ops.registry import get_op
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import FlopCounter
from repro.utils.timing import now


@dataclass
class ExecutionTrace:
    """The result of executing a GraphModule on one device.

    ``values`` maps node names to their computed tensors when the run was
    recorded (the proposer's committed trace); it maps only output names
    otherwise.  ``flops`` carries per-operator FLOP counts for the cost
    accounting of Table 3.
    """

    device_name: str
    outputs: Tuple[np.ndarray, ...]
    output_names: Tuple[str, ...]
    values: Dict[str, np.ndarray] = field(default_factory=dict)
    flops: FlopCounter = field(default_factory=FlopCounter)
    wall_time_s: float = 0.0

    @property
    def output(self) -> np.ndarray:
        """Convenience accessor for single-output graphs."""
        if len(self.outputs) != 1:
            raise ValueError(f"graph has {len(self.outputs)} outputs; use .outputs")
        return self.outputs[0]

    def value(self, node_name: str) -> np.ndarray:
        try:
            return self.values[node_name]
        except KeyError:
            raise KeyError(
                f"no recorded value for node {node_name!r}; was the run recorded?"
            ) from None


class Interpreter:
    """Executes GraphModules on a :class:`DeviceProfile` over their cached plans."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device

    def run(
        self,
        graph_module: GraphModule,
        inputs: Mapping[str, np.ndarray],
        record: bool = False,
        count_flops: bool = False,
        overrides: Optional[Dict[str, np.ndarray]] = None,
        delta_overrides: Optional[Dict[str, np.ndarray]] = None,
        slice_: Optional[SubgraphSlice] = None,
    ) -> ExecutionTrace:
        """Execute ``graph_module`` (or one slice of it) on ``inputs``.

        Parameters
        ----------
        inputs:
            Mapping from placeholder name to tensor; every placeholder must be
            provided.  For a slice run, the mapping from live-in name to
            tensor instead; every live-in must be provided.
        record:
            When True the returned trace holds every intermediate tensor
            (the proposer's committed trace / calibration recording).
        count_flops:
            When True per-operator FLOPs are accumulated.
        overrides:
            Optional mapping ``node name -> tensor`` applied *after* the
            node's value is computed.  This is the hook the adversarial
            proposer uses to inject perturbations into intermediate tensors
            (paper Sec. 4.2) and the dispute-game tests use to plant faults
            at chosen operators.
        delta_overrides:
            Optional mapping ``node name -> additive perturbation``; the
            delta is added to whatever value the node computed *during this
            run* (so the effects of upstream perturbations compound through
            the graph).  This is the forward used by the PGD attack, which
            optimizes the deltas jointly across operators.
        slice_:
            When given, execute only operators ``[start, end)`` of the
            committed graph from their live-in values (the challenger's
            dispute re-execution).  The trace's outputs are the slice's
            live-out values; nothing is released.
        """
        plan = plan_for(graph_module)
        if slice_ is None:
            steps, needed, output_names = plan.steps, plan.input_names, plan.output_names
        else:
            needed = tuple(live_in(graph_module.graph, slice_))
            output_names = tuple(live_out(graph_module.graph, slice_))
            steps = plan.slice_steps(slice_)
        missing = [n for n in needed if n not in inputs]
        if missing:
            raise ValueError(f"missing graph inputs: {missing}")

        # A slice run starts from its live-in values and releases nothing.
        env: Dict[str, np.ndarray] = (
            {} if slice_ is None else {name: np.asarray(inputs[name]) for name in needed}
        )
        release = not record and slice_ is None
        flops = FlopCounter()
        overrides = overrides or {}
        delta_overrides = delta_overrides or {}
        patched = bool(overrides) or bool(delta_overrides)
        parameters = graph_module.parameters
        constants = graph_module.graph.constants
        device = self.device
        start = now()

        for step in steps:
            kind = step.kind
            if kind == KIND_OP:
                args = [env[ref] if is_node else ref for is_node, ref in step.arg_specs]
                value = step.spec.forward(device, *args, **step.kwargs)
                if count_flops:
                    flops.add(step.target,
                              step.spec.estimate_flops(value, *args, **step.kwargs))
            elif kind == KIND_INPUT:
                value = np.asarray(inputs[step.name])
            elif kind == KIND_PARAM:
                value = np.asarray(parameters[step.target])
            else:  # KIND_CONST
                value = np.asarray(constants[step.target])

            if patched:
                if step.name in overrides:
                    override = np.asarray(overrides[step.name])
                    if override.shape != np.shape(value):
                        raise ValueError(
                            f"override for {step.name!r} has shape {override.shape}, "
                            f"expected {np.shape(value)}"
                        )
                    value = override.astype(np.float32)
                if step.name in delta_overrides:
                    delta = np.asarray(delta_overrides[step.name], dtype=np.float32)
                    if delta.shape != np.shape(value):
                        raise ValueError(
                            f"delta override for {step.name!r} has shape {delta.shape}, "
                            f"expected {np.shape(value)}"
                        )
                    value = (np.asarray(value, dtype=np.float32) + delta).astype(np.float32)
            env[step.name] = value

            if release and step.release:
                for dead in step.release:
                    env.pop(dead, None)

        outputs = tuple(env[name] for name in output_names)
        elapsed = now() - start

        if record:
            values = env
        else:
            values = {name: env[name] for name in output_names}
        return ExecutionTrace(
            device_name=device.name,
            outputs=outputs,
            output_names=output_names,
            values=values,
            flops=flops,
            wall_time_s=elapsed,
        )

    def run_single_operator(
        self,
        graph_module: GraphModule,
        operator_name: str,
        operand_values: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Re-execute one operator of ``graph_module`` on given operand tensors.

        Used by the committee at the dispute leaf: the operator's type and
        attributes come from the committed graph, the operand tensors from
        the agreed-upon inputs.
        """
        node = graph_module.graph.node(operator_name)
        if not node.is_operator:
            raise ValueError(f"{operator_name!r} is not an operator node")
        spec = get_op(node.target)
        return spec.forward(self.device, *operand_values, **node.kwargs)
