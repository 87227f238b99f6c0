"""Graph interpreter: executes a traced GraphModule on a simulated device.

The interpreter is used in three places that the paper distinguishes:

* the **proposer** runs the full graph on its device and records the
  intermediate trace it later commits to;
* the **challenger** re-executes the full graph (Phase 2 entry) and,
  during the dispute game, re-executes extracted subgraphs from their
  committed live-in tensors;
* the **committee** re-executes a single operator at the leaf.

All three paths go through :meth:`Interpreter.run`, so there is exactly one
execution semantics in the system.  :meth:`Interpreter.run` dispatches over a
precompiled, cached :class:`~repro.engine.plan.ExecutionPlan` via
:class:`~repro.engine.engine.ExecutionEngine`; ``tests/test_engine_parity.py``
pins it bit-identical to the original node-by-node loop, which lives there
as the test's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import GraphModule
from repro.ops.registry import get_op
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import FlopCounter


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

    def operator_values(self, graph_module: GraphModule) -> Dict[str, np.ndarray]:
        """Recorded values restricted to operator (call_op) nodes."""
        return {
            node.name: self.values[node.name]
            for node in graph_module.graph.operators
            if node.name in self.values
        }


class Interpreter:
    """Executes GraphModules on a :class:`DeviceProfile` via the engine layer."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device
        # Deferred import: the engine builds ExecutionTrace objects, so it
        # imports this module; resolving it lazily breaks the cycle.
        from repro.engine.engine import ExecutionEngine
        self.engine = ExecutionEngine(device)

    def run(
        self,
        graph_module: GraphModule,
        inputs: Dict[str, np.ndarray],
        record: bool = False,
        count_flops: bool = False,
        overrides: Optional[Dict[str, np.ndarray]] = None,
        delta_overrides: Optional[Dict[str, np.ndarray]] = None,
    ) -> ExecutionTrace:
        """Execute ``graph_module`` on ``inputs``.

        Dispatches over the cached execution plan; semantics are identical
        to the node-by-node reference loop (enforced by the engine parity
        tests).

        Parameters
        ----------
        inputs:
            Mapping from placeholder name to tensor.  Every placeholder must
            be provided.
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
        """
        return self.engine.run(
            graph_module, inputs, record=record, count_flops=count_flops,
            overrides=overrides, delta_overrides=delta_overrides,
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
