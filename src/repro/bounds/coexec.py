"""Co-execution of values and theoretical error bounds (paper Sec. 3.1).

The :class:`BoundInterpreter` runs a traced graph through the ordinary
:class:`~repro.graph.interpreter.Interpreter` walk (a recorded run over the
graph's cached execution plan) and then evaluates the per-operator bound
template for every operator step, reading the operands from the recorded
values through the step's ``arg_specs``; the result is a same-shape
``tau_theo`` envelope per operator.  Bounds are *not* propagated across
operator boundaries: every operator's inputs are treated as exact, matching
the paper's "turn composition into localization" design.

Values are computed in FP32 on the requested device; bound arithmetic runs in
FP64 (the paper does the same), and the numerical error of computing the
bounds themselves is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.bounds.fp_model import BoundMode, FloatingPointModel, FP32_MODEL
from repro.bounds.templates import BoundContext, bound_for_operator
from repro.engine.plan import KIND_OP, plan_for
from repro.graph.graph import GraphModule
from repro.graph.interpreter import Interpreter
from repro.tensorlib.device import DeviceProfile, REFERENCE_DEVICE


@dataclass
class BoundedExecution:
    """Result of a bounded run: per-node values and per-operator tau_theo."""

    device_name: str
    mode: BoundMode
    outputs: Tuple[np.ndarray, ...]
    output_names: Tuple[str, ...]
    values: Dict[str, np.ndarray] = field(default_factory=dict)
    bounds: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def output(self) -> np.ndarray:
        if len(self.outputs) != 1:
            raise ValueError(f"graph has {len(self.outputs)} outputs; use .outputs")
        return self.outputs[0]

    def bound(self, node_name: str) -> np.ndarray:
        try:
            return self.bounds[node_name]
        except KeyError:
            raise KeyError(f"no bound recorded for node {node_name!r}") from None

    def mean_bound_by_operator_type(self, graph_module: GraphModule) -> Dict[str, float]:
        """Mean absolute bound per operator type — the Fig. 3 statistic."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for node in graph_module.graph.operators:
            if node.name not in self.bounds:
                continue
            tau = self.bounds[node.name]
            sums[node.target] = sums.get(node.target, 0.0) + float(np.abs(tau).mean())
            counts[node.target] = counts.get(node.target, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}


class BoundInterpreter:
    """Executes a GraphModule while co-computing theoretical error bounds."""

    def __init__(
        self,
        device: DeviceProfile = REFERENCE_DEVICE,
        mode: BoundMode = BoundMode.PROBABILISTIC,
        fp_model: FloatingPointModel = FP32_MODEL,
    ) -> None:
        self.device = device
        self.ctx = BoundContext(fp=fp_model, mode=mode)
        self.interpreter = Interpreter(device)

    def run(
        self,
        graph_module: GraphModule,
        inputs: Dict[str, np.ndarray],
        record_values: bool = True,
        only_operators: Optional[set] = None,
    ) -> BoundedExecution:
        """Run ``graph_module`` and compute tau_theo for (a subset of) operators.

        ``only_operators`` optionally restricts bound computation to the given
        node names — used at the dispute leaf where only one operator's bound
        is required.
        """
        trace = self.interpreter.run(graph_module, inputs, record=True)
        env = trace.values
        bounds: Dict[str, np.ndarray] = {}
        for step in plan_for(graph_module).steps:
            if step.kind != KIND_OP:
                continue
            if only_operators is not None and step.name not in only_operators:
                continue
            args = [env[ref] if is_node else ref for is_node, ref in step.arg_specs]
            bounds[step.name] = bound_for_operator(
                self.ctx, step.target, env[step.name], args, step.kwargs
            )
        values = env if record_values else {name: env[name] for name in trace.output_names}
        return BoundedExecution(
            device_name=self.device.name,
            mode=self.ctx.mode,
            outputs=trace.outputs,
            output_names=trace.output_names,
            values=values,
            bounds=bounds,
        )

    def bound_single_operator(
        self,
        graph_module: GraphModule,
        operator_name: str,
        operand_values,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reference value and tau_theo for one operator on given operands.

        This is the Phase 3 theoretical-bound check primitive: the committed
        operator attributes come from the graph, the operand tensors from the
        agreed dispute state; the returned pair is (y_ref, tau_theo).
        """
        value = self.interpreter.run_single_operator(
            graph_module, operator_name, operand_values
        )
        node = graph_module.graph.node(operator_name)
        tau = bound_for_operator(self.ctx, node.target, value, operand_values, node.kwargs)
        return value, tau
