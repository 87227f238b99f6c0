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
materialized.  :meth:`Interpreter.run_batch` stacks independent requests
along the leading batch axis where a probe certifies the stacked run
bit-identical, and bound co-execution
(:class:`~repro.bounds.coexec.BoundInterpreter`) evaluates its templates over
a recorded run.  ``tests/test_engine_parity.py`` pins :meth:`run` bit-identical
to the original node-by-node loop, which lives there as the test's oracle.

Bit-exactness of the batched path is *certified empirically* per (graph,
device, input signature): on first use two probe requests are executed both
individually and stacked, and every recorded tensor must be bit-identical.
Graphs that are not batch-polymorphic (e.g. transformer graphs whose
``reshape`` attributes bake in the traced batch size, or any operator
coupling values across the leading axis) fail the probe and fall back to
sequential execution — correctness never depends on an op whitelist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import (
    KIND_INPUT,
    KIND_OP,
    KIND_PARAM,
    ExecutionPlan,
    plan_for,
)
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

    def operator_values(self, graph_module: GraphModule) -> Dict[str, np.ndarray]:
        """Recorded values restricted to operator (call_op) nodes."""
        return {
            node.name: self.values[node.name]
            for node in graph_module.graph.operators
            if node.name in self.values
        }


class Interpreter:
    """Executes GraphModules on a :class:`DeviceProfile` over their cached plans."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device
        #: Whether the most recent :meth:`run_batch` used the stacked path
        #: (False when it fell back to sequential execution).
        self.last_batch_stacked = False

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

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------

    def run_batch(
        self,
        graph_module: GraphModule,
        inputs_list: Sequence[Mapping[str, np.ndarray]],
        record: bool = False,
        count_flops: bool = False,
    ) -> List[ExecutionTrace]:
        """Execute many independent requests, vectorizing where certified.

        Requests are stacked along the leading (batch) axis and executed in
        one pass when the graph's batched execution has been certified
        bit-identical for this device and input signature (see module
        docstring).  Uncertifiable graphs or ragged request shapes fall back
        to per-request :meth:`run` calls, so the result is always a list of
        per-request traces equivalent to sequential execution.  Callers
        never see the raggedness: a ``None`` from the batch-size/signature
        probes selects the fallback *inside* this method, so a ragged batch
        submitted through the service (or a multi-cycle/cluster drain) must
        complete per-request with correct verdicts — pinned end-to-end by
        the ragged-batch tests in ``tests/test_tao_service.py``.

        Note: in the stacked path, per-request FLOP counts and wall time are
        attributed proportionally to each request's share of the stacked
        batch (FLOPs of every zoo operator are linear in the leading axis).
        """
        self.last_batch_stacked = False
        requests = [dict(inputs) for inputs in inputs_list]
        if len(requests) <= 1:
            return [self.run(graph_module, req, record=record, count_flops=count_flops)
                    for req in requests]

        plan = plan_for(graph_module)
        batch_sizes = self._batch_sizes(plan, requests)
        signature = self._signature(plan, requests) if batch_sizes else None
        if batch_sizes is None or signature is None:
            return [self.run(graph_module, req, record=record, count_flops=count_flops)
                    for req in requests]

        cert_key = (self.device.name, signature)
        certified = plan.batch_certified.get(cert_key)
        if certified is None:
            certified = self._certify(graph_module, plan, requests)
            plan.batch_certified[cert_key] = certified
        if not certified:
            return [self.run(graph_module, req, record=record, count_flops=count_flops)
                    for req in requests]

        self.last_batch_stacked = True
        return self._run_stacked(graph_module, plan, requests, batch_sizes,
                                 record=record, count_flops=count_flops)

    # -- batching internals ----------------------------------------------

    @staticmethod
    def _batch_sizes(plan: ExecutionPlan,
                     requests: Sequence[Dict[str, np.ndarray]]) -> Optional[List[int]]:
        """Leading batch dim per request, or None when stacking is malformed."""
        sizes: List[int] = []
        for req in requests:
            size: Optional[int] = None
            for name in plan.input_names:
                arr = np.asarray(req.get(name))
                if arr.ndim == 0:
                    return None
                if size is None:
                    size = int(arr.shape[0])
                elif int(arr.shape[0]) != size:
                    return None  # inputs of one request disagree on batch dim
            if size is None or size <= 0:
                return None
            sizes.append(size)
        return sizes

    @staticmethod
    def _signature(plan: ExecutionPlan,
                   requests: Sequence[Dict[str, np.ndarray]]) -> Optional[Tuple]:
        """Per-input trailing shape/dtype signature shared by all requests."""
        signature = []
        for name in plan.input_names:
            trailing: Optional[Tuple] = None
            for req in requests:
                arr = np.asarray(req.get(name))
                item = (tuple(arr.shape[1:]), arr.dtype.str)
                if trailing is None:
                    trailing = item
                elif item != trailing:
                    return None  # ragged trailing shapes cannot stack
            signature.append((name,) + trailing)
        return tuple(signature)

    def _certify(self, graph_module: GraphModule, plan: ExecutionPlan,
                 requests: Sequence[Dict[str, np.ndarray]]) -> bool:
        """Empirically check that stacked execution is bit-identical.

        Runs the first two requests individually and stacked, comparing every
        recorded tensor (values, outputs, dtypes, shapes) bit-for-bit.
        """
        probe = list(requests[:2])
        individual = [self.run(graph_module, req, record=True) for req in probe]
        try:
            stacked = self._run_stacked(
                graph_module, plan, probe,
                [int(np.asarray(req[plan.input_names[0]]).shape[0]) for req in probe],
                record=True, count_flops=False,
            )
        except Exception:
            return False
        for solo, sliced in zip(individual, stacked):
            if set(solo.values) != set(sliced.values):
                return False
            for name, expected in solo.values.items():
                got = sliced.values[name]
                expected = np.asarray(expected)
                got = np.asarray(got)
                if expected.shape != got.shape or expected.dtype != got.dtype:
                    return False
                if expected.tobytes() != got.tobytes():
                    return False
        return True

    def _run_stacked(
        self,
        graph_module: GraphModule,
        plan: ExecutionPlan,
        requests: Sequence[Dict[str, np.ndarray]],
        batch_sizes: Sequence[int],
        record: bool,
        count_flops: bool,
    ) -> List[ExecutionTrace]:
        total = sum(batch_sizes)
        stacked_inputs = {
            name: np.concatenate([np.asarray(req[name]) for req in requests], axis=0)
            for name in plan.input_names
        }
        trace = self.run(graph_module, stacked_inputs, record=record,
                         count_flops=count_flops)

        offsets = np.cumsum([0] + list(batch_sizes))
        results: List[ExecutionTrace] = []
        for index, size in enumerate(batch_sizes):
            lo, hi = int(offsets[index]), int(offsets[index + 1])
            share = size / float(total)

            def split(name: str, value: np.ndarray) -> np.ndarray:
                if name in plan.input_dependent:
                    return value[lo:hi]
                return value  # pure function of weights/constants: shared

            values = {name: split(name, value) for name, value in trace.values.items()}
            outputs = tuple(values[name] for name in plan.output_names)
            flops = FlopCounter()
            if count_flops:
                for op_name, op_flops in trace.flops.per_op.items():
                    flops.add(op_name, op_flops * share)
            results.append(ExecutionTrace(
                device_name=trace.device_name,
                outputs=outputs,
                output_names=plan.output_names,
                values=values,
                flops=flops,
                wall_time_s=trace.wall_time_s * share,
            ))
        return results
