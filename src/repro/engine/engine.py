"""The pluggable execution engine.

:class:`ExecutionEngine` owns a per-graph :class:`~repro.engine.plan.ExecutionPlan`
and executes it on one :class:`~repro.tensorlib.device.DeviceProfile`.  It is
the single execution back end behind :class:`~repro.graph.interpreter.Interpreter`
(which is now a thin facade over it), so the proposer, challenger, committee,
calibration and attack paths all share one execution semantics — exactly as
the seed interpreter guaranteed — while gaining:

* **plan reuse** — operator resolution, node classification and output-name
  derivation happen once per committed model instead of once per request;
* **liveness-based memory release** — non-recording runs free intermediate
  tensors at their last use instead of keeping the whole trace alive;
* **batched execution** (:meth:`ExecutionEngine.run_batch`) — independent
  requests are stacked along the leading batch axis and executed in one pass
  where the graph permits it, with per-request traces recovered by slicing.

Bit-exactness of the batched path is *certified empirically* per
(graph, device, input signature): on first use the engine executes two probe
requests both individually and stacked and requires every recorded tensor to
be bit-identical.  Graphs that are not batch-polymorphic (e.g. transformer
graphs whose ``reshape`` attributes bake in the traced batch size, or any
operator coupling values across the leading axis) fail the probe and fall
back to sequential execution — correctness never depends on an op whitelist.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import (
    KIND_CONST,
    KIND_INPUT,
    KIND_OP,
    KIND_PARAM,
    ExecutionPlan,
    plan_for,
)
from repro.graph.graph import GraphModule
from repro.graph.interpreter import ExecutionTrace
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import FlopCounter
from repro.utils.timing import now


class ExecutionEngine:
    """Executes compiled plans on one simulated device."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device
        #: Whether the most recent :meth:`run_batch` used the stacked path
        #: (False when it fell back to sequential execution).
        self.last_batch_stacked = False

    # ------------------------------------------------------------------
    # Single-request execution (the Interpreter.run semantics)
    # ------------------------------------------------------------------

    def run(
        self,
        graph_module: GraphModule,
        inputs: Mapping[str, np.ndarray],
        record: bool = False,
        count_flops: bool = False,
        overrides: Optional[Dict[str, np.ndarray]] = None,
        delta_overrides: Optional[Dict[str, np.ndarray]] = None,
    ) -> ExecutionTrace:
        """Execute ``graph_module`` over a cached plan.

        Semantics (including override/delta handling, recorded values and
        error messages) are identical to the seed interpreter loop, which
        ``tests/test_engine_parity.py`` keeps as its oracle and pins.
        """
        plan = plan_for(graph_module)
        missing = [n for n in plan.input_names if n not in inputs]
        if missing:
            raise ValueError(f"missing graph inputs: {missing}")

        env: Dict[str, np.ndarray] = {}
        flops = FlopCounter()
        overrides = overrides or {}
        delta_overrides = delta_overrides or {}
        patched = bool(overrides) or bool(delta_overrides)
        parameters = graph_module.parameters
        constants = graph_module.graph.constants
        device = self.device
        start = now()

        for step in plan.steps:
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

            if not record and step.release:
                for dead in step.release:
                    env.pop(dead, None)

        outputs = tuple(env[name] for name in plan.output_names)
        elapsed = now() - start

        if record:
            values = env
        else:
            values = {name: env[name] for name in plan.output_names}
        return ExecutionTrace(
            device_name=device.name,
            outputs=outputs,
            output_names=plan.output_names,
            values=values,
            flops=flops,
            wall_time_s=elapsed,
        )

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
