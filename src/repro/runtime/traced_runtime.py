"""TracedRuntime: instrument once, execute anywhere.

This is the user-facing convenience wrapper mirroring the paper's
PyTorch-compatible runtime: it traces a model into an operator graph,
executes it (optionally recording the full intermediate trace, per-operator
FLOPs, or co-executed theoretical error bounds), re-executes contiguous
operator slices from their live-in tensors, and produces the Phase 0 model
commitment.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.bounds.coexec import BoundedExecution, BoundInterpreter
from repro.bounds.fp_model import BoundMode
from repro.calibration.calibrator import CalibrationConfig, CalibrationResult, Calibrator
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.interpreter import ExecutionTrace, Interpreter
from repro.graph.module import Module
from repro.graph.subgraph import SubgraphSlice
from repro.graph.tracer import trace_module
from repro.merkle.commitments import ModelCommitment, commit_model
from repro.tensorlib.device import DeviceProfile, DEVICE_FLEET, REFERENCE_DEVICE


class TracedRuntime:
    """Instrumented model runtime.

    Parameters
    ----------
    module:
        The model to instrument.
    example_inputs:
        Concrete inputs used for tracing (the graph is specialized to their
        shapes, as the paper's per-request tracing is).
    name:
        Name recorded in commitments; defaults to the module class name.
    """

    def __init__(self, module: Module, example_inputs: Mapping[str, np.ndarray],
                 name: Optional[str] = None,
                 trace_device: DeviceProfile = REFERENCE_DEVICE) -> None:
        self.module = module
        self.graph_module: GraphModule = trace_module(
            module, dict(example_inputs), device=trace_device, name=name
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_operators(self) -> int:
        return self.graph_module.num_operators

    def describe(self) -> Dict[str, object]:
        return self.graph_module.describe()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, inputs: Mapping[str, np.ndarray], device: DeviceProfile,
                record: bool = False, count_flops: bool = False,
                overrides: Optional[Dict[str, np.ndarray]] = None) -> ExecutionTrace:
        """Run the full graph on ``device`` over the cached execution plan."""
        return Interpreter(device).run(self.graph_module, dict(inputs), record=record,
                                       count_flops=count_flops, overrides=overrides)

    def execute_with_bounds(self, inputs: Mapping[str, np.ndarray],
                            device: DeviceProfile,
                            mode: BoundMode = BoundMode.PROBABILISTIC) -> BoundedExecution:
        """Run the graph while co-computing per-operator theoretical bounds."""
        return BoundInterpreter(device=device, mode=mode).run(self.graph_module, dict(inputs))

    # ------------------------------------------------------------------
    # Slices
    # ------------------------------------------------------------------

    def execute_subgraph(self, start: int, end: int,
                         boundary_inputs: Mapping[str, np.ndarray],
                         device: DeviceProfile) -> ExecutionTrace:
        """Re-execute operators [start, end) from their live-in tensors.

        The challenger's primitive: the slice runs on the full graph's plan,
        and the trace's outputs are the slice's live-out values.
        """
        return Interpreter(device).run(self.graph_module, boundary_inputs, record=True,
                                       slice_=SubgraphSlice(start, end))

    # ------------------------------------------------------------------
    # Calibration and commitment
    # ------------------------------------------------------------------

    def calibrate(self, dataset: Iterable[Dict[str, np.ndarray]],
                  devices: Sequence[DeviceProfile] = DEVICE_FLEET) -> CalibrationResult:
        calibrator = Calibrator(CalibrationConfig(devices=tuple(devices)))
        return calibrator.calibrate(self.graph_module, dataset)

    def build_thresholds(self, calibration: CalibrationResult,
                         alpha: float = 3.0) -> ThresholdTable:
        return ThresholdTable.from_calibration(calibration, alpha=alpha)

    def commit(self, thresholds: ThresholdTable,
               metadata: Optional[Dict[str, object]] = None) -> ModelCommitment:
        return commit_model(self.graph_module, thresholds, metadata=metadata)
