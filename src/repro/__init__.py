"""repro — reproduction of "TAO: Tolerance-Aware Optimistic Verification for
Floating-Point Neural Networks" (EuroSys 2026).

The package provides the full TAO stack built from scratch on NumPy:

* :mod:`repro.tensorlib` — FP32 kernels on simulated heterogeneous devices
  whose reduction orders genuinely diverge (the source of the floating-point
  nondeterminism TAO tolerates);
* :mod:`repro.graph` / :mod:`repro.ops` — an operator-granular traced
  dataflow graph with contiguous-slice re-execution, the PyTorch-FX analogue;
* :mod:`repro.bounds` — per-operator theoretical IEEE-754 error envelopes
  (deterministic and probabilistic);
* :mod:`repro.calibration` — cross-device empirical error percentile
  thresholds with stability diagnostics;
* :mod:`repro.merkle` — weight / graph / threshold commitments and
  verifiable subgraph records;
* :mod:`repro.protocol` — the optimistic protocol: coordinator, dispute
  game, leaf adjudication, economics, and the gas-metered simulated ledger;
* :mod:`repro.attacks` — bound-aware PGD attacks and their evaluation;
* :mod:`repro.models` / :mod:`repro.workloads` — mini-scale analogues of the
  paper's four workloads and synthetic datasets;
* :mod:`repro.runtime` — the deployable runtime facade, determinism-mode
  measurement and standalone verification helpers;
* :mod:`repro.sim` — the adversarial protocol simulator: seedable
  multi-actor fault injection with safety / liveness / conservation
  invariant checking and counterexample shrinking;
* :mod:`repro.cluster` — the sharded serving tier: one front end
  (placement by commitment digest, request records, drains, failover
  re-dispatch, slash quarantine) over in-process shards on one settlement
  chain, shared with the process fleet's worker backend — bit-identical to
  a single service by construction.

Quickstart::

    from repro import TAOSession, get_model_spec

    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module)
    session = TAOSession(graph, calibration_inputs=spec.dataset(module, 10))
    session.setup()
    proposer = session.make_honest_proposer()
    report = session.run_request(spec.sample_inputs(module, 2, seed=1), proposer)
    assert report.final_status == "finalized"
"""

from repro.bounds import BoundInterpreter, BoundMode
from repro.calibration import (
    CalibrationConfig,
    Calibrator,
    CommitteeEnvelopeConfig,
    CommitteeEnvelopeProfile,
    ThresholdTable,
    calibrate_committee_envelope,
)
from repro.cluster import ConsistentHashRing, TAOCluster
from repro.engine import ExecutionPlan
from repro.graph import GraphModule, Interpreter, Module, Parameter, Tracer, trace_module
from repro.merkle import HashCache, MerkleTree, commit_model
from repro.models import available_models, build_model, get_model_spec
from repro.protocol import (
    Coordinator,
    DisputeGame,
    EconomicParameters,
    TAOService,
    TAOSession,
    analyze_incentives,
)
from repro.runtime import TracedRuntime, measure_determinism_overhead
from repro.sim import Scenario, SimWorkload, run_scenario
from repro.tensorlib import DEVICE_FLEET, REFERENCE_DEVICE, DeviceProfile

__version__ = "1.0.0"

__all__ = [
    "BoundInterpreter",
    "BoundMode",
    "Calibrator",
    "CalibrationConfig",
    "CommitteeEnvelopeConfig",
    "CommitteeEnvelopeProfile",
    "calibrate_committee_envelope",
    "ThresholdTable",
    "ExecutionPlan",
    "GraphModule",
    "HashCache",
    "Interpreter",
    "Module",
    "Parameter",
    "Tracer",
    "trace_module",
    "MerkleTree",
    "commit_model",
    "available_models",
    "build_model",
    "get_model_spec",
    "ConsistentHashRing",
    "Coordinator",
    "DisputeGame",
    "EconomicParameters",
    "TAOCluster",
    "TAOService",
    "TAOSession",
    "analyze_incentives",
    "TracedRuntime",
    "measure_determinism_overhead",
    "Scenario",
    "SimWorkload",
    "run_scenario",
    "DEVICE_FLEET",
    "REFERENCE_DEVICE",
    "DeviceProfile",
    "__version__",
]
