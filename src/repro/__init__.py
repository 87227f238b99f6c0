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
* :mod:`repro.models` — mini-scale analogues of the paper's four workloads,
  each with its seeded input sampler;
* :mod:`repro.sim` — the adversarial protocol simulator: seedable
  multi-actor fault injection with safety / liveness / conservation
  invariant checking and counterexample shrinking;
* :mod:`repro.cluster` — the sharded serving tier: one front end
  (placement by commitment digest, one record per request under the id
  ``submit`` returned, drains, failover re-dispatch, slash quarantine)
  over in-process shards on one settlement chain, shared with the process
  fleet's worker backend — bit-identical to a single service by
  construction.

Quickstart (every request goes through :class:`TAOService`)::

    from repro import TAOService, calibrate_committee_envelope, get_model_spec

    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module)
    calibration_set = spec.dataset(module, 10)
    service = TAOService()
    service.register_model(
        graph, calibration_inputs=calibration_set,
        committee_envelope=calibrate_committee_envelope(graph, calibration_set))
    request_id = service.submit("bert_mini", spec.sample_inputs(module, 2, seed=1))
    service.process()
    assert service.request(request_id).status == "finalized"
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
    "Scenario",
    "SimWorkload",
    "run_scenario",
    "DEVICE_FLEET",
    "REFERENCE_DEVICE",
    "DeviceProfile",
    "__version__",
]
