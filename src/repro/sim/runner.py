"""Execute scenario schedules against the real protocol stack.

The runner owns *zero* protocol logic: every event is described as small
actor wire specs, resolved into role objects by the one actor builder
(:mod:`repro.sim.actors`, over the fault wrappers in
:mod:`repro.sim.faults`) and submitted to an ordinary
:class:`~repro.protocol.service.TAOService` over a fresh coordinator and
chain — or, when the scenario sets ``num_shards`` > 1, to an ordinary
:class:`~repro.cluster.cluster.TAOCluster` over a fresh shared settlement
chain (both implement :class:`~repro.protocol.service.ServiceCore`, so the
drive loop is identical).  A ``process_fleet`` scenario ships the specs
themselves and its worker processes resolve them through the same builder.
``drain_home_at_cycle`` injects a shard failover between a cycle's
submissions and its drain, re-dispatching the in-flight events across
shards; ``undrain_home_at_cycle`` returns the drained shard to service
before a later cycle's submissions (the scale-up leg).
``Scenario(cycle_capacity=...)`` splits each drain into small cycles, so one
burst's faulty disputes settle before the next cycle of the same burst
submits.  What comes back — coordinator statuses, dispute
outcomes, the transaction log, the ledger — is handed to the invariant
checker untouched.

Workload preparation (tracing + cross-device calibration) is the expensive
part, so :func:`prepare_workload` memoizes it per model name and shares one
:class:`~repro.merkle.cache.HashCache` across every scenario of a workload
(the committed weights are the same arrays, so their digests are computed
once for hundreds of scenarios).
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.calibration.calibrator import CalibrationConfig, Calibrator
from repro.calibration.committee import (
    CommitteeEnvelopeConfig,
    CommitteeEnvelopeProfile,
    calibrate_committee_envelope,
)
from repro.calibration.thresholds import ThresholdTable
from repro.cluster.cluster import TAOCluster
from repro.cluster.placement import PlacedCore
from repro.fleet.fleet import ProcessFleet
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.protocol.coordinator import Coordinator
from repro.protocol.service import ServiceCore, TAOService
from repro.sim import actors
from repro.sim.invariants import (
    EventOutcome,
    InvariantViolation,
    check_invariants,
    service_coordinators,
)
from repro.sim.scenario import RequestEvent, Scenario, ScenarioSchedule, expand
from repro.tensorlib.device import DEVICE_FLEET
from repro.utils.rng import derive_seed

#: Lateness of a ``late_move`` challenger per round: well inside the default
#: 600 s round timeout even with a busy multiplexed cycle interleaved.
LATE_MOVE_DELAY_S = 120.0

#: A dropped move stalls past any round timeout.
DROPPED_MOVE_DELAY_S = 1e9


@dataclass
class SimWorkload:
    """One prepared workload: traced graph, thresholds, input sampler.

    ``committee_envelope`` (optional) is the workload's calibrated
    committee-leaf acceptance envelope; scenarios adopt it unless they set
    ``calibrated_committee=False`` (the reference-tolerance replay used by
    the defect regression tests).
    """

    name: str
    graph: GraphModule
    thresholds: ThresholdTable
    sample_inputs: Callable[[int], Dict[str, np.ndarray]]
    hash_cache: HashCache = field(default_factory=HashCache)
    committee_envelope: Optional[CommitteeEnvelopeProfile] = None


@dataclass
class SimulationResult:
    """Everything one scenario run produced, ready for invariant checking."""

    schedule: ScenarioSchedule
    #: The serving front end the scenario drove: a plain TAOService or, for
    #: ``num_shards`` > 1, a TAOCluster (invariants are checked fleet-wide).
    service: ServiceCore
    outcomes: List[EventOutcome]
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_WORKLOADS: Dict[str, SimWorkload] = {}


def prepare_workload(model_name: str, calibration_samples: int = 12,
                     seed: int = 17,
                     committee_samples: Optional[int] = 6) -> SimWorkload:
    """Trace + calibrate one zoo model once per process (memoized).

    ``committee_samples`` additionally calibrates the committee-leaf
    acceptance envelope (single-op re-execution spreads across the fleet);
    ``None`` skips it, leaving scenarios on the reference tolerance.  The
    leaf envelope stabilizes in fewer samples than the full-trace thresholds
    (single-op spreads carry no accumulated-error tail), so the default is
    half the calibration budget.
    """
    key = f"{model_name}/{calibration_samples}/{seed}/{committee_samples}"
    if key in _WORKLOADS:
        return _WORKLOADS[key]
    from repro.models import get_model_spec

    spec = get_model_spec(model_name)
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1, seed=seed)
    calibrator = Calibrator(CalibrationConfig(devices=DEVICE_FLEET))
    calibration = calibrator.calibrate(
        graph, spec.dataset(module, calibration_samples, seed=seed, batch_size=1)
    )
    thresholds = ThresholdTable.from_calibration(calibration, alpha=3.0)
    committee_envelope = None
    if committee_samples is not None:
        committee_envelope = calibrate_committee_envelope(
            graph,
            spec.dataset(module, committee_samples, seed=seed, batch_size=1),
            CommitteeEnvelopeConfig(devices=DEVICE_FLEET),
        )
    workload = SimWorkload(
        name=model_name,
        graph=graph,
        thresholds=thresholds,
        sample_inputs=lambda s, _m=module, _sp=spec: _sp.sample_inputs(_m, 1, s),
        committee_envelope=committee_envelope,
    )
    _WORKLOADS[key] = workload
    return workload


def run_scenario(scenario: Scenario, workload: SimWorkload,
                 chain=None) -> SimulationResult:
    """Expand and run one scenario; invariants are checked on the way out."""
    return run_schedule(expand(scenario, workload.graph, workload.thresholds),
                        workload, chain=chain)


def run_schedule(schedule: ScenarioSchedule, workload: SimWorkload,
                 chain=None) -> SimulationResult:
    """Execute an (already expanded) schedule against a fresh service.

    ``chain`` injects the settlement ledger the service is built over
    (default: a fresh :class:`~repro.protocol.chain.SimulatedChain`).  The
    campaign driver passes a chain pre-seeded with the stake ledger carried
    from earlier cycles — standing roles fund through ``fund_once``, so
    existing balances survive instead of being re-minted.
    """
    scenario = schedule.scenario
    service = _build_service(scenario, workload, chain=chain)
    fleet = isinstance(service, ProcessFleet)
    model_name = workload.graph.name

    request_ids: Dict[int, int] = {}
    drained_home: Optional[str] = None
    for cycle_index, cycle in enumerate(schedule.cycles):
        if (scenario.undrain_home_at_cycle == cycle_index
                and drained_home is not None):
            # Scale-up leg: the shard drained earlier returns to
            # service before this cycle's submissions, so tenants whose ring
            # home flips back re-migrate and the new events land on the
            # restored topology.
            service.undrain_shard(drained_home)
            drained_home = None
        for event in cycle:
            proposer = _proposer_spec(event, workload)
            challenger = _challenger_spec(event)
            if not fleet:
                # In-process tiers resolve the specs through the builder a
                # fleet worker runs; a fleet ships them as they are.  Fault
                # overrides sit against the workload table.
                if proposer is not None:
                    proposer = actors.build_proposer(
                        service, model_name, proposer, workload.thresholds)
                if challenger is not None:
                    challenger = actors.build_challenger(
                        service, model_name, challenger)
            request_ids[event.index] = service.submit(
                model_name,
                workload.sample_inputs(event.input_seed),
                proposer=proposer,
                force_challenge=event.force_challenge,
                challenger=challenger,
            )
        if (scenario.drain_home_at_cycle == cycle_index
                and isinstance(service, PlacedCore)
                and service.active_shard_count > 1):
            # Failover under fire: the cycle's events are already queued on
            # the home shard; draining it withdraws and re-dispatches them
            # to the ring successor before they are processed.
            drained_home = service.location(model_name)
            service.drain_shard(drained_home)
        # Crash events ride on the schedule (not just the scenario knob) so
        # a shrunk schedule keeps crashing at the same event.
        if fleet and any(event.crash_after for event in cycle):
            _arm_crash(service, model_name)
        service.process()

    outcomes = [
        _outcome_for(event, service.request(request_ids[event.index]), service)
        for event in schedule.events
    ]
    if fleet:
        # Everything invariants walk (coordinator snapshots, the parent
        # chain, parent request records) outlives the workers.
        service.close()
    result = SimulationResult(schedule=schedule, service=service, outcomes=outcomes)
    result.violations = check_invariants(result)
    return result


# ----------------------------------------------------------------------
# Actor construction
# ----------------------------------------------------------------------

def _arm_crash(fleet: ProcessFleet, model_name: str) -> None:
    """One-shot SIGKILL of the model's home worker at its next fresh chain call.

    "Fresh" means a sequence id above the journal tail, so the hook never
    re-fires on the deterministic replay a recovering worker performs — the
    crash lands mid-transition (after the write-ahead record, inside the
    chain-call stream) exactly once per armed cycle.
    """
    home = fleet.location(model_name)
    tail = fleet.journal_for(home).chain_tail

    def hook(shard_id: str, message: Dict[str, object],
             _home: str = home, _tail: int = tail) -> None:
        if shard_id != _home or int(message.get("seq", 0)) <= _tail:
            return
        fleet._chain_call_hook = None
        handle = fleet.workers[shard_id]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=10.0)

    fleet._chain_call_hook = hook


def _build_service(scenario: Scenario, workload: SimWorkload,
                   chain=None) -> ServiceCore:
    if scenario.process_fleet:
        if scenario.threshold_scale != 1.0:
            raise ValueError(
                "process_fleet scenarios require threshold_scale == 1.0: "
                "fault overrides are rebuilt worker-side from the registered "
                "threshold table, which must equal the workload table")
        fleet = ProcessFleet(
            num_workers=max(scenario.num_shards, 1),
            chain=chain,
            n_way=scenario.n_way,
            leaf_path=scenario.leaf_path,
            committee_size=scenario.committee_size,
            hash_cache=workload.hash_cache,
            cycle_capacity=scenario.cycle_capacity,
            actor_module=actors.__name__,
        )
        envelope = workload.committee_envelope \
            if scenario.calibrated_committee else None
        fleet.register_model(
            workload.graph,
            threshold_table=workload.thresholds,
            committee_envelope=envelope,
            colluding_majority=(scenario.committee_size // 2) + 1
            if scenario.colluding_committee else None,
        )
        return fleet
    if scenario.num_shards > 1:
        service: ServiceCore = TAOCluster(
            num_shards=scenario.num_shards,
            chain=chain,
            n_way=scenario.n_way,
            leaf_path=scenario.leaf_path,
            committee_size=scenario.committee_size,
            hash_cache=workload.hash_cache,
            cycle_capacity=scenario.cycle_capacity,
        )
    else:
        service = TAOService(
            coordinator=Coordinator(chain=chain),
            n_way=scenario.n_way,
            leaf_path=scenario.leaf_path,
            committee_size=scenario.committee_size,
            hash_cache=workload.hash_cache,
            cycle_capacity=scenario.cycle_capacity,
        )
    session_kwargs = {}
    if scenario.colluding_committee:
        # A majority of the committee is bought; the last seat stays honest.
        session_kwargs["committee_factory"] = actors.build_committee_factory(
            (scenario.committee_size // 2) + 1)
    if scenario.calibrated_committee and workload.committee_envelope is not None:
        envelope = workload.committee_envelope
        if scenario.threshold_scale != 1.0:
            # A broken/mis-scaled commitment breaks the whole committed
            # bundle: the canary's zeroed protocol must stay detectably
            # broken under the calibrated leaf as well.
            envelope = envelope.scaled(scenario.threshold_scale)
        session_kwargs["committee_envelope"] = envelope
    thresholds = workload.thresholds
    if scenario.threshold_scale != 1.0:
        thresholds = thresholds.scaled(scenario.threshold_scale)
    service.register_model(workload.graph, threshold_table=thresholds,
                           **session_kwargs)
    return service


def _proposer_spec(event: RequestEvent,
                   workload: SimWorkload) -> Optional[Dict[str, object]]:
    """The proposer wire spec for one event (None = service default honest
    path): names, derived seeds, devices and funding — everything
    :mod:`repro.sim.actors` needs to build the actor, in process or inside
    a fleet worker.
    """
    name = f"sim-proposer-{event.index}"
    if event.kind == "honest":
        return None
    if event.kind == "device_drift":
        return {"type": "honest", "name": name,
                "device_index": event.drift_device % len(DEVICE_FLEET),
                "fund": True}
    if event.kind == "stale_trace":
        # The builder memoizes the decoy trace per session.
        return {"type": "stale_trace", "name": name,
                "decoy_key": int(event.decoy_seed),
                "decoy_inputs": workload.sample_inputs(event.decoy_seed)}
    return {
        "type": "sim_fault", "name": name, "kind": event.kind,
        "victim": event.victim, "magnitude": float(event.magnitude),
        "seed": derive_seed(event.fault_seed, "fault", event.index),
        "partition_delay_s": DROPPED_MOVE_DELAY_S
        if event.kind == "drop_partition" else 0.0,
    }


def _challenger_spec(event: RequestEvent) -> Optional[Dict[str, object]]:
    """The per-request challenger override spec (None = service default)."""
    if event.kind not in ("drop_selection", "late_move"):
        return None
    delay = DROPPED_MOVE_DELAY_S if event.kind == "drop_selection" \
        else LATE_MOVE_DELAY_S
    return {"type": "sim_challenger", "name": f"sim-challenger-{event.index}",
            "selection_delay_s": float(delay)}


def _dispute_record(service: ServiceCore, task):
    """The DisputeRecord for a task, wherever its coordinator lives.

    Dispute ids are per-coordinator, so the task's owning coordinator is
    found first (the coordinator whose task table holds this exact record).
    """
    for coordinator in service_coordinators(service):
        if coordinator.tasks.get(task.task_id) is task:
            if task.dispute_id is None:
                return None
            return coordinator.disputes.get(task.dispute_id)
    return None


def _outcome_for(event: RequestEvent, request, service: ServiceCore) -> EventOutcome:
    report = request.report
    flagged = bool(report is not None
                   and any(r.exceeded for r in report.verification_reports))
    dispute_path = None
    if report is not None and report.dispute is not None:
        record = _dispute_record(service, report.task)
        dispute_path = record.adjudication_path if record is not None else None
    return EventOutcome(
        event=event,
        status=request.status,
        flagged=flagged,
        challenged=bool(report is not None and report.challenged),
        proposer_slashed=(request.status == "proposer_slashed"),
        finalized=(request.status == "finalized"),
        rejected=(request.status == "rejected"),
        dispute_path=dispute_path,
    )
