"""The simulator's one actor builder: every role object from its wire spec.

The runner describes each event's actors as small spec maps
(``{"type": ...}``) and resolves them here — in process for the plain
service and the in-process cluster, and inside worker processes for
``process_fleet`` scenarios (the fleet's ``actor_module`` hello field names
this module), because fault wrappers hold interpreter-override closures that
no codec moves.  One builder on both sides means the same names, funding,
devices and derived seeds wherever a scenario runs, so a fleet run lands on
the same verdicts and the same ledger as its in-process reference.

The fault-override table is passed in explicitly: the runner passes the
workload table, a fleet worker its session's registered table.  The two
differ only when ``threshold_scale != 1.0``, which is why the runner rejects
``process_fleet`` scenarios with a scaled table.

``stale_trace`` decoys are memoized per session, so they live exactly as
long as the run that registered the session: a decoy committed under one
run's model commitment can never be replayed into another run.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict

from repro.calibration.thresholds import ThresholdTable
from repro.fleet import actors as default_actors
from repro.protocol.roles import CommitteeMember, HonestProposer
from repro.sim.faults import (
    ColludingCommitteeMember,
    SimChallenger,
    SimProposer,
    StaleTraceProposer,
    make_fault_overrides,
)
from repro.tensorlib.device import DEVICE_FLEET

#: Decoy traces for stale_trace events: session -> {decoy seed: trace}.
_DECOYS: "weakref.WeakKeyDictionary[Any, Dict[int, Any]]" = \
    weakref.WeakKeyDictionary()


def build_proposer(service: Any, model_name: str, spec: Dict[str, Any],
                   thresholds: ThresholdTable):
    """Build one simulator proposer from its wire spec against ``service``.

    ``thresholds`` is the table fault overrides are placed against.
    """
    kind = spec["type"]
    session = service.model(model_name).session
    chain = session.coordinator.chain
    if kind == "sim_fault":
        overrides = make_fault_overrides(
            spec["kind"], session.graph_module, thresholds,
            spec["victim"], spec["magnitude"], int(spec["seed"]),
        )
        chain.fund_once(spec["name"], session.initial_balance)
        return SimProposer(spec["name"], DEVICE_FLEET[0], overrides,
                           hash_cache=service.hash_cache,
                           partition_delay_s=float(spec["partition_delay_s"]))
    if kind == "stale_trace":
        decoys = _DECOYS.setdefault(session, {})
        source = decoys.get(int(spec["decoy_key"]))
        if source is None:
            scout = HonestProposer(f"{spec['name']}-scout", DEVICE_FLEET[0],
                                   hash_cache=service.hash_cache)
            source = scout.trace(session.graph_module, spec["decoy_inputs"])
            decoys[int(spec["decoy_key"])] = source
        chain.fund_once(spec["name"], session.initial_balance)
        return StaleTraceProposer(spec["name"], DEVICE_FLEET[0], source,
                                  hash_cache=service.hash_cache)
    # honest / adversarial specs are the fleet's own vocabulary.
    return default_actors.build_proposer(service, model_name, spec, thresholds)


def build_challenger(service: Any, model_name: str, spec: Dict[str, Any]):
    """Build one simulator challenger override from its wire spec."""
    if spec["type"] != "sim_challenger":
        return default_actors.build_challenger(service, model_name, spec)
    session = service.model(model_name).session
    session.coordinator.chain.fund_once(spec["name"], session.initial_balance)
    return SimChallenger(spec["name"], session.devices[-1], session.thresholds,
                         hash_cache=service.hash_cache,
                         selection_delay_s=float(spec["selection_delay_s"]),
                         committee_envelope=session.committee_envelope)


def build_committee_factory(majority: int) -> Callable:
    """A committee whose first ``majority`` seats are bought; the rest stay
    honest."""

    def factory(i, device, _majority=int(majority)):
        if i < _majority:
            return ColludingCommitteeMember(f"colluder-{i}", device)
        return CommitteeMember(f"committee-{i}", device)

    return factory
