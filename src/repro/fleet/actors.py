"""Default actor factory: rebuild role objects from wire specs in a worker.

Role objects (proposers, challengers, committee members) hold devices,
caches and sometimes closures — none of which cross the fleet's serialized
transport.  A request instead ships a small *spec* map (``{"type": ...}``)
and the worker rebuilds the actor against its own session via this module.
The fleet's hello message names the actor module as a dotted path, so a
caller with richer actor families (the protocol simulator) points workers at
its own module (:mod:`repro.sim.actors`) without the fleet knowing those
families exist.  Every actor module has this module's three builders;
``thresholds`` is the table fault overrides are placed against.

Funding happens here, through the worker's chain proxy, with the same
accounts and amounts the in-process path mints — re-running a schedule
through a fleet must land on the exact same ledger.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.calibration.thresholds import ThresholdTable
from repro.fleet.wire import decode_perturbation
from repro.protocol.roles import HonestProposer
from repro.tensorlib.device import DEVICE_FLEET


def build_proposer(service: Any, model_name: str, spec: Dict[str, Any],
                   thresholds: ThresholdTable):
    """Rebuild one proposer from its wire spec against ``service``'s session
    (this vocabulary places no fault overrides, so ``thresholds`` is unused).
    """
    session = service.model(model_name).session
    kind = spec["type"]
    if kind == "adversarial":
        perturbations = {node: decode_perturbation(value)
                         for node, value in spec["perturbations"].items()}
        return session.make_adversarial_proposer(spec["name"], perturbations)
    if kind == "honest":
        device = DEVICE_FLEET[int(spec.get("device_index", 0)) % len(DEVICE_FLEET)]
        if spec.get("fund", True):
            session.coordinator.chain.fund_once(spec["name"], session.initial_balance)
        return HonestProposer(spec["name"], device, hash_cache=service.hash_cache)
    raise ValueError(f"unknown proposer spec type {kind!r}")


def build_challenger(service: Any, model_name: str, spec: Dict[str, Any]):
    """Rebuild one per-request challenger override from its wire spec."""
    session = service.model(model_name).session
    kind = spec["type"]
    if kind == "standing":
        device_index = spec.get("device_index")
        device = None if device_index is None else \
            DEVICE_FLEET[int(device_index) % len(DEVICE_FLEET)]
        return session.make_challenger(spec["name"], device,
                                       fund=spec.get("fund", True))
    raise ValueError(f"unknown challenger spec type {kind!r}")


def build_committee_factory(majority: int) -> Callable:
    raise ValueError(
        "the default fleet actor module has no committee factory; scenarios "
        "with colluding committees must point the fleet at an actor module "
        "that provides one (e.g. repro.sim.actors)")
