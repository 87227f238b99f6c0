"""Tenant placement: one controller decides where every tenant lives.

TAO settles every verdict on one shared chain whichever shard served the
request, so *where* a tenant lives is pure policy, and :class:`Placement`
owns all of it for the thread cluster and the process fleet alike: the
consistent-hash ring and the register prelude that homes a tenant on it,
the tenant records, shard-id reservation, drained and dead membership, and
the move plans.  Every plan validates first (the last-live guard included),
then updates membership and returns ``(tenant, target)`` moves in tenant
name order.  The tiers only execute moves; :class:`PlacedCore` gives both
the one membership verb set on top of the controller.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.calibration.calibrator import CalibrationConfig, Calibrator
from repro.calibration.thresholds import ThresholdTable
from repro.cluster.ring import ConsistentHashRing
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import commit_model
from repro.protocol.service import ServiceCore
from repro.tensorlib.device import DeviceProfile


class PlacementError(RuntimeError):
    """Invalid membership or placement operation (base of each tier's error)."""


@dataclass
class TenantRecord:
    """Placement record for one tenant."""

    name: str
    #: Routing key: the model commitment digest (weights+graph+thresholds).
    key: bytes
    #: Shard currently serving the tenant (follows failover/rebalance).
    shard_id: str
    #: Shard the ring originally homed the tenant on.
    home_id: str
    failovers: int = 0


#: One planned move: the tenant, and the shard it moves to.
Move = Tuple[TenantRecord, str]


class Placement:
    """Ring, tenant records, membership state and move plans for one tier.

    Errors are raised as ``error``, the tier's own :class:`PlacementError`
    subclass.
    """

    def __init__(self, devices: Sequence[DeviceProfile], alpha: float,
                 hash_cache: HashCache,
                 error: Type[PlacementError] = PlacementError) -> None:
        self.devices = tuple(devices)
        self.alpha = float(alpha)
        self.hash_cache = hash_cache
        self.error = error
        self.ring = ConsistentHashRing()
        self.tenants: Dict[str, TenantRecord] = {}
        #: Members in join order, drained and dead ones included.
        self.shards: List[str] = []
        #: Removed shards; like dead ones, their ids are never reissued
        #: (their tags live on the shared settlement log).
        self.retired: List[str] = []
        self.drained: Set[str] = set()
        self.dead: Set[str] = set()
        self.failovers = 0
        self.redispatched_requests = 0

    # -- tenants ---------------------------------------------------------

    def prepare(
        self,
        graph_module: GraphModule,
        calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
        threshold_table: Optional[ThresholdTable] = None,
        committee_envelope=None,
    ) -> Tuple[ThresholdTable, bytes, str]:
        """The register prelude: ``(threshold table, routing key, home)``.

        The routing key *is* the commitment digest (memoized through the
        shared hash cache, so the home shard's session setup reuses it), and
        the committee envelope is part of what was committed.
        """
        name = graph_module.name
        if name in self.tenants:
            raise self.error(f"model {name!r} is already registered")
        if threshold_table is None:
            if calibration_inputs is None:
                raise ValueError(
                    "register_model requires calibration inputs or a threshold table"
                )
            calibrator = Calibrator(CalibrationConfig(devices=self.devices))
            calibration = calibrator.calibrate(graph_module, calibration_inputs)
            threshold_table = ThresholdTable.from_calibration(calibration,
                                                              alpha=self.alpha)
        commitment = commit_model(
            graph_module, threshold_table,
            metadata={"alpha": self.alpha,
                      "num_operators": graph_module.num_operators},
            cache=self.hash_cache,
            committee_envelope=committee_envelope,
        )
        key = commitment.digest()
        return threshold_table, key, self.ring.node_for(key)

    def admit(self, record: TenantRecord) -> TenantRecord:
        """Record a tenant its tier registered on ``record.shard_id``."""
        self.tenants[record.name] = record
        return record

    def record(self, name: str) -> TenantRecord:
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(f"model {name!r} is not registered") from None

    def tenants_on(self, shard_id: str) -> List[TenantRecord]:
        return [record for _, record in sorted(self.tenants.items())
                if record.shard_id == shard_id]

    # -- membership ------------------------------------------------------

    @property
    def live_shards(self) -> List[str]:
        """Members accepting traffic (neither drained nor dead), id order."""
        return sorted(set(self.shards) - self.drained - self.dead)

    @property
    def drained_shards(self) -> List[str]:
        """Drained members that are alive: the undrain candidates."""
        return sorted(self.drained - self.dead)

    def reserve(self, shard_id: Optional[str] = None) -> str:
        """Allocate a fresh shard id, or validate a requested one."""
        taken = set(self.shards) | set(self.retired)
        if shard_id is None:
            index = len(taken)
            while f"shard-{index}" in taken:
                index += 1
            return f"shard-{index}"
        if shard_id in taken:
            raise self.error(f"shard {shard_id!r} already exists")
        return shard_id

    def join(self, shard_id: str) -> List[Move]:
        """Put a started shard on the ring: moves onto the arcs it won."""
        self.shards.append(shard_id)
        self.ring.add_node(shard_id)
        return self._rebalance()

    def remove(self, shard_id: str) -> List[Move]:
        """Retire a shard: its tenants move to their new ring owners."""
        self._member(shard_id)
        self._guard_last_live(shard_id, "remove")
        self.shards.remove(shard_id)
        self.drained.discard(shard_id)
        self.retired.append(shard_id)
        self.ring.remove_node(shard_id)
        return [(record, self.ring.node_for(record.key))
                for record in self.tenants_on(shard_id)]

    def drain(self, shard_id: str) -> List[Move]:
        """Administrative drain: each tenant fails over to its successor."""
        self._member(shard_id, "drained")
        if shard_id not in self.drained:
            self._guard_last_live(shard_id, "drain")
            self.drained.add(shard_id)
            self.ring.drain(shard_id)
        return self.evacuate(shard_id)

    def undrain(self, shard_id: str) -> List[Move]:
        """Return a drained shard to service: ring placement is restored."""
        self._member(shard_id, "undrained")
        if shard_id not in self.drained:
            raise self.error(f"shard {shard_id!r} is not drained")
        self.drained.discard(shard_id)
        self.ring.undrain(shard_id)
        return self._rebalance()

    def mark_dead(self, shard_id: str) -> None:
        """A member's worker died: route around it until it is revived."""
        self.dead.add(shard_id)
        self.ring.drain(shard_id)

    def revive(self, shard_id: str) -> None:
        """A dead member restarted in place; an administrative drain stays."""
        self.dead.discard(shard_id)
        if shard_id not in self.drained:
            self.ring.undrain(shard_id)

    def evacuate(self, shard_id: str) -> List[Move]:
        """Fail every tenant of ``shard_id`` over to its ring successor."""
        return [self.fail_over(record.name)
                for record in self.tenants_on(shard_id)]

    def fail_over(self, name: str) -> Move:
        """Move one tenant to its ring successor (the next-node rule)."""
        record = self.record(name)
        target = self.ring.successor(record.key, exclude={record.shard_id})
        record.failovers += 1
        self.failovers += 1
        return record, target

    def _rebalance(self) -> List[Move]:
        """Moves aligning every tenant with its ring owner."""
        moves = [(record, self.ring.node_for(record.key))
                 for _, record in sorted(self.tenants.items())]
        return [(record, target) for record, target in moves
                if target != record.shard_id]

    def _member(self, shard_id: str, verb: Optional[str] = None) -> None:
        """Refuse unknown shards, and dead ones for ``verb`` if given."""
        if shard_id not in self.shards:
            raise self.error(f"unknown shard {shard_id!r}")
        if verb is not None and shard_id in self.dead:
            raise self.error(f"shard {shard_id!r} is dead; it cannot be {verb}")

    def _guard_last_live(self, shard_id: str, verb: str) -> None:
        if self.live_shards == [shard_id]:
            raise self.error(
                f"cannot {verb} the last live shard {shard_id!r}: its tenants "
                "would have no failover target")


class PlacedCore(ServiceCore):
    """A sharded front end whose placement a :class:`Placement` decides.

    Subclasses start shards and execute moves; the membership verbs and the
    placement reads are shared.
    """

    placement: Placement

    @abc.abstractmethod
    def _start_shard(self, shard_id: str) -> None:
        """Bring up shard ``shard_id`` (before it joins the ring)."""

    @abc.abstractmethod
    def _move(self, record: TenantRecord, target_id: str) -> None:
        """Move one tenant and its queued requests to ``target_id``."""

    def _execute(self, moves: List[Move]) -> None:
        for record, target_id in moves:
            self._move(record, target_id)

    def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Add a shard and migrate exactly the tenants its ring arcs won."""
        shard_id = self.placement.reserve(shard_id)
        self._start_shard(shard_id)
        self._execute(self.placement.join(shard_id))
        return shard_id

    def drain_shard(self, shard_id: str) -> None:
        """Fail a shard's tenants over, re-dispatching their queued requests;
        refused, before any state changes, for the last live shard."""
        self._execute(self.placement.drain(shard_id))

    def undrain_shard(self, shard_id: str) -> None:
        """Return a drained shard to service; ring placement is restored."""
        self._execute(self.placement.undrain(shard_id))

    @property
    def active_shard_count(self) -> int:
        """Shards currently accepting traffic (neither drained nor dead)."""
        return len(self.placement.live_shards)

    @property
    def model_names(self) -> List[str]:
        return sorted(self.placement.tenants)

    def location(self, name: str) -> str:
        """Shard currently serving ``name``."""
        return self.placement.record(name).shard_id

    @property
    def failovers(self) -> int:
        return self.placement.failovers

    @property
    def redispatched_requests(self) -> int:
        return self.placement.redispatched_requests
