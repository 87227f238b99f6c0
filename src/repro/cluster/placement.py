"""Tenant placement and the one sharded front end.

TAO settles every verdict on one shared chain whichever shard served the
request, so *where* a tenant lives is pure policy, and :class:`Placement`
owns all of it for the in-process cluster and the process fleet alike: the
consistent-hash ring and the register prelude that homes a tenant on it,
the tenant records, shard-id reservation, drained and dead membership, and
the move plans.  Every plan validates first (the last-live guard included),
then updates membership and returns ``(tenant, target)`` moves in tenant
name order.

:class:`PlacedCore` is the front end both sharded tiers are: request
records, submit and the queue reads, drains and their ordering, move
execution with re-dispatch, the slash quarantine, the membership verbs and
the one ``stats()``.  A tier contributes only its shard backend — in
process, or a worker process behind RPC — and its tenant registration.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Type)

import numpy as np

from repro.calibration.calibrator import CalibrationConfig, Calibrator
from repro.calibration.thresholds import ThresholdTable
from repro.cluster.ring import ConsistentHashRing
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import commit_model
from repro.protocol.chain import SimulatedChain
from repro.protocol.service import ServiceCore, ServiceRequest, ServiceStats
from repro.tensorlib.device import DeviceProfile
from repro.utils.timing import now


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


@dataclass
class PlacedRequest:
    """Front-end record of one submitted request, across re-dispatches.

    ``proposer``/``challenger`` are what the caller passed (role objects in
    process, actor specs across a process boundary), kept so the request can
    be re-dispatched when its tenant moves.  ``view`` is the
    :class:`~repro.protocol.service.ServiceRequest` the serving shard
    resolves; :meth:`PlacedCore.request` returns it.
    """

    request_id: int
    model_name: str
    inputs: Dict[str, np.ndarray]
    proposer: Any
    challenger: Any
    force_challenge: bool
    shard_id: str = ""
    local_id: int = -1
    view: Optional[ServiceRequest] = None
    redispatched: int = 0

    def resolve(self) -> ServiceRequest:
        return self.view


class PlacedCore(ServiceCore):
    """The one sharded front end; a shard backend serves each shard.

    The front end owns everything above a shard: placement, request records
    and the ``(shard, local id)`` map, the queue reads, processed-request
    ordering, move execution with re-dispatch, the slash quarantine and the
    membership verbs.  It drives every shard through one backend vocabulary:

    * ``enqueue(record) -> (local id, view)`` and
      ``drain(max_requests) -> [(local id, view)]``, which processes;
    * ``withdraw(name) -> [local id]``, then ``detach(record)`` on the
      source and ``adopt(record, state)`` on the target of a move;
    * ``quarantine(name)``, ``stats()`` (``None`` before a first report),
      ``stop()``, and the ``alive`` and ``coordinator`` attributes.

    :class:`~repro.cluster.shard.Shard` implements it in process and
    :class:`~repro.fleet.fleet.WorkerHandle` over a worker's RPC channel.
    Subclasses start shards and register tenants.
    """

    #: Exceptions meaning the shard died under a call (none in process).
    _shard_lost: Tuple[Type[BaseException], ...] = ()
    #: Whether an unbounded drain of several shards runs them concurrently.
    _concurrent_drains = False

    def __init__(self, chain: Optional[SimulatedChain],
                 devices: Sequence[DeviceProfile], hash_cache: Optional[HashCache],
                 error: Type[PlacementError], alpha: float,
                 **service_knobs: Any) -> None:
        self.chain = chain or SimulatedChain()
        self.devices = tuple(devices)
        self.alpha = float(alpha)
        self.hash_cache = hash_cache or HashCache()
        #: Constructor knobs of every shard's TAOService.
        self._service_knobs = dict(service_knobs, alpha=self.alpha)
        self.placement = Placement(self.devices, self.alpha, self.hash_cache,
                                   error=error)
        #: Member shards' backends, drained and dead ones included.
        self.shards: Dict[str, Any] = {}
        #: Removed shards' backends, kept for fleet-wide settlement and
        #: invariant checks.
        self.retired_shards: List[Any] = []
        self._requests: Dict[int, PlacedRequest] = {}
        self._by_local: Dict[Tuple[str, int], int] = {}
        #: Queued request ids per shard, in dispatch order.
        self._pending: Dict[str, List[int]] = {}
        #: Wall-clock seconds measured around the drains.
        self.measured_wall_s = 0.0

    @abc.abstractmethod
    def _start_shard(self, shard_id: str) -> Any:
        """Bring up shard ``shard_id`` (before it joins the ring); returns
        its backend."""

    def _lose_shard(self, shard_id: str) -> None:
        """Recover from a shard that died under a call (one of
        ``_shard_lost``); only tiers whose shards can die override it."""
        raise NotImplementedError

    # -- membership ------------------------------------------------------

    def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Add a shard and migrate exactly the tenants its ring arcs won."""
        shard_id = self.placement.reserve(shard_id)
        self.shards[shard_id] = self._start_shard(shard_id)
        self._pending[shard_id] = []
        self._execute(self.placement.join(shard_id))
        return shard_id

    def remove_shard(self, shard_id: str) -> None:
        """Remove a shard: its tenants and their queued requests move to
        their new ring owners, then the shard stops.

        Its coordinator is retired, not discarded: :meth:`coordinators` and
        :meth:`stats` keep seeing its history on the shared chain, and its
        id is never reissued.
        """
        self._execute(self.placement.remove(shard_id))
        shard = self.shards.pop(shard_id)
        shard.stop()
        self.retired_shards.append(shard)

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

    # -- request intake and queue reads ----------------------------------

    def submit(self, model_name: str, inputs: Mapping[str, np.ndarray],
               proposer: Any = None, force_challenge: bool = False,
               challenger: Any = None) -> int:
        """Enqueue one request on its tenant's shard; returns its id."""
        self.placement.record(model_name)  # fail fast on unknown tenants
        request = PlacedRequest(
            request_id=len(self._requests), model_name=model_name,
            inputs=dict(inputs), proposer=proposer, challenger=challenger,
            force_challenge=bool(force_challenge))
        try:
            self._dispatch(request, self.location(model_name))
        except self._shard_lost:
            # The home shard died (or wedged past its deadline) under the
            # call and is already marked dead: recover it or re-home its
            # tenants, then retry once.
            self._lose_shard(self.location(model_name))
            self._dispatch(request, self.location(model_name))
        self._requests[request.request_id] = request
        return request.request_id

    def _dispatch(self, request: PlacedRequest, shard_id: str) -> None:
        request.local_id, request.view = self.shards[shard_id].enqueue(request)
        request.shard_id = shard_id
        self._by_local[(shard_id, request.local_id)] = request.request_id
        self._pending[shard_id].append(request.request_id)

    def request(self, request_id: int) -> ServiceRequest:
        return self._requests[request_id].view

    @property
    def pending_count(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def _queued(self) -> List[PlacedRequest]:
        return [self._requests[request_id]
                for queue in self._pending.values() for request_id in queue]

    def queue_depths(self) -> Dict[str, int]:
        """Pending requests per live shard."""
        return {shard_id: len(self._pending[shard_id])
                for shard_id in sorted(self.shards) if self.shards[shard_id].alive}

    def queue_ages(self, at_s: Optional[float] = None) -> List[float]:
        """Ages (seconds) of every queued request, oldest first."""
        reference = now() if at_s is None else float(at_s)
        return sorted((max(0.0, reference - request.view.submitted_s)
                       for request in self._queued()), reverse=True)

    def queued_model_names(self) -> List[str]:
        """Distinct tenants with queued work (the autoscaler's routing grain)."""
        return sorted({request.model_name for request in self._queued()})

    # -- processing ------------------------------------------------------

    def process(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain the shards with pending work, in shard-id order (several at
        once where the backend runs them concurrently); ``max_requests``
        caps the drain front-end-wide and runs it sequentially.  Returns the
        processed requests in submission order."""
        started = now()
        processed = self._process_round(max_requests)
        self.measured_wall_s += now() - started
        return [view for _, view in sorted(processed, key=lambda item: item[0])]

    def _process_round(self, max_requests: Optional[int],
                       ) -> List[Tuple[int, ServiceRequest]]:
        busy = [shard_id for shard_id in sorted(self.shards)
                if self.shards[shard_id].alive and self._pending[shard_id]]
        drained: List[Tuple[str, List[Tuple[int, ServiceRequest]]]] = []
        died: List[str] = []
        if max_requests is None and self._concurrent_drains and len(busy) > 1:
            with ThreadPoolExecutor(max_workers=len(busy)) as pool:
                outcomes = list(pool.map(self._drain_one, busy, [None] * len(busy)))
            for shard_id, done in zip(busy, outcomes):
                if done is None:
                    died.append(shard_id)
                else:
                    drained.append((shard_id, self._collect(shard_id, done)))
        else:
            # Bounded drains run sequentially in shard order: determinism
            # beats parallelism for the partial-drain administrative path.
            remaining = max_requests
            for shard_id in busy:
                if remaining is not None and remaining <= 0:
                    break
                take = None if remaining is None else \
                    min(remaining, len(self._pending[shard_id]))
                done = self._drain_one(shard_id, take)
                if done is None:
                    died.append(shard_id)
                    continue
                results = self._collect(shard_id, done)
                if remaining is not None:
                    remaining -= len(results)
                drained.append((shard_id, results))

        self._quarantine_slashed(drained)
        for shard_id in died:
            self._lose_shard(shard_id)
        processed = [item for _, results in drained for item in results]
        if died and self.pending_count:
            # Failover queued re-dispatched requests on ring successors;
            # recovery left them queued on the restarted shard.  Either way,
            # finish the drain so every admitted request comes back terminal.
            processed.extend(self._process_round(max_requests))
        return processed

    def _drain_one(self, shard_id: str, max_requests: Optional[int]):
        try:
            return self.shards[shard_id].drain(max_requests)
        except self._shard_lost:
            return None

    def _collect(self, shard_id: str, done: List[Tuple[int, ServiceRequest]],
                 ) -> List[Tuple[int, ServiceRequest]]:
        """``(request id, view)`` of one shard's processed requests."""
        results = []
        for local_id, view in done:
            request_id = self._by_local.get((shard_id, local_id))
            if request_id is not None:
                self._pending[shard_id].remove(request_id)
                results.append((request_id, view))
        return results

    # -- moves and the slash quarantine ----------------------------------

    def _execute(self, moves: List[Move]) -> None:
        for record, target_id in moves:
            self._move(record, target_id)

    def _move(self, record: TenantRecord, target_id: str,
              quarantine: bool = False) -> None:
        """Move one tenant to ``target_id`` and re-dispatch its queue there.

        The source withdraws the tenant's queued requests and detaches its
        state; the target adopts it (quarantined first when its standing
        proposer was slashed), and the withdrawn requests are re-submitted
        in queue order — each still one front-end request.
        """
        source, target = self.shards[record.shard_id], self.shards[target_id]
        if not target.alive:
            raise self.placement.error(
                f"placement target {target_id!r} for {record.name!r} is dead")
        withdrawn = [self._by_local.pop((record.shard_id, local_id))
                     for local_id in source.withdraw(record.name)]
        target.adopt(record, source.detach(record))
        if quarantine:
            target.quarantine(record.name)
        for request_id in withdrawn:
            request = self._requests[request_id]
            self._pending[record.shard_id].remove(request_id)
            self._dispatch(request, target_id)
            request.redispatched += 1
            self.placement.redispatched_requests += 1
        record.shard_id = target_id

    def _quarantine_slashed(
            self, drained: List[Tuple[str, List[Tuple[int, ServiceRequest]]]],
    ) -> None:
        """A tenant whose standing proposer was slashed fails over with its
        state quarantined on the way (in place when no other shard is live):
        a poisoned result cache cannot survive, and the proposer is
        re-provisioned on the same account and device."""
        slashed = set()
        for shard_id, results in drained:
            for _, view in results:
                report = view.report
                if report is None or report.dispute is None or \
                        not report.dispute.proposer_cheated:
                    continue
                record = self.placement.tenants.get(view.model_name)
                # The standing proposer's name, as TAOService.register_model
                # provisions it (a quarantine keeps it).
                if record is not None and record.shard_id == shard_id and \
                        report.task.proposer == f"{view.model_name}-proposer":
                    slashed.add(view.model_name)
        for name in sorted(slashed):
            if len(self.placement.live_shards) > 1:
                self._move(*self.placement.fail_over(name), quarantine=True)
            else:
                self.shards[self.location(name)].quarantine(name)

    # -- settlement reads and shutdown -----------------------------------

    def _every_shard(self) -> List[Any]:
        return list(self.shards.values()) + self.retired_shards

    def coordinators(self) -> List[Any]:
        """Every shard's coordinator (or its mirror), retired ones included."""
        return [shard.coordinator for shard in self._every_shard()]

    def stats(self) -> ServiceStats:
        """The shards' merged record plus the front end's own accounting.

        ``requests_submitted`` counts front-end submits: a re-dispatched
        request is one request, however many shards saw it.
        """
        records = {shard.shard_id: shard.stats() for shard in self._every_shard()}
        stats = ServiceStats.merged({shard_id: record
                                     for shard_id, record in records.items()
                                     if record is not None})
        stats.requests_submitted = len(self._requests)
        stats.shards = len(set(self.placement.shards) - self.placement.dead)
        stats.failovers = self.failovers
        stats.redispatched_requests = self.redispatched_requests
        stats.measured_wall_s = self.measured_wall_s
        return stats

    @property
    def failovers(self) -> int:
        return self.placement.failovers

    @property
    def redispatched_requests(self) -> int:
        return self.placement.redispatched_requests

    def close(self) -> None:
        """Stop every shard."""
        for shard_id in sorted(self.shards):
            self.shards[shard_id].stop()
