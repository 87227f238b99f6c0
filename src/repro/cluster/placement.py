"""Tenant placement and the one sharded front end.

TAO settles every verdict on one shared chain whichever shard served the
request, so *where* a tenant lives is pure policy, and :class:`Placement`
owns all of it for the in-process cluster and the process fleet alike: the
consistent-hash ring (a tenant is homed at ``ring.node_for`` of the
commitment digest its front end's Phase 0 produced), the tenant records,
shard-id reservation, drained and dead membership, and the move plans.
Every plan validates first (the last-live guard included), then updates
membership and returns ``(tenant, target)`` moves in tenant name order.

:class:`PlacedCore` is the front end both sharded tiers are: beside the
request records, their clock, a registration's one Phase 0 and the funding
of a tenant's standing accounts, which every :class:`ServiceCore` owns, the
admission to a tenant's shard and the queue reads, drains and their
ordering, move execution with re-dispatch, the slash quarantine, the
membership verbs and the one ``stats()``.  A tier contributes only its
shard backend — in process, or a worker process behind RPC — and its
hosting of a committed tenant (``host_model``).
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Type

from repro.cluster.ring import ConsistentHashRing
from repro.merkle.cache import HashCache
from repro.protocol.chain import SimulatedChain
from repro.protocol.service import ServiceCore, ServiceRequest, ServiceStats
from repro.utils.timing import now


class PlacementError(RuntimeError):
    """Invalid membership or placement operation (base of each tier's error)."""


@dataclass
class TenantRecord:
    """Placement record for one tenant."""

    name: str
    #: Routing key: the model commitment digest (weights+graph+thresholds).
    key: bytes
    #: Shard currently serving the tenant (follows drains and rebalances).
    shard_id: str


#: One planned move: the tenant, and the shard it moves to.
Move = Tuple[TenantRecord, str]


class Placement:
    """Ring, tenant records, membership state and move plans for one tier.

    Errors are raised as ``error``, the tier's own :class:`PlacementError`
    subclass.
    """

    def __init__(self, error: Type[PlacementError] = PlacementError) -> None:
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
        self.dead.discard(shard_id)
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
        self.failovers += 1
        return record, target

    def _rebalance(self) -> List[Move]:
        """Moves aligning every tenant with its ring owner.  A dead shard's
        tenants stay: it restarts in place, and only a removal re-homes
        them."""
        moves = [(record, self.ring.node_for(record.key))
                 for _, record in sorted(self.tenants.items())
                 if record.shard_id not in self.dead]
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
    """The one sharded front end; a shard backend serves each shard.

    The front end owns everything above a shard: placement, the request
    records and their clock (:class:`ServiceCore`), the one pending index
    (per shard, the ids of its queued requests as an ordered set, in
    dispatch order), the queue reads, processed-request ordering, move
    execution with re-dispatch, the slash quarantine, dead-shard restarts
    and the membership verbs.  A request has one id and one record, a
    :class:`~repro.protocol.service.ServiceRequest`: the id ``submit``
    returned, which every shard admits it under, across any number of moves
    and restarts.  A shard holds a request only while it is queued or in
    flight there.  The front end drives every shard through one backend
    vocabulary, in request ids:

    * ``admit(request)`` and ``drain(take) -> [request id]``, which
      processes and fills the front end's records;
    * ``withdraw(name) -> [request id]``, then ``detach(record)`` on the
      source and ``adopt(record, state)`` on the target of a move;
    * ``quarantine(name)``, ``stats()`` (``None`` before a first report),
      ``stop()``, and the ``coordinator`` attribute.

    Every admitted request is returned by exactly one ``process()``: a
    drained result waits in ``_unreported`` until a whole drain completes,
    so a raise (another shard's drain, a restart, the quarantine) leaves it
    for the next ``process()``.

    :class:`~repro.cluster.shard.Shard` implements it in process and
    :class:`~repro.fleet.fleet.WorkerHandle` over a worker's RPC channel.
    Subclasses start shards and host tenants (``host_model``).
    """

    #: Exceptions meaning the shard died under a call (none in process).
    _shard_lost: Tuple[Type[BaseException], ...] = ()
    #: Whether an unbounded drain of several shards runs them concurrently.
    _concurrent_drains = False

    def __init__(self, chain: Optional[SimulatedChain],
                 hash_cache: Optional[HashCache],
                 error: Type[PlacementError], alpha: float,
                 **service_knobs: Any) -> None:
        super().__init__()
        self.chain = chain or SimulatedChain()
        self.alpha = float(alpha)
        self.hash_cache = hash_cache or HashCache()
        #: Constructor knobs of every shard's TAOService.
        self._service_knobs = dict(service_knobs, alpha=self.alpha)
        self.placement = Placement(error=error)
        #: Member shards' backends, drained and dead ones included.
        self.shards: Dict[str, Any] = {}
        #: Removed shards' backends, kept for fleet-wide settlement and
        #: invariant checks.
        self.retired_shards: List[Any] = []
        #: The pending index: per shard, the ids of its queued requests in
        #: dispatch order (an insertion-ordered set).
        self._pending: Dict[str, Dict[int, None]] = {}
        #: Drained requests no ``process()`` has returned yet, by request id.
        self._unreported: Dict[int, ServiceRequest] = {}
        #: Wall-clock seconds measured around the drains.
        self.measured_wall_s = 0.0

    @abc.abstractmethod
    def _start_shard(self, shard_id: str) -> Any:
        """Bring up shard ``shard_id`` (before it joins the ring); returns
        its backend."""

    def _restart_shard(self, shard_id: str) -> None:
        """Restart a dead shard in place, or raise leaving it dead; only
        tiers whose shards can die (``_shard_lost``) override it."""
        raise NotImplementedError

    # -- membership ------------------------------------------------------

    def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Add a shard and migrate exactly the tenants its ring arcs won."""
        shard_id = self.placement.reserve(shard_id)
        self.shards[shard_id] = self._start_shard(shard_id)
        self._pending[shard_id] = {}
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

    def _refuse_duplicate(self, name: str) -> None:
        if name in self.placement.tenants:
            raise self.placement.error(f"model {name!r} is already registered")

    # -- request intake and queue reads ----------------------------------

    def admit(self, request: ServiceRequest) -> None:
        """Dispatch one request to its tenant's shard.  A dead home is
        restarted first; one that dies under the call is restarted and the
        admission retried once."""
        home = self.location(request.model_name)  # fail fast on unknown tenants
        try:
            if home in self.placement.dead:
                self._restart_shard(home)
            self._dispatch(request, home)
        except self._shard_lost:
            self._restart_shard(home)
            self._dispatch(request, home)

    def _dispatch(self, request: ServiceRequest, shard_id: str) -> None:
        self.shards[shard_id].admit(request)
        self._pending[shard_id][request.request_id] = None

    @property
    def pending_count(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def queue_depths(self) -> Dict[str, int]:
        """Pending requests per shard that is not dead."""
        return {shard_id: len(self._pending[shard_id])
                for shard_id in sorted(self.shards)
                if shard_id not in self.placement.dead}

    # -- processing ------------------------------------------------------

    def drain(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain the shards with pending work, in shard-id order (several at
        once where the backend runs them concurrently); ``max_requests``
        caps the drain front-end-wide and runs it sequentially.  Each round
        drains, quarantines, then restarts the dead shards, whose queues the
        next round drains while the cap lasts.  Returns the processed
        requests in submission order."""
        started = now()
        remaining = max_requests
        while True:
            plan = self._plan(remaining)
            if remaining is None and self._concurrent_drains and len(plan) > 1:
                with ThreadPoolExecutor(max_workers=len(plan)) as pool:
                    drained = list(pool.map(self._drain_one, plan))
            else:
                # Bounded drains run sequentially in shard order: determinism
                # beats parallelism for the partial-drain administrative path.
                drained = list(map(self._drain_one, plan))
            self._quarantine_slashed(drained)
            restarted = sorted(self.placement.dead)
            for shard_id in restarted:
                self._restart_shard(shard_id)
            if remaining is not None:
                remaining -= sum(len(results) for _, results in drained)
            if not any(self._pending[shard_id] for shard_id in restarted) or \
                    (remaining is not None and remaining <= 0):
                break
        self.measured_wall_s += now() - started
        processed, self._unreported = self._unreported, {}
        return [processed[request_id] for request_id in sorted(processed)]

    def _plan(self, remaining: Optional[int]) -> List[Tuple[str, Optional[int]]]:
        """``(shard, take)`` for each shard with pending work that is not
        dead, in shard order; a cap is split in that order."""
        plan = []
        for shard_id in sorted(self.shards):
            queued = len(self._pending[shard_id])
            if not queued or shard_id in self.placement.dead:
                continue
            if remaining is None:
                plan.append((shard_id, None))
            elif remaining > 0:
                plan.append((shard_id, min(remaining, queued)))
                remaining -= plan[-1][1]
        return plan

    def _drain_one(self, item: Tuple[str, Optional[int]],
                   ) -> Tuple[str, List[ServiceRequest]]:
        """Drain one shard and buffer its results at once; a shard that dies
        under the drain is only marked dead (by its backend)."""
        shard_id, take = item
        try:
            done = self.shards[shard_id].drain(take)
        except self._shard_lost:
            return shard_id, []
        queued, results = self._pending[shard_id], []
        for request_id in done:
            if request_id in queued:
                del queued[request_id]
                request = self._requests[request_id]
                self._unreported[request_id] = request
                results.append(request)
        return shard_id, results

    # -- moves and the slash quarantine ----------------------------------

    def _execute(self, moves: List[Move]) -> None:
        for record, target_id in moves:
            self._move(record, target_id)

    def _move(self, record: TenantRecord, target_id: str,
              quarantine: bool = False) -> None:
        """Move one tenant to ``target_id`` and re-dispatch its queue there.

        The source withdraws the tenant's queued requests and detaches its
        state; the target adopts it (quarantined first when its standing
        proposer was slashed), and the withdrawn requests are admitted there
        in queue order — the same records, under the same ids.
        """
        source, target = self.shards[record.shard_id], self.shards[target_id]
        if target_id in self.placement.dead:
            raise self.placement.error(
                f"placement target {target_id!r} for {record.name!r} is dead")
        queued = self._pending[record.shard_id]
        withdrawn = source.withdraw(record.name)
        for request_id in withdrawn:
            del queued[request_id]
        target.adopt(record, source.detach(record))
        if quarantine:
            target.quarantine(record.name)
        for request_id in withdrawn:
            self._dispatch(self._requests[request_id], target_id)
            self.placement.redispatched_requests += 1
        record.shard_id = target_id

    def _quarantine_slashed(
            self, drained: List[Tuple[str, List[ServiceRequest]]]) -> None:
        """A tenant whose standing proposer was slashed fails over with its
        state quarantined on the way (in place when no other shard is live):
        a poisoned result cache cannot survive, and the proposer is
        re-provisioned on the same account and device."""
        slashed = set()
        for shard_id, results in drained:
            for view in results:
                report = view.report
                if report is None or report.dispute is None or \
                        not report.dispute.proposer_cheated:
                    continue
                record = self.placement.tenants.get(view.model_name)
                # The standing proposer's name, as TAOService.host_model
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
        """The shards' summed counters plus the front end's own accounting.

        ``requests_submitted`` counts front-end submits: a re-dispatched
        request is one request, however many shards saw it.  ``latency``
        is the front end's digest.
        """
        records = {shard.shard_id: shard.stats() for shard in self._every_shard()}
        stats = ServiceStats.merged({shard_id: record
                                     for shard_id, record in records.items()
                                     if record is not None})
        stats.requests_submitted = len(self._requests)
        stats.latency = self.latency
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
