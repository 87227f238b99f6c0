"""Sharded TAO cluster: consistent-hash routing, concurrent shard workers,
failover re-dispatch.

:class:`TAOCluster` fronts N independent
:class:`~repro.protocol.service.TAOService` shards that settle on one shared
:class:`~repro.protocol.chain.SimulatedChain` (each shard behind its own
:class:`~repro.protocol.chain.ShardChainView` clock).  The cluster implements
the same :class:`~repro.protocol.service.ServiceCore` contract as a single
service, and is built so that sharding is **observationally transparent**:
the same request schedule produces byte-identical per-request verdicts and an
exactly equal ledger (per-account balances and minted total) whether it runs
through one ``TAOService``, a 1-shard cluster, or an N-shard cluster with
failover injected — the equivalence pinned by
``tests/test_cluster_equivalence.py``.

**Routing.**  Tenants (not individual requests) are the routing unit: a
model is homed on the shard owning its commitment digest on a
:class:`~repro.cluster.ring.ConsistentHashRing`.  Every request for a model
follows it, so per-model session reuse, engine plans, batch certification
and the content-addressed result cache all stay shard-local and stay hot.
(``routing="random"`` sprays requests across shard-local replicas instead —
the locality baseline the scaling benchmark reports against.)

**Concurrency.**  :meth:`TAOCluster.process` drains all shards with pending
work through a ``ThreadPoolExecutor``, one worker per shard, each worker
holding its shard's lock.  Shards share only lock-protected state (the
settlement ledger, the hash cache); protocol time is per-shard, so one
shard's finalization sweep can never lapse a sibling's challenge windows.

**Failover.**  When a shard is administratively drained, or a tenant's
standing proposer is slashed mid-window, the tenant fails over to the ring's
next-node: queued requests are withdrawn and re-dispatched to the fallback
shard, and the tenant entry migrates whole (session, roles, clone
accounting) so not a single ledger unit is minted or lost by the move.  On a
proposer slash the tenant's result cache is invalidated — a poisoned verdict
memoized from the slashed proposer cannot survive the migration — and the
standing proposer is re-provisioned on the same account and device.
Ring resize (:meth:`add_shard` / :meth:`remove_shard`) migrates exactly the
tenants whose ring arcs moved, deterministically.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.calibrator import CalibrationConfig, Calibrator
from repro.calibration.thresholds import ThresholdTable
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.shard import Shard
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import commit_model
from repro.protocol.chain import ShardChainView, SimulatedChain
from repro.protocol.coordinator import Coordinator
from repro.protocol.lifecycle import TAOSession
from repro.protocol.roles import Challenger, HonestProposer, Proposer
from repro.protocol.service import (
    ModelEntry,
    ServiceCore,
    ServiceRequest,
    ServiceStats,
    TAOService,
)
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.rng import seeded_rng
from repro.utils.timing import now


@dataclass
class ClusterModel:
    """Cluster-level placement record for one tenant."""

    name: str
    #: Routing key: the model commitment digest (weights+graph+thresholds).
    key: bytes
    #: Shard currently serving the tenant (follows failover/rebalance).
    shard_id: str
    #: Shard the ring originally homed the tenant on.
    home_id: str
    failovers: int = 0


@dataclass
class ClusterRequest:
    """Cluster-level record tracking one request across (re-)dispatches."""

    cluster_id: int
    model_name: str
    service: TAOService
    local_id: int
    shard_id: str
    redispatched: int = 0

    def resolve(self) -> ServiceRequest:
        return self.service.request(self.local_id)


@dataclass
class ClusterStats(ServiceStats):
    """Fleet-wide statistics: aggregated shard stats + cluster accounting.

    ``processing_time_s`` (inherited) is the *sum* of shard busy time — the
    sequential-equivalent cost.  ``critical_path_s`` is the max over shards:
    the wall-clock a deployment with one worker core per shard observes, and
    the scaling metric the cluster benchmark gates on.  ``measured_wall_s``
    is the wall-clock actually measured on this host's thread pool.
    """

    num_shards: int = 0
    failovers: int = 0
    redispatched_requests: int = 0
    critical_path_s: float = 0.0
    measured_wall_s: float = 0.0
    shard_busy_s: Dict[str, float] = field(default_factory=dict)
    shard_processed: Dict[str, int] = field(default_factory=dict)

    @property
    def parallel_throughput_rps(self) -> float:
        if self.critical_path_s <= 0:
            return 0.0
        return self.requests_completed / self.critical_path_s

    @property
    def measured_throughput_rps(self) -> float:
        if self.measured_wall_s <= 0:
            return 0.0
        return self.requests_completed / self.measured_wall_s

    def as_dict(self) -> Dict[str, object]:
        out = super().as_dict()
        out.update({
            "num_shards": self.num_shards,
            "failovers": self.failovers,
            "redispatched_requests": self.redispatched_requests,
            "critical_path_s": self.critical_path_s,
            "measured_wall_s": self.measured_wall_s,
            "parallel_throughput_rps": self.parallel_throughput_rps,
            "measured_throughput_rps": self.measured_throughput_rps,
            "shard_busy_s": dict(self.shard_busy_s),
            "shard_processed": dict(self.shard_processed),
        })
        return out


class ClusterError(RuntimeError):
    """Raised on invalid cluster operations."""


class TAOCluster(ServiceCore):
    """N TAOService shards behind consistent-hash routing with failover."""

    def __init__(
        self,
        num_shards: int = 4,
        chain: Optional[SimulatedChain] = None,
        devices: Sequence[DeviceProfile] = DEVICE_FLEET,
        max_batch: int = 32,
        enable_batching: bool = True,
        enable_result_cache: bool = True,
        result_cache_size: int = 256,
        alpha: float = 3.0,
        n_way: int = 2,
        committee_size: int = 3,
        leaf_path: str = "routed",
        hash_cache: Optional[HashCache] = None,
        routing: str = "hash",
        routing_seed: int = 0,
        vnodes: int = 64,
        max_workers: Optional[int] = None,
        coordinator_factory: Optional[Callable[[ShardChainView], Coordinator]] = None,
        cycle_capacity: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if routing not in ("hash", "random"):
            raise ValueError(f"unknown routing policy {routing!r}")
        self.chain = chain or SimulatedChain()
        self.devices = tuple(devices)
        self.max_batch = int(max_batch)
        self.enable_batching = bool(enable_batching)
        self.enable_result_cache = bool(enable_result_cache)
        self.result_cache_size = int(result_cache_size)
        self.alpha = float(alpha)
        self.n_way = int(n_way)
        self.committee_size = int(committee_size)
        self.leaf_path = leaf_path
        self.hash_cache = hash_cache or HashCache()
        self.routing = routing
        self.max_workers = max_workers
        self.coordinator_factory = coordinator_factory
        self.cycle_capacity = None if cycle_capacity is None else int(cycle_capacity)
        self._route_rng = seeded_rng(routing_seed)

        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.shards: Dict[str, Shard] = {}
        #: Removed shards, kept for fleet-wide settlement and invariants.
        self.retired_shards: List[Shard] = []
        self._models: Dict[str, ClusterModel] = {}
        self._requests: Dict[int, ClusterRequest] = {}
        #: (id(service), local request id) -> cluster request id.
        self._by_local: Dict[Tuple[int, int], int] = {}
        self.failovers = 0
        self.redispatched_requests = 0
        self.measured_wall_s = 0.0
        #: Persistent drain pool, created lazily on the first multi-shard
        #: drain and shut down by :meth:`close` — repeated ``process()``
        #: calls reuse the same threads instead of spawning a pool per call.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_workers = 0

        for index in range(num_shards):
            self.add_shard(f"shard-{index}")

    # ------------------------------------------------------------------
    # Shard membership and ring resize
    # ------------------------------------------------------------------

    def add_shard(self, shard_id: Optional[str] = None) -> Shard:
        """Add a shard and migrate exactly the tenants its ring arcs won."""
        if shard_id is None:
            shard_id = f"shard-{len(self.shards) + len(self.retired_shards)}"
        if shard_id in self.shards or \
                any(s.shard_id == shard_id for s in self.retired_shards):
            # Retired ids stay reserved: reusing one would alias the shard
            # tag on the shared log and double-count the retired
            # coordinator's per-dispute gas.
            raise ClusterError(f"shard {shard_id!r} already exists")
        view = ShardChainView(self.chain, shard_id)
        coordinator = (self.coordinator_factory(view) if self.coordinator_factory
                       else Coordinator(chain=view))
        service = TAOService(
            coordinator=coordinator,
            devices=self.devices,
            max_batch=self.max_batch,
            enable_batching=self.enable_batching,
            enable_result_cache=self.enable_result_cache,
            result_cache_size=self.result_cache_size,
            alpha=self.alpha,
            n_way=self.n_way,
            committee_size=self.committee_size,
            leaf_path=self.leaf_path,
            hash_cache=self.hash_cache,
            cycle_capacity=self.cycle_capacity,
        )
        shard = Shard(shard_id=shard_id, service=service, chain_view=view)
        self.shards[shard_id] = shard
        self.ring.add_node(shard_id)
        self._rebalance()
        return shard

    def remove_shard(self, shard_id: str) -> None:
        """Remove a shard: its tenants migrate to their new ring owners.

        The shard's coordinator (and every task/dispute it resolved) is
        retired, not discarded — fleet-wide settlement and invariant checks
        keep seeing its history on the shared chain.
        """
        shard = self._shard(shard_id)
        if len(self.shards) == 1:
            raise ClusterError("cannot remove the last shard")
        self.ring.remove_node(shard_id)
        for record in self._records_on(shard_id):
            self._migrate(record, self.ring.node_for(record.key),
                          invalidate_cache=False)
        del self.shards[shard_id]
        self.retired_shards.append(shard)

    def drain_shard(self, shard_id: str) -> None:
        """Administratively drain a shard: fail its tenants over, re-dispatch
        every queued request to each tenant's ring successor."""
        shard = self._shard(shard_id)
        if self.routing != "hash":
            raise ClusterError("failover requires hash routing")
        if not shard.drained and len(self.ring.live_nodes) <= 1:
            raise ClusterError(
                "cannot drain the last live shard: its tenants would have "
                "no failover target"
            )
        self.ring.drain(shard_id)
        shard.drained = True
        for record in self._records_on(shard_id):
            self.fail_over(record.name, reason="drain")

    def undrain_shard(self, shard_id: str) -> None:
        """Return a drained shard to service; ring placement is restored."""
        shard = self._shard(shard_id)
        self.ring.undrain(shard_id)
        shard.drained = False
        self._rebalance()

    def _shard(self, shard_id: str) -> Shard:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ClusterError(f"unknown shard {shard_id!r}") from None

    def _records_on(self, shard_id: str) -> List[ClusterModel]:
        return [record for record in self._models.values()
                if record.shard_id == shard_id]

    def _rebalance(self) -> None:
        """Align every tenant with its ring owner (deterministic migration)."""
        for record in self._models.values():
            target = self.ring.node_for(record.key)
            if target != record.shard_id:
                self._migrate(record, target, invalidate_cache=False)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def register_model(
        self,
        graph_module: GraphModule,
        calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
        threshold_table: Optional[ThresholdTable] = None,
        **session_kwargs,
    ) -> TAOSession:
        """Register one tenant; it is homed by its commitment digest.

        The commitment is built once here (and memoized through the shared
        hash cache, so the home shard's session setup reuses it) because the
        routing key *is* the commitment digest: placement is a pure function
        of what was committed, reproducible across processes and restarts.
        """
        name = graph_module.name
        if name in self._models:
            raise ClusterError(f"model {name!r} is already registered")
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
            # The committee envelope (threaded to the session below) is part
            # of what was committed, so it participates in the routing key —
            # placement stays a pure function of the commitment digest.
            committee_envelope=session_kwargs.get("committee_envelope"),
        )
        key = commitment.digest()
        home = self.ring.node_for(key)
        session = self.shards[home].service.register_model(
            graph_module, threshold_table=threshold_table, **session_kwargs,
        )
        if self.routing == "random":
            # Locality baseline: replicate the tenant on every other shard so
            # random per-request routing has somewhere to land.  Each replica
            # funds its own roles — random routing is a measurement rig, not
            # a ledger-equivalent deployment.
            for shard_id, shard in self.shards.items():
                if shard_id != home:
                    shard.service.register_model(
                        graph_module, threshold_table=threshold_table,
                        **session_kwargs,
                    )
        self._models[name] = ClusterModel(name=name, key=key, shard_id=home,
                                          home_id=home)
        return session

    def model(self, name: str) -> ModelEntry:
        record = self._record(name)
        return self.shards[record.shard_id].service.model(name)

    def _record(self, name: str) -> ClusterModel:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(f"model {name!r} is not registered with this cluster") \
                from None

    @property
    def model_names(self) -> List[str]:
        return sorted(self._models)

    def location(self, name: str) -> str:
        """Shard currently serving ``name``."""
        return self._record(name).shard_id

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    def submit(
        self,
        model_name: str,
        inputs: Mapping[str, np.ndarray],
        proposer: Optional[Proposer] = None,
        force_challenge: bool = False,
        challenger: Optional[Challenger] = None,
    ) -> int:
        record = self._record(model_name)
        if self.routing == "random":
            live = [s for s in sorted(self.shards) if not self.shards[s].drained]
            shard_id = live[int(self._route_rng.integers(0, len(live)))]
        else:
            shard_id = record.shard_id
        shard = self.shards[shard_id]
        local_id = shard.service.submit(
            model_name, inputs, proposer=proposer,
            force_challenge=force_challenge, challenger=challenger,
        )
        cluster_id = len(self._requests)
        request = ClusterRequest(
            cluster_id=cluster_id, model_name=model_name,
            service=shard.service, local_id=local_id, shard_id=shard_id,
        )
        self._requests[cluster_id] = request
        self._by_local[(id(shard.service), local_id)] = cluster_id
        return cluster_id

    def request(self, request_id: int) -> ServiceRequest:
        return self._requests[request_id].resolve()

    def cluster_request(self, request_id: int) -> ClusterRequest:
        return self._requests[request_id]

    @property
    def pending_count(self) -> int:
        return sum(shard.service.pending_count for shard in self.shards.values())

    @property
    def active_shard_count(self) -> int:
        """Shards currently accepting traffic (not drained)."""
        return sum(1 for shard in self.shards.values() if not shard.drained)

    def queue_depths(self) -> Dict[str, int]:
        """Pending requests per shard."""
        return {shard_id: shard.service.pending_count
                for shard_id, shard in self.shards.items()}

    def queue_ages(self, at_s: Optional[float] = None) -> List[float]:
        """Ages (seconds) of every queued request fleet-wide, oldest first."""
        reference = now() if at_s is None else float(at_s)
        ages: List[float] = []
        for shard in self.shards.values():
            ages.extend(shard.service.queue_ages(at_s=reference))
        return sorted(ages, reverse=True)

    def queued_model_names(self) -> List[str]:
        """Distinct tenants with queued work anywhere on the fleet."""
        names: set = set()
        for shard in self.shards.values():
            names.update(shard.service.queued_model_names())
        return sorted(names)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain every shard's queue; shards with work run concurrently.

        With ``max_requests`` the drain degrades to a deterministic
        sequential sweep (shard-id order) so the cap is exact fleet-wide.
        Returns the processed requests in cluster submission order.
        """
        started = now()
        drained: List[Tuple[Shard, List[ServiceRequest]]] = []
        if max_requests is not None:
            remaining = int(max_requests)
            for shard_id in sorted(self.shards):
                if remaining <= 0:
                    break
                shard = self.shards[shard_id]
                if shard.service.pending_count == 0:
                    continue
                processed = self._drain(shard, remaining)
                remaining -= len(processed)
                drained.append((shard, processed))
        else:
            busy = [shard for _, shard in sorted(self.shards.items())
                    if shard.service.pending_count > 0]
            if len(busy) <= 1:
                drained = [(shard, self._drain(shard, None)) for shard in busy]
            else:
                pool = self._drain_pool(self.max_workers or len(busy))
                futures = [(shard, pool.submit(self._drain, shard, None))
                           for shard in busy]
                drained = [(shard, future.result())
                           for shard, future in futures]
        self.measured_wall_s += now() - started

        self._detect_slashed_proposers(drained)

        ordered: List[Tuple[int, ServiceRequest]] = []
        for shard, batch in drained:
            for request in batch:
                cluster_id = self._by_local.get(
                    (id(shard.service), request.request_id), -1)
                ordered.append((cluster_id, request))
        ordered.sort(key=lambda item: item[0])
        return [request for _, request in ordered]

    def _drain_pool(self, workers: int) -> ThreadPoolExecutor:
        """The cluster's persistent drain executor (lazily created).

        Idle drain threads are cheap, but a pool spawned per ``process()``
        call is not free either — under the measured-wall benchmarks the
        per-call spawn showed up at every drain.  The pool is created on the
        first multi-shard drain, grown (recreated) if a ring resize raises
        the shard count past its capacity, and shut down by :meth:`close`.
        """
        if self._executor is not None and self._executor_workers < workers:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="cluster-drain")
            self._executor_workers = workers
        return self._executor

    def close(self) -> None:
        """Shut down the persistent drain executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_workers = 0

    def _drain(self, shard: Shard, max_requests: Optional[int]) -> List[ServiceRequest]:
        with shard.lock:
            # Worker busy time is thread CPU time, not wall: on a host with
            # fewer cores than workers, wall time inside a worker mostly
            # measures the other workers; CPU time is the shard's own demand,
            # and max over shards is the fleet's critical path on a
            # one-core-per-worker deployment.  The service accumulates it
            # stage by stage (``ServiceStats.busy_cpu_s``).
            stats = shard.service.stats_record
            busy_before = stats.busy_cpu_s
            processed = shard.service.process(max_requests)
            shard.busy_s += stats.busy_cpu_s - busy_before
            shard.processed += len(processed)
            return processed

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def fail_over(self, model_name: str, reason: str = "drain") -> str:
        """Move a tenant to its ring successor; re-dispatch queued requests.

        ``reason="proposer_slashed"`` additionally invalidates the tenant's
        content-addressed result cache (its entries memoize verdicts vouched
        by the slashed proposer) and re-provisions the standing proposer on
        the same ledger account and device, so execution — and therefore
        every commitment — is unchanged.
        """
        if self.routing != "hash":
            raise ClusterError("failover requires hash routing")
        record = self._record(model_name)
        target = self.ring.successor(record.key, exclude={record.shard_id})
        self._migrate(record, target,
                      invalidate_cache=(reason == "proposer_slashed"))
        record.failovers += 1
        self.failovers += 1
        return target

    def _migrate(self, record: ClusterModel, target_id: str,
                 invalidate_cache: bool) -> None:
        source = self.shards[record.shard_id]
        target = self.shards[target_id]
        with source.lock:
            withdrawn = source.service.withdraw_queued(record.name)
            entry = source.service.detach_model(record.name)
        if invalidate_cache:
            # Scoped invalidation: only this tenant's memo dies; sibling
            # tenants on either shard keep their hot caches.
            entry.result_cache.clear()
            entry.proposer = HonestProposer(
                entry.proposer.name, entry.proposer.device,
                hash_cache=self.hash_cache,
            )
        with target.lock:
            target.service.adopt_model(entry)
        record.shard_id = target_id
        for request in withdrawn:
            old_key = (id(source.service), request.request_id)
            cluster_id = self._by_local.pop(old_key, None)
            local_id = target.service.submit(
                record.name, request.inputs, proposer=request.proposer,
                force_challenge=request.force_challenge,
                challenger=request.challenger,
            )
            if cluster_id is not None:
                tracked = self._requests[cluster_id]
                tracked.service = target.service
                tracked.local_id = local_id
                tracked.shard_id = target_id
                tracked.redispatched += 1
                self._by_local[(id(target.service), local_id)] = cluster_id
            self.redispatched_requests += 1

    def _detect_slashed_proposers(
            self, drained: List[Tuple[Shard, List[ServiceRequest]]]) -> None:
        """Standing-proposer slash => automatic failover for that tenant."""
        if self.routing != "hash":
            return
        hit: Dict[str, str] = {}
        for shard, batch in drained:
            for request in batch:
                report = request.report
                if report is None or report.dispute is None:
                    continue
                if not report.dispute.proposer_cheated:
                    continue
                record = self._models.get(request.model_name)
                if record is None or record.shard_id != shard.shard_id:
                    continue
                entry = shard.service.model(request.model_name)
                if report.task.proposer == entry.proposer.name:
                    hit[request.model_name] = shard.shard_id
        for model_name in sorted(hit):
            if len(self.ring.live_nodes) > 1:
                self.fail_over(model_name, reason="proposer_slashed")
            else:
                # Nowhere to go: still quarantine the poisoned cache and
                # re-provision the proposer in place.
                entry = self.model(model_name)
                entry.result_cache.clear()
                entry.proposer = HonestProposer(
                    entry.proposer.name, entry.proposer.device,
                    hash_cache=self.hash_cache,
                )

    # ------------------------------------------------------------------
    # Fleet-wide settlement and introspection
    # ------------------------------------------------------------------

    def coordinators(self) -> List[Coordinator]:
        """Every shard coordinator, active and retired."""
        return [shard.service.coordinator
                for shard in list(self.shards.values()) + self.retired_shards]

    def stats(self) -> ClusterStats:
        all_shards = list(self.shards.values()) + self.retired_shards
        base = ServiceStats.aggregate(s.service.stats() for s in all_shards)
        stats = ClusterStats(
            # Cluster-level submission count: a re-dispatched request is one
            # request, however many shards saw it.
            requests_submitted=len(self._requests),
            requests_completed=base.requests_completed,
            cache_hits=base.cache_hits,
            batched_requests=base.batched_requests,
            disputes_opened=base.disputes_opened,
            dispute_rounds=base.dispute_rounds,
            processing_time_s=base.processing_time_s,
            busy_cpu_s=base.busy_cpu_s,
            stage_busy_s=base.stage_busy_s,
            latencies_s=base.latencies_s,
            status_counts=base.status_counts,
            num_shards=len(self.shards),
            failovers=self.failovers,
            redispatched_requests=self.redispatched_requests,
            critical_path_s=max((s.busy_s for s in all_shards), default=0.0),
            measured_wall_s=self.measured_wall_s,
            shard_busy_s={s.shard_id: s.busy_s for s in all_shards},
            shard_processed={s.shard_id: s.processed for s in all_shards},
        )
        return stats
