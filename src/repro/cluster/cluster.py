"""Sharded TAO cluster: consistent-hash routing, in-process shards,
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

**Placement.**  Tenants (not individual requests) are the routing unit,
homed by commitment digest on the consistent-hash ring of the
:class:`~repro.cluster.placement.Placement` controller the process fleet
shares, so per-model sessions, engine plans, batch certification and the
result cache stay shard-local and hot.  (``routing="random"`` sprays
requests across shard-local replicas instead — the locality baseline the
scaling benchmark reports against.)  :meth:`TAOCluster.process` drains the
busy shards on the calling thread in shard-id order; protocol time is
per-shard, so one shard's finalization sweep never lapses a sibling's
challenge windows.

**Failover.**  The cluster executes the controller's moves in process:
queued requests are withdrawn and re-dispatched to the target shard, and the
tenant entry migrates whole (session, roles, clone accounting), so not a
single ledger unit is minted or lost.  A tenant whose standing proposer is
slashed mid-window fails over too, with its result cache invalidated (a
poisoned memo cannot survive the move) and its proposer re-provisioned on
the same account and device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.thresholds import ThresholdTable
from repro.cluster.placement import (
    PlacedCore,
    Placement,
    PlacementError,
    TenantRecord,
)
from repro.cluster.shard import Shard
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.protocol.chain import ShardChainView, SimulatedChain
from repro.protocol.coordinator import Coordinator
from repro.protocol.lifecycle import TAOSession
from repro.protocol.roles import Challenger, HonestProposer, Proposer
from repro.protocol.service import (
    ModelEntry,
    ServiceRequest,
    ServiceStats,
    TAOService,
)
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.rng import seeded_rng
from repro.utils.timing import now


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
    the scaling metric the cluster benchmark reports.  ``measured_wall_s``
    is the wall clock measured around the shard drains.
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


class ClusterError(PlacementError):
    """Raised on invalid cluster operations."""


class TAOCluster(PlacedCore):
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
        cycle_capacity: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if routing not in ("hash", "random"):
            raise ValueError(f"unknown routing policy {routing!r}")
        self.chain = chain or SimulatedChain()
        self.devices = tuple(devices)
        self.alpha = float(alpha)
        self.hash_cache = hash_cache or HashCache()
        self.routing = routing
        self._service_knobs = {
            "max_batch": int(max_batch),
            "enable_batching": bool(enable_batching),
            "enable_result_cache": bool(enable_result_cache),
            "result_cache_size": int(result_cache_size),
            "alpha": self.alpha,
            "n_way": int(n_way),
            "committee_size": int(committee_size),
            "leaf_path": leaf_path,
            "cycle_capacity": None if cycle_capacity is None else int(cycle_capacity),
        }
        self._route_rng = seeded_rng(0)

        self.placement = Placement(self.devices, self.alpha, self.hash_cache,
                                   error=ClusterError)
        self.shards: Dict[str, Shard] = {}
        #: Removed shards, kept for fleet-wide settlement and invariants.
        self.retired_shards: List[Shard] = []
        self._requests: Dict[int, ClusterRequest] = {}
        #: (id(service), local request id) -> cluster request id.
        self._by_local: Dict[Tuple[int, int], int] = {}
        self.measured_wall_s = 0.0

        for index in range(num_shards):
            self.add_shard(f"shard-{index}")

    # ------------------------------------------------------------------
    # Shard membership and ring resize
    # ------------------------------------------------------------------

    def _start_shard(self, shard_id: str) -> None:
        service = TAOService(
            coordinator=Coordinator(chain=ShardChainView(self.chain, shard_id)),
            devices=self.devices, hash_cache=self.hash_cache,
            **self._service_knobs,
        )
        self.shards[shard_id] = Shard(shard_id=shard_id, service=service)

    def remove_shard(self, shard_id: str) -> None:
        """Remove a shard: its tenants migrate to their new ring owners.

        The shard's coordinator (and every task/dispute it resolved) is
        retired, not discarded — fleet-wide settlement and invariant checks
        keep seeing its history on the shared chain.
        """
        self._execute(self.placement.remove(shard_id))
        self.retired_shards.append(self.shards.pop(shard_id))

    def drain_shard(self, shard_id: str) -> None:
        if self.routing != "hash":
            raise ClusterError("failover requires hash routing")
        super().drain_shard(shard_id)

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
        """Register one tenant; it is homed by its commitment digest."""
        threshold_table, key, home = self.placement.prepare(
            graph_module, calibration_inputs, threshold_table,
            committee_envelope=session_kwargs.get("committee_envelope"),
        )
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
        self.placement.admit(TenantRecord(name=graph_module.name, key=key,
                                          shard_id=home, home_id=home))
        return session

    def model(self, name: str) -> ModelEntry:
        return self.shards[self.location(name)].service.model(name)

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
        if self.routing == "random":
            live = self.placement.live_shards
            shard_id = live[int(self._route_rng.integers(0, len(live)))]
        else:
            shard_id = self.location(model_name)
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

    @property
    def pending_count(self) -> int:
        return sum(shard.service.pending_count for shard in self.shards.values())

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
        """Drain the shards with pending work, in shard-id order.

        ``max_requests`` caps the drain fleet-wide.  Returns the processed
        requests in cluster submission order.
        """
        started = now()
        drained: List[Tuple[Shard, List[ServiceRequest]]] = []
        remaining = None if max_requests is None else int(max_requests)
        for shard_id in sorted(self.shards):
            if remaining is not None and remaining <= 0:
                break
            shard = self.shards[shard_id]
            if shard.service.pending_count == 0:
                continue
            processed = self._drain(shard, remaining)
            if remaining is not None:
                remaining -= len(processed)
            drained.append((shard, processed))
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

    def _drain(self, shard: Shard, max_requests: Optional[int]) -> List[ServiceRequest]:
        with shard.lock:
            # Shard busy time is thread CPU time, not wall: CPU time is the
            # shard's own demand, and max over shards is the fleet's critical
            # path on a one-core-per-shard deployment.  The service
            # accumulates it stage by stage (``ServiceStats.busy_cpu_s``).
            stats = shard.service.stats_record
            busy_before = stats.busy_cpu_s
            processed = shard.service.process(max_requests)
            shard.busy_s += stats.busy_cpu_s - busy_before
            shard.processed += len(processed)
            return processed

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _move(self, record: TenantRecord, target_id: str,
              quarantine: bool = False) -> None:
        source = self.shards[record.shard_id]
        target = self.shards[target_id]
        with source.lock:
            withdrawn = source.service.withdraw_queued(record.name)
            entry = source.service.detach_model(record.name)
        if quarantine:
            self._quarantine(entry)
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
            self.placement.redispatched_requests += 1

    def _quarantine(self, entry: ModelEntry) -> None:
        """Invalidate a tenant's result cache and re-provision its proposer.

        Scoped: only this tenant's memo (verdicts vouched by the slashed
        proposer) dies; sibling tenants keep their hot caches.  The proposer
        keeps its ledger account and device, so execution — and therefore
        every commitment — is unchanged.
        """
        entry.result_cache.clear()
        entry.proposer = HonestProposer(
            entry.proposer.name, entry.proposer.device,
            hash_cache=self.hash_cache,
        )

    def _detect_slashed_proposers(
            self, drained: List[Tuple[Shard, List[ServiceRequest]]]) -> None:
        """Standing-proposer slash => the tenant fails over, quarantined on
        the way (in place when no other shard is live)."""
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
                record = self.placement.tenants.get(request.model_name)
                if record is None or record.shard_id != shard.shard_id:
                    continue
                entry = shard.service.model(request.model_name)
                if report.task.proposer == entry.proposer.name:
                    hit[request.model_name] = shard.shard_id
        for model_name in sorted(hit):
            if len(self.placement.live_shards) > 1:
                self._move(*self.placement.fail_over(model_name),
                           quarantine=True)
            else:
                self._quarantine(self.model(model_name))

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
