"""The in-process shard backend: a full TAOService, called directly.

A shard is not a reduced replica — it is an ordinary
:class:`~repro.protocol.service.TAOService` (its own
:class:`~repro.protocol.coordinator.Coordinator`, queue, tenants, result
caches) whose chain is a :class:`~repro.protocol.chain.ShardChainView` over
the cluster's shared settlement chain.  :class:`Shard` speaks the front
end's backend vocabulary (:class:`~repro.cluster.placement.PlacedCore`) as
plain method calls, with no wire loopback, and a move carries the tenant's
:class:`~repro.protocol.service.ModelEntry` whole, so its caches stay warm.
``busy_s`` reads the shard's measured processing time — the per-shard
critical-path clock the scaling benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.protocol.service import ModelEntry, ServiceRequest, ServiceStats, TAOService


@dataclass
class Shard:
    """One in-process shard: its service, behind the backend vocabulary."""

    shard_id: str
    service: TAOService
    #: In-process shards never die.
    alive = True

    @property
    def coordinator(self):
        return self.service.coordinator

    @property
    def busy_s(self) -> float:
        """Cumulative busy time across every drain of this shard: thread
        CPU seconds summed over the service's drain stages (its
        ``busy_cpu_s``).  CPU time is the shard's own demand, so the max
        over shards is the critical path of a one-core-per-shard
        deployment, whatever this host's core count."""
        return self.service.stats_record.busy_cpu_s

    def enqueue(self, record) -> Tuple[int, ServiceRequest]:
        local_id = self.service.submit(
            record.model_name, record.inputs, proposer=record.proposer,
            force_challenge=record.force_challenge, challenger=record.challenger)
        return local_id, self.service.request(local_id)

    def drain(self, max_requests: Optional[int]) -> List[Tuple[int, ServiceRequest]]:
        return [(request.request_id, request)
                for request in self.service.process(max_requests)]

    def withdraw(self, name: str) -> List[int]:
        return [request.request_id for request in self.service.withdraw_queued(name)]

    def detach(self, record) -> ModelEntry:
        return self.service.detach_model(record.name)

    def adopt(self, record, entry: ModelEntry) -> None:
        self.service.adopt_model(entry)

    def quarantine(self, name: str) -> None:
        self.service.quarantine_model(name)

    def stats(self) -> ServiceStats:
        return self.service.stats()

    def stop(self) -> None:
        self.service.close()
