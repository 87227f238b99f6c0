"""The in-process shard backend: a full TAOService, called directly.

A shard is not a reduced replica — it is an ordinary
:class:`~repro.protocol.service.TAOService` (its own
:class:`~repro.protocol.coordinator.Coordinator`, queue, tenants, result
caches) whose chain is a :class:`~repro.protocol.chain.ShardChainView` over
the cluster's shared settlement chain.  :class:`Shard` speaks the front
end's backend vocabulary (:class:`~repro.cluster.placement.PlacedCore`) as
plain calls to its service's backend verbs, with no wire loopback: the
service queues the front end's own request record, fills that object in
place as it drains it, and keeps no record once the drain has returned it.
A move carries the tenant's :class:`~repro.protocol.service.ModelEntry`
whole, so its caches stay warm.
``busy_s`` reads the shard's measured processing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.protocol.service import ModelEntry, ServiceRequest, ServiceStats, TAOService


@dataclass
class Shard:
    """One in-process shard: its service, behind the backend vocabulary."""

    shard_id: str
    service: TAOService

    @property
    def coordinator(self):
        return self.service.coordinator

    @property
    def busy_s(self) -> float:
        """Cumulative busy time across every drain of this shard: thread
        CPU seconds summed over the service's drain stages (its
        ``busy_cpu_s``): the shard's own demand, whatever this host's core
        count."""
        return self.service.stats_record.busy_cpu_s

    def admit(self, request: ServiceRequest) -> None:
        self.service.admit(request)

    def drain(self, max_requests: Optional[int]) -> List[int]:
        return [request.request_id
                for request in self.service.drain(max_requests)]

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
