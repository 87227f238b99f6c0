"""One cluster shard: a full TAOService behind a lock.

A shard is not a reduced replica — it is an ordinary
:class:`~repro.protocol.service.TAOService` (its own
:class:`~repro.protocol.coordinator.Coordinator`, queue, tenants, result
caches) whose chain is a :class:`~repro.protocol.chain.ShardChainView` over
the cluster's shared settlement chain.  ``lock`` serializes a shard's own
processing against tenant moves, and ``busy_s`` reads the shard's measured
processing time — the per-shard critical-path clock the scaling benchmark
reports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.protocol.service import TAOService


@dataclass
class Shard:
    """A shard's service and drain bookkeeping."""

    shard_id: str
    service: TAOService
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def busy_s(self) -> float:
        """Cumulative busy time across every drain of this shard: thread
        CPU seconds summed over the service's drain stages (its
        ``busy_cpu_s``).  CPU time is the shard's own demand, so the max
        over shards is the critical path of a one-core-per-shard
        deployment, whatever this host's core count."""
        return self.service.stats_record.busy_cpu_s

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Shard({self.shard_id!r}, models={self.service.model_names})"
