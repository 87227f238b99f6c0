"""One cluster shard: a full TAOService behind a lock.

A shard is not a reduced replica — it is an ordinary
:class:`~repro.protocol.service.TAOService` (its own
:class:`~repro.protocol.coordinator.Coordinator`, queue, tenants, result
caches) whose chain is a :class:`~repro.protocol.chain.ShardChainView` over
the cluster's shared settlement chain.  ``lock`` serializes a shard's own
processing against tenant moves, and ``busy_s`` accumulates the shard's
measured processing time — the per-shard critical-path clock the scaling
benchmark reports.
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
    #: Cumulative busy time (thread CPU seconds, summed over the service's
    #: drain stages) across every process() drain of this shard.  The
    #: fleet's critical path is ``max`` over shards — the service time a
    #: one-core-per-shard deployment would observe, measured independently
    #: of how many cores this host has.
    busy_s: float = 0.0
    #: Requests this shard brought to a terminal status.
    processed: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (f"Shard({self.shard_id!r}, models={self.service.model_names}, "
                f"processed={self.processed})")
