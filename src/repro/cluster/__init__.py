"""Sharded serving: consistent-hash placement, in-process shards, failover.

``repro.cluster`` scales the single-process
:class:`~repro.protocol.service.TAOService` horizontally while keeping the
protocol's observable behaviour bit-identical:

* :mod:`repro.cluster.ring` — deterministic consistent-hash ring (virtual
  nodes, drain support, next-node failover rule, minimal-migration resize);
* :mod:`repro.cluster.placement` — :class:`Placement`, the one controller
  that decides where tenants live for the cluster and the process fleet
  alike: the ring, tenant records, shard-id reservation, drained/dead
  membership and ``(tenant, target)`` move plans;
* :mod:`repro.cluster.shard` — one shard: a full ``TAOService`` over a
  per-shard chain view, behind a lock;
* :mod:`repro.cluster.cluster` — :class:`TAOCluster`: executes the
  controller's moves in process (failover with re-dispatch and scoped
  result-cache invalidation), drains shards in shard-id order, settles
  fleet-wide on one chain.
"""

from repro.cluster.cluster import (
    ClusterError,
    ClusterRequest,
    TAOCluster,
)
from repro.cluster.placement import (
    PlacedCore,
    Placement,
    PlacementError,
    TenantRecord,
)
from repro.cluster.ring import ConsistentHashRing, RingError, key_position
from repro.cluster.shard import Shard

__all__ = [
    "ClusterError",
    "ClusterRequest",
    "ConsistentHashRing",
    "PlacedCore",
    "Placement",
    "PlacementError",
    "RingError",
    "Shard",
    "TAOCluster",
    "TenantRecord",
    "key_position",
]
