"""Sharded serving: consistent-hash placement, one front end, two backends.

``repro.cluster`` scales the single-process
:class:`~repro.protocol.service.TAOService` horizontally while keeping the
protocol's observable behaviour bit-identical:

* :mod:`repro.cluster.ring` — deterministic consistent-hash ring (virtual
  nodes, drain support, next-node failover rule, minimal-migration resize);
* :mod:`repro.cluster.placement` — :class:`Placement`, the one controller
  that decides where tenants live (the ring, tenant records, shard-id
  reservation, drained/dead membership and ``(tenant, target)`` move
  plans), and :class:`PlacedCore`, the one sharded front end both tiers
  are: one record per request under the id ``submit`` returned, the
  intake and queue reads, drains, move execution with re-dispatch, the
  slash quarantine and the membership verbs, driving each shard through
  one small backend vocabulary in those ids;
* :mod:`repro.cluster.shard` — :class:`Shard`, the in-process backend: a
  full ``TAOService`` over a per-shard chain view, called directly;
* :mod:`repro.cluster.cluster` — :class:`TAOCluster`: the front end over
  in-process shards, drained in shard-id order and settling on one chain.

The process backend — a worker process behind RPC — is
:class:`~repro.fleet.fleet.ProcessFleet`'s.
"""

from repro.cluster.cluster import ClusterError, TAOCluster
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
