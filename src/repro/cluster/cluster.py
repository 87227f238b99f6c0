"""Sharded TAO cluster: the shared front end over in-process shards.

:class:`TAOCluster` fronts N independent
:class:`~repro.protocol.service.TAOService` shards that settle on one shared
:class:`~repro.protocol.chain.SimulatedChain`, each behind its own
:class:`~repro.protocol.chain.ShardChainView` clock.  Everything above a
shard — placement by commitment digest, request records, drains in shard-id
order, failover with re-dispatch and the slash quarantine — is the
:class:`~repro.cluster.placement.PlacedCore` front end the process fleet
shares; the cluster contributes its in-process backend
(:class:`~repro.cluster.shard.Shard`) and tenant hosting (``host_model``).

Sharding is **observationally transparent**: the same request schedule
produces byte-identical per-request verdicts and an exactly equal ledger
(per-account balances and minted total) whether it runs through one
``TAOService``, a 1-shard cluster, an N-shard cluster with failover
injected, or the process fleet — the equivalence pinned by
``tests/test_sharded_equivalence.py``.  Tenants (not requests) are the
routing unit, so per-model sessions, engine plans and the result cache
stay shard-local and hot, and a move carries the tenant
entry whole (session, roles, clone accounting): not a single ledger unit is
minted or lost.  Protocol time is per shard, so one shard's finalization
sweep never lapses a sibling's challenge windows.
"""

from __future__ import annotations

from typing import Optional

from repro.calibration.thresholds import ThresholdTable
from repro.cluster.placement import PlacedCore, PlacementError, TenantRecord
from repro.cluster.shard import Shard
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import ModelCommitment
from repro.protocol.chain import ShardChainView, SimulatedChain
from repro.protocol.coordinator import Coordinator
from repro.protocol.lifecycle import TAOSession
from repro.protocol.service import ModelEntry, TAOService


class ClusterError(PlacementError):
    """Raised on invalid cluster operations."""


class TAOCluster(PlacedCore):
    """N in-process TAOService shards behind the shared sharded front end."""

    def __init__(
        self,
        num_shards: int = 4,
        chain: Optional[SimulatedChain] = None,
        alpha: float = 3.0,
        n_way: int = 2,
        committee_size: int = 3,
        leaf_path: str = "routed",
        hash_cache: Optional[HashCache] = None,
        cycle_capacity: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        super().__init__(
            chain, hash_cache, ClusterError, alpha, n_way=n_way,
            committee_size=committee_size, leaf_path=leaf_path,
            cycle_capacity=cycle_capacity)
        for index in range(num_shards):
            self.add_shard(f"shard-{index}")

    def _start_shard(self, shard_id: str) -> Shard:
        return Shard(shard_id, TAOService(
            coordinator=Coordinator(chain=ShardChainView(self.chain, shard_id)),
            hash_cache=self.hash_cache, **self._service_knobs,
        ))

    def host_model(
        self,
        graph_module: GraphModule,
        threshold_table: ThresholdTable,
        model_commitment: ModelCommitment,
        **session_kwargs,
    ) -> TAOSession:
        """Host one committed tenant on the shard its commitment digest
        homes it to; the home shard's service hosts it without minting."""
        key = model_commitment.digest()
        home = self.placement.ring.node_for(key)
        session = self.shards[home].service.host_model(
            graph_module, threshold_table, model_commitment, **session_kwargs)
        self.placement.admit(TenantRecord(name=graph_module.name, key=key,
                                          shard_id=home))
        return session

    def model(self, name: str) -> ModelEntry:
        """The live tenant entry, on the shard currently serving ``name``."""
        return self.shards[self.location(name)].service.model(name)
