"""Multi-process shard fleet: measured wall-clock parallelism for the service.

The in-process cluster (:mod:`repro.cluster`) models parallel speedup under
one GIL; this package measures it.  :class:`~repro.fleet.fleet.ProcessFleet`
is the cluster's sharded front end over the process backend: N worker
processes — each a full :class:`~repro.protocol.service.TAOService` shard
(:mod:`repro.fleet.worker`) — behind a length-prefixed RPC transport that
speaks only the repo's canonical codec (:mod:`repro.fleet.transport`; no
pickle on the data path).  Tenants are placed by the same
:class:`~repro.cluster.placement.Placement` controller the cluster uses
(homed by commitment digest on the consistent-hash ring), and all
settlement flows back to one shared parent-side chain as nested
``chain_call`` messages (:mod:`repro.fleet.chainproxy`), keeping balances,
minted totals and shard-tagged dispute gas exactly equal to the in-process
paths.
"""

from repro.fleet.fleet import (
    CoordinatorSnapshot,
    FleetError,
    FleetModel,
    ProcessFleet,
    WorkerError,
    WorkerHandle,
)
from repro.fleet.journal import JournalDivergence, ShardJournal
from repro.fleet.transport import (
    MessageChannel,
    TransportClosed,
    TransportTimeout,
    channel_pair,
)
from repro.fleet.worker import serve, start_worker, stop_worker

__all__ = [
    "CoordinatorSnapshot",
    "FleetError",
    "FleetModel",
    "JournalDivergence",
    "MessageChannel",
    "ProcessFleet",
    "ShardJournal",
    "TransportClosed",
    "TransportTimeout",
    "WorkerError",
    "WorkerHandle",
    "channel_pair",
    "serve",
    "start_worker",
    "stop_worker",
]
