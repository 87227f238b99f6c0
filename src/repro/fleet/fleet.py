"""Multi-process shard fleet behind the :class:`ServiceCore` front-end contract.

:class:`ProcessFleet` is the out-of-process sibling of
:class:`~repro.cluster.cluster.TAOCluster`: the same consistent-hash tenant
placement (the routing key *is* the model commitment digest), the same shared
settlement ledger, the same failover choreography — but each shard is a full
:class:`~repro.protocol.service.TAOService` living in its **own process**
(:mod:`repro.fleet.worker`), driven over the serialized RPC transport
(:mod:`repro.fleet.transport`).  Where the thread cluster's shards share one
interpreter, the fleet's drains run on distinct interpreters, turning the
cluster's *modeled* parallel speedup into a *measured* wall-clock one.
Placement — ring home, failover targets, shard-id reservation, drained and
dead membership — is decided by the same
:class:`~repro.cluster.placement.Placement` controller the cluster uses; the
fleet only executes its moves over RPC.

Settlement stays exact: workers never hold ledger state.  Every fund,
transfer and transaction append flows back over the worker's channel as a
nested ``chain_call`` served by the parent against the one shared
:class:`~repro.protocol.chain.SimulatedChain` (gas costed parent-side, under
the chain lock, stamped with the worker's own shard clock).  Per-account
balances, the minted total and shard-tagged dispute gas are therefore
byte-identical to the in-process paths — the differential pin in
``tests/test_fleet_equivalence.py`` drives one schedule through the plain
service, the thread cluster and the fleet and asserts identical verdict
fingerprints and an exactly equal ledger.

The parent keeps lightweight mirrors of worker protocol state
(:class:`CoordinatorSnapshot`, updated in place after every drain) so
liveness/conservation invariant sweeps and the simulation runner walk a
fleet exactly as they walk in-process coordinators.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.calibration.thresholds import ThresholdTable
from repro.cluster.placement import (
    PlacedCore,
    Placement,
    PlacementError,
    TenantRecord,
)
from repro.fleet.transport import (
    MessageChannel,
    TransportClosed,
    TransportTimeout,
)
from repro.fleet.journal import JournalDivergence, ShardJournal
from repro.fleet.wire import graph_to_payload
from repro.fleet.worker import (
    ShardWorker,
    WorkerError,
    start_worker,
    stop_worker,
)
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import ExecutionCommitment
from repro.protocol.chain import SimulatedChain
from repro.protocol.coordinator import DisputePhase, TaskStatus
from repro.protocol.dispute import DisputeOutcome, DisputeStatistics
from repro.protocol.lifecycle import SessionReport
from repro.protocol.service import ServiceRequest, ServiceStats
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.timing import now


class FleetError(PlacementError):
    """Raised for fleet-level misuse (unknown tenants, dead workers, ...)."""


class _UnknownChainMethod(RuntimeError):
    """Internal: a chain_call named a method the parent does not serve."""


# ----------------------------------------------------------------------
# Parent-side protocol-state mirrors
# ----------------------------------------------------------------------

@dataclass
class TaskSnapshot:
    """Parent-side mirror of one worker coordinator task record."""

    task_id: int
    model_name: str
    status: TaskStatus
    dispute_id: Optional[int] = None


@dataclass
class DisputeSnapshot:
    """Parent-side mirror of one worker dispute record."""

    dispute_id: int
    task_id: int
    phase: DisputePhase
    adjudication_path: Optional[str] = None


@dataclass
class _VerificationFlag:
    """The single field of an exceedance report the front end re-exposes."""

    exceeded: bool


@dataclass
class _ResultSnapshot:
    """Carrier for the proposer's execution commitment inside reports."""

    commitment: ExecutionCommitment


class CoordinatorSnapshot:
    """Read-only mirror of one worker's coordinator, updated in place.

    Task snapshots keep their identity across updates so a caller holding
    ``report.task`` can later find the same object in :attr:`tasks` — the
    contract the simulation runner's dispute-record lookup relies on.
    Quacks like a coordinator for the invariant sweeps: ``tasks``,
    ``disputes`` and :meth:`dispute_gas`.
    """

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.tasks: Dict[int, TaskSnapshot] = {}
        self.disputes: Dict[int, DisputeSnapshot] = {}
        self._dispute_gas: Dict[int, int] = {}

    def dispute_gas(self, dispute_id: int) -> int:
        return int(self._dispute_gas.get(dispute_id, 0))

    def apply(self, payload: Dict[str, Any]) -> None:
        for row in payload["tasks"]:
            task_id = int(row["task_id"])
            status = TaskStatus(row["status"])
            dispute_id = row["dispute_id"]
            dispute_id = None if dispute_id is None else int(dispute_id)
            task = self.tasks.get(task_id)
            if task is None:
                self.tasks[task_id] = TaskSnapshot(
                    task_id=task_id, model_name=row["model_name"],
                    status=status, dispute_id=dispute_id)
            else:
                task.status = status
                task.dispute_id = dispute_id
        for row in payload["disputes"]:
            dispute_id = int(row["dispute_id"])
            phase = DisputePhase(row["phase"])
            dispute = self.disputes.get(dispute_id)
            if dispute is None:
                self.disputes[dispute_id] = DisputeSnapshot(
                    dispute_id=dispute_id, task_id=int(row["task_id"]),
                    phase=phase, adjudication_path=row["adjudication_path"])
            else:
                dispute.phase = phase
                dispute.adjudication_path = row["adjudication_path"]
            self._dispute_gas[dispute_id] = int(row["gas_used"])


# ----------------------------------------------------------------------
# Parent-side worker / tenant / request records
# ----------------------------------------------------------------------

@dataclass
class WorkerHandle:
    """One spawned shard worker and its channel."""

    shard_id: str
    process: multiprocessing.process.BaseProcess
    channel: MessageChannel
    alive: bool = True
    #: Serializes channel use: one request/response conversation at a time.
    lock: Lock = field(default_factory=Lock)


@dataclass
class FleetModel(TenantRecord):
    """Parent-side tenant record: placement fields plus the wire payload."""

    #: The registration payload as shipped — replayed (with
    #: ``fund_accounts=False``) when a move re-homes the tenant.
    payload: Dict[str, Any] = field(default_factory=dict)
    challenger_clones: int = 0


@dataclass
class _RequestRecord:
    """One submitted request: the parent-visible snapshot plus re-dispatch state."""

    request: ServiceRequest
    shard_id: str
    local_id: int
    proposer_spec: Optional[Dict[str, Any]]
    challenger_spec: Optional[Dict[str, Any]]


class ProcessFleet(PlacedCore):
    """N shard-worker processes behind one consistent-hash front end."""

    def __init__(
        self,
        num_workers: int = 2,
        chain: Optional[SimulatedChain] = None,
        devices: Iterable[DeviceProfile] = DEVICE_FLEET,
        alpha: float = 3.0,
        n_way: int = 2,
        committee_size: int = 3,
        leaf_path: str = "routed",
        hash_cache: Optional[HashCache] = None,
        cycle_capacity: Optional[int] = None,
        max_batch: int = 32,
        enable_batching: bool = True,
        enable_result_cache: bool = True,
        result_cache_size: int = 256,
        actor_module: str = "repro.fleet.actors",
        start_method: Optional[str] = None,
        worker_timeout_s: Optional[float] = None,
        recovery: str = "failover",
    ) -> None:
        if num_workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if recovery not in ("failover", "journal"):
            raise ValueError(
                f"recovery must be 'failover' or 'journal', not {recovery!r}")
        self.chain = chain or SimulatedChain()
        self.devices = tuple(devices)
        self.alpha = float(alpha)
        self.hash_cache = hash_cache or HashCache()
        self.actor_module = actor_module
        #: Hung-worker deadline: every parent-side channel operation must
        #: complete within this many seconds or the worker is declared
        #: wedged (:class:`TransportTimeout`) and failed over like a dead
        #: one.  ``None`` waits forever (the pre-timeout behavior).
        self.worker_timeout_s = (None if worker_timeout_s is None
                                 else float(worker_timeout_s))
        self._service_knobs = {
            "max_batch": int(max_batch),
            "enable_batching": bool(enable_batching),
            "enable_result_cache": bool(enable_result_cache),
            "result_cache_size": int(result_cache_size),
            "alpha": float(alpha),
            "n_way": int(n_way),
            "committee_size": int(committee_size),
            "leaf_path": leaf_path,
            "cycle_capacity": cycle_capacity,
        }
        self._context = multiprocessing.get_context(start_method)
        self.placement = Placement(self.devices, self.alpha, self.hash_cache,
                                   error=FleetError)
        self.workers: Dict[str, WorkerHandle] = {}
        self._snapshots: Dict[str, CoordinatorSnapshot] = {}
        self._last_stats: Dict[str, ServiceStats] = {}
        self._requests: Dict[int, _RequestRecord] = {}
        self._by_local: Dict[Tuple[str, int], int] = {}
        self._pending: Dict[str, List[int]] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_workers = 0
        self._closed = False
        self.measured_wall_s = 0.0
        #: Dead-worker policy: ``"failover"`` re-homes tenants on ring
        #: successors (in-flight disputes are forfeited and reported in
        #: :attr:`forfeited_disputes`); ``"journal"`` restarts the worker in
        #: place and replays its write-ahead journal, resuming in-flight
        #: disputes to byte-identical verdicts.
        self.recovery = recovery
        #: Per-shard write-ahead journals (parent-held; they survive the
        #: worker's crash domain by construction).
        self.journals: Dict[str, ShardJournal] = {}
        #: Workers restarted-and-replayed from their journal.
        self.recoveries = 0
        #: Disputes that were in flight on a worker at failover time, per
        #: its spec journal: ``{"shard_id", "task", "state"}`` rows.  The
        #: failover path forfeits them (the replacement worker re-executes
        #: the requests from scratch); journal recovery resumes them.
        self.forfeited_disputes: List[Dict[str, Any]] = []
        #: Shards currently replaying their journal: command/spec recording
        #: is suppressed for them (the journal already holds this prefix).
        self._replaying: set = set()
        #: Test hook: called as ``hook(shard_id, message)`` before the parent
        #: applies each nested chain call (the worker-death tests kill a
        #: worker here, mid-drain, deterministically).
        self._chain_call_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None
        #: Test hook: called after a chain call is applied and journaled but
        #: before its reply is sent — the post-chain/pre-ack crash boundary.
        self._chain_reply_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None
        for index in range(int(num_workers)):
            self.add_shard(f"shard-{index}")

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _start_shard(self, shard_id: str) -> None:
        if self._closed:
            raise FleetError("the fleet is closed")
        self._snapshots[shard_id] = CoordinatorSnapshot(shard_id)
        self._pending[shard_id] = []
        self.journals[shard_id] = ShardJournal(shard_id)
        self._launch(shard_id)

    def _launch(self, shard_id: str) -> WorkerHandle:
        """Start the worker process for ``shard_id`` and boot it."""
        process, channel = start_worker(self._context, ShardWorker, {
            "shard_id": shard_id,
            "block_interval_s": self.chain.block_interval_s,
            "service": dict(self._service_knobs),
            "actor_module": self.actor_module,
        }, name=f"fleet-{shard_id}", deadline_s=self.worker_timeout_s)
        handle = WorkerHandle(shard_id=shard_id, process=process,
                              channel=channel)
        self.workers[shard_id] = handle
        return handle

    def _live_workers(self) -> List[str]:
        return [shard_id for shard_id in sorted(self.workers)
                if self.workers[shard_id].alive]

    # ------------------------------------------------------------------
    # RPC with nested chain settlement
    # ------------------------------------------------------------------

    #: Ops always journaled on completion: they mutate worker state a
    #: recovered incarnation must rebuild.
    _JOURNALED_OPS = frozenset({"register", "submit", "process", "withdraw",
                                "detach"})

    def _should_journal(self, payload: Dict[str, Any],
                        chain_frames: int) -> bool:
        """Whether a completed command belongs in the write-ahead journal.

        Beyond the state-mutating ops, *any* op that issued chain calls must
        be journaled — replay re-issues the worker's chain-call stream with
        per-incarnation sequence ids, so skipping a chain-touching command
        would desynchronize the ids from the journal tail.
        """
        op = payload.get("op")
        if op is None or op == "shutdown":
            return False
        return op in self._JOURNALED_OPS or chain_frames > 0

    def _call(self, handle: WorkerHandle, payload: Dict[str, Any]) -> Any:
        """One request/response conversation, serving nested chain calls."""
        if not handle.alive:
            raise FleetError(f"worker {handle.shard_id!r} is dead")
        journal = (None if handle.shard_id in self._replaying
                   else self.journals.get(handle.shard_id))
        chain_frames = 0
        try:
            with handle.lock:
                handle.channel.send(payload)
                while True:
                    message = handle.channel.recv()
                    kind = message.get("kind")
                    if kind == "chain_call":
                        if self._chain_call_hook is not None:
                            self._chain_call_hook(handle.shard_id, message)
                        chain_frames += 1
                        reply = self._serve_chain_call(handle.shard_id,
                                                       message)
                        if self._chain_reply_hook is not None:
                            self._chain_reply_hook(handle.shard_id, message)
                        handle.channel.send(reply)
                    elif kind == "journal":
                        # One-way write-ahead frame: FIFO ordering means it
                        # lands before any chain mutation it covers.
                        if journal is not None:
                            journal.record_spec(message.get("entry", {}))
                    elif kind == "response":
                        if message.get("ok"):
                            value = message.get("value")
                            if journal is not None and \
                                    self._should_journal(payload, chain_frames):
                                journal.record_command(payload, True, value)
                            return value
                        if journal is not None and \
                                self._should_journal(payload, chain_frames):
                            # Failed commands that touched the chain are
                            # journaled too (with their error), keeping the
                            # replayed sequence-id stream aligned.
                            journal.record_command(payload, False,
                                                   message.get("error"))
                        raise WorkerError(
                            f"[{handle.shard_id}] {message.get('error')}")
                    else:
                        raise FleetError(
                            f"unexpected message kind {kind!r} from "
                            f"{handle.shard_id}")
        except TransportClosed:
            self._mark_dead(handle)
            raise

    def _serve_chain_call(self, shard_id: str,
                          message: Dict[str, Any]) -> Dict[str, Any]:
        journal = self.journals.get(shard_id)
        seq = message.get("seq")
        if journal is not None and seq is not None:
            recorded = journal.chain_reply(seq, message)
            if recorded is not None:
                # Replay duplicate: answer from the journal, do not
                # re-apply — at-most-once for every ledger mutation.
                return recorded
        method = message.get("method")
        args = message.get("args", {})
        try:
            if method == "fund":
                self.chain.fund(args["account"], args["amount"])
                value: Any = None
            elif method == "fund_once":
                value = self.chain.fund_once(args["account"], args["amount"])
            elif method == "transfer":
                self.chain.transfer(args["source"], args["destination"],
                                    args["amount"])
                value = None
            elif method == "balance":
                value = self.chain.balance(args["account"])
            elif method == "balances":
                value = dict(self.chain.balances)
            elif method == "minted":
                value = self.chain.minted
            elif method == "submit":
                tx = self.chain.append_stamped(
                    args["sender"], args["action"], args["payload_bytes"],
                    args["storage_writes"], args["merkle_checks"],
                    args["details"], args["block"], args["timestamp"],
                    args["shard"],
                )
                value = {"gas_used": int(tx.gas_used), "index": int(tx.index)}
            else:
                raise _UnknownChainMethod(f"unknown chain method {method!r}")
        except _UnknownChainMethod as exc:
            reply = {"kind": "chain_reply", "ok": False,
                     "error_type": "RuntimeError", "error": str(exc)}
        except ValueError as exc:
            reply = {"kind": "chain_reply", "ok": False,
                     "error_type": "ValueError", "error": str(exc)}
        else:
            reply = {"kind": "chain_reply", "ok": True, "value": value}
        if journal is not None and seq is not None:
            journal.record_chain(seq, message, reply)
        return reply

    def _mark_dead(self, handle: WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self.placement.mark_dead(handle.shard_id)
        # A hung-but-alive worker (the TransportTimeout path) is killed, so
        # a wedged child cannot outlive its failover.
        stop_worker(handle.process, handle.channel, join_s=1.0)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def register_model(
        self,
        graph_module: GraphModule,
        calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
        threshold_table: Optional[ThresholdTable] = None,
        committee_envelope=None,
        colluding_majority: Optional[int] = None,
        **session_kwargs,
    ) -> FleetModel:
        """Register one tenant; it is homed by its commitment digest.

        Returns the parent-side :class:`FleetModel` record (the session
        itself lives inside the worker).  ``committee_envelope`` travels by
        value; a colluding committee travels as its majority count and is
        rebuilt by the workers' actor module.
        """
        if session_kwargs:
            raise FleetError(
                "session kwargs beyond committee_envelope/colluding_majority "
                f"cannot cross the fleet boundary: {sorted(session_kwargs)}")
        threshold_table, key, home = self.placement.prepare(
            graph_module, calibration_inputs, threshold_table,
            committee_envelope=committee_envelope,
        )
        name = graph_module.name
        payload = {
            "op": "register",
            "name": name,
            "graph": graph_to_payload(graph_module),
            "thresholds": threshold_table.to_dict(),
            "committee_envelope": None if committee_envelope is None
            else committee_envelope.to_dict(),
            "colluding_majority": colluding_majority,
            "fund_accounts": True,
            "challenger_clones": 0,
        }
        value = self._call(self.workers[home], payload)
        if bytes(value["digest"]) != key:
            raise FleetError(
                f"worker {home} committed a different model digest for "
                f"{name!r}; the wire round-trip is not commitment-exact")
        return self.placement.admit(FleetModel(
            name=name, key=key, shard_id=home, home_id=home, payload=payload))

    def model(self, name: str):
        raise FleetError(
            f"tenant entries live inside worker processes; use location({name!r}), "
            "stats() or the coordinator snapshots instead of model()")

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    def submit(
        self,
        model_name: str,
        inputs: Mapping[str, np.ndarray],
        proposer: Optional[Dict[str, Any]] = None,
        force_challenge: bool = False,
        challenger: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Enqueue one request on the tenant's home worker.

        ``proposer``/``challenger`` are **actor specs** (plain maps resolved
        by the workers' actor module), not role objects — role objects hold
        devices and closures that cannot cross the serialized transport.
        """
        record = self.placement.record(model_name)
        for label, spec in (("proposer", proposer), ("challenger", challenger)):
            if spec is not None and not isinstance(spec, dict):
                raise TypeError(
                    f"fleet {label} must be an actor-spec dict, not "
                    f"{type(spec).__name__}; role objects cannot cross the "
                    "process boundary")
        payload = {
            "op": "submit",
            "model": model_name,
            "inputs": {name: np.asarray(value) for name, value in inputs.items()},
            "proposer": proposer,
            "challenger": challenger,
            "force_challenge": bool(force_challenge),
        }
        try:
            local_id = int(self._call(self.workers[record.shard_id],
                                      payload)["local_id"])
        except TransportClosed:
            # The home worker died — or wedged past its deadline — under our
            # feet.  It is already marked dead and ring-drained; either
            # restart it in place from its journal or re-home its tenants
            # (and queue), then retry once.
            if self.recovery == "journal":
                self._recover_worker(record.shard_id)
            else:
                self._fail_over_worker(record.shard_id)
            local_id = int(self._call(self.workers[record.shard_id],
                                      payload)["local_id"])
        request_id = len(self._requests)
        request = ServiceRequest(
            request_id=request_id, model_name=model_name, inputs=dict(inputs),
            force_challenge=bool(force_challenge), submitted_s=now(),
        )
        self._requests[request_id] = _RequestRecord(
            request=request, shard_id=record.shard_id, local_id=local_id,
            proposer_spec=proposer, challenger_spec=challenger,
        )
        self._by_local[(record.shard_id, local_id)] = request_id
        self._pending[record.shard_id].append(request_id)
        return request_id

    def request(self, request_id: int) -> ServiceRequest:
        return self._requests[request_id].request

    @property
    def pending_count(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain every busy worker concurrently; failover dead ones."""
        started = now()
        processed = self._process_round(max_requests)
        self.measured_wall_s += now() - started
        return sorted(processed, key=lambda request: request.request_id)

    def _process_round(self, max_requests: Optional[int]) -> List[ServiceRequest]:
        busy = [shard_id for shard_id in self._live_workers()
                if self._pending[shard_id]]
        if not busy:
            return []
        processed: List[ServiceRequest] = []
        died: List[str] = []

        if max_requests is not None:
            # Bounded drains run sequentially in shard order: determinism
            # beats parallelism for the partial-drain administrative path.
            remaining = int(max_requests)
            for shard_id in busy:
                if remaining <= 0:
                    break
                take = min(remaining, len(self._pending[shard_id]))
                try:
                    value = self._call(self.workers[shard_id],
                                       {"op": "process", "max_requests": take})
                except TransportClosed:
                    died.append(shard_id)
                    continue
                results = self._apply_process_response(shard_id, value)
                processed.extend(results)
                remaining -= len(results)
        else:
            if len(busy) == 1:
                outcomes = [(busy[0], self._drain_one(busy[0]))]
            else:
                pool = self._drain_pool(len(busy))
                futures = [(shard_id, pool.submit(self._drain_one, shard_id))
                           for shard_id in busy]
                outcomes = [(shard_id, future.result())
                            for shard_id, future in futures]
            for shard_id, value in outcomes:
                if value is None:
                    died.append(shard_id)
                else:
                    processed.extend(self._apply_process_response(shard_id, value))

        for shard_id in died:
            if self.recovery == "journal":
                self._recover_worker(shard_id)
            else:
                self._fail_over_worker(shard_id)
        if died and self.pending_count:
            # Failover queues re-dispatched requests on ring successors;
            # journal recovery leaves them queued on the restarted worker.
            # Either way, finish the drain so the caller still gets every
            # admitted request back in terminal state.
            processed.extend(self._process_round(max_requests))
        return processed

    def _drain_one(self, shard_id: str) -> Optional[Dict[str, Any]]:
        try:
            return self._call(self.workers[shard_id], {"op": "process",
                                                       "max_requests": None})
        except TransportClosed:
            return None

    def _drain_pool(self, workers: int) -> ThreadPoolExecutor:
        """The persistent drain executor, grown (never shrunk) on demand."""
        if self._executor is not None and self._executor_workers < workers:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="fleet-drain")
            self._executor_workers = workers
        return self._executor

    def _apply_process_response(self, shard_id: str,
                                value: Dict[str, Any]) -> List[ServiceRequest]:
        # Snapshot first: reports built below reference the snapshot tasks.
        snapshot = self._snapshots[shard_id]
        snapshot.apply(value["coordinator"])
        self._last_stats[shard_id] = ServiceStats.from_payload(value["stats"])
        for name, clones in value.get("clones", []):
            model = self.placement.tenants.get(name)
            if model is not None and model.shard_id == shard_id:
                model.challenger_clones = int(clones)
        results: List[ServiceRequest] = []
        pending = self._pending[shard_id]
        for row in value["results"]:
            request_id = self._by_local.get((shard_id, int(row["local_id"])))
            if request_id is None:
                continue
            record = self._requests[request_id]
            self._apply_result(record, row, snapshot)
            if request_id in pending:
                pending.remove(request_id)
            results.append(record.request)
        return results

    def _apply_result(self, record: _RequestRecord, row: Dict[str, Any],
                      snapshot: CoordinatorSnapshot) -> None:
        request = record.request
        request.status = row["status"]
        request.error = row["error"]
        request.cache_hit = bool(row["cache_hit"])
        request.batched = bool(row["batched"])
        request.completed_s = now()
        payload = row["report"]
        if payload is None:
            request.report = None
            return
        task = snapshot.tasks[int(payload["task_id"])]
        commitment = ExecutionCommitment(
            value=bytes(payload["commitment"]["value"]),
            input_hash=bytes(payload["commitment"]["input_hash"]),
            output_hash=bytes(payload["commitment"]["output_hash"]),
            meta=dict(payload["commitment"]["meta"]),
        )
        dispute = None
        if payload["dispute"] is not None:
            spec = payload["dispute"]
            stats = spec["statistics"]
            dispute = DisputeOutcome(
                dispute_id=int(spec["dispute_id"]),
                task_id=int(spec["task_id"]),
                proposer_cheated=bool(spec["proposer_cheated"]),
                winner=spec["winner"],
                localized_operator=spec["localized_operator"],
                adjudication=None,
                statistics=DisputeStatistics(
                    rounds=int(stats["rounds"]),
                    dispute_time_s=float(stats["dispute_time_s"]),
                    merkle_checks=int(stats["merkle_checks"]),
                    challenger_flops=float(stats["challenger_flops"]),
                    adjudication_flops=float(stats["adjudication_flops"]),
                    gas_used=int(stats["gas_used"]),
                ),
                resolved_by_timeout=bool(spec["resolved_by_timeout"]),
            )
        request.report = SessionReport(
            task=task,
            result=_ResultSnapshot(commitment=commitment),
            challenged=bool(payload["challenged"]),
            finalized_optimistically=bool(payload["finalized_optimistically"]),
            verification_reports=[_VerificationFlag(exceeded=flag)
                                  for flag in payload["verification"]],
            dispute=dispute,
        )

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _move(self, model: FleetModel, target_id: str) -> None:
        """Execute one planned move: re-register ``model`` on ``target_id``
        and re-submit its queue there.

        A live source is withdrawn and detached (clone accounting
        preserved); a dead one is replayed from the parent's own records.
        The stored registration payload is replayed with
        ``fund_accounts=False`` — the tenant's accounts already exist on the
        shared chain, and no membership change may create money.
        """
        source = self.workers.get(model.shard_id)
        if source is not None and source.alive:
            withdrawn = [
                self._by_local[(model.shard_id, int(local_id))]
                for local_id in self._call(source, {
                    "op": "withdraw", "model": model.name})["local_ids"]
            ]
            clones = int(self._call(source, {
                "op": "detach", "model": model.name})["challenger_clones"])
        else:
            withdrawn = [
                request_id
                for request_id in self._pending.get(model.shard_id, [])
                if self._requests[request_id].request.model_name == model.name
            ]
            clones = model.challenger_clones
        if not self.workers[target_id].alive:
            raise FleetError(
                f"placement target {target_id!r} for {model.name!r} is dead")
        old_shard = model.shard_id
        payload = dict(model.payload)
        payload["fund_accounts"] = False
        payload["challenger_clones"] = int(clones)
        value = self._call(self.workers[target_id], payload)
        if bytes(value["digest"]) != model.key:
            raise FleetError(
                f"failover re-registration of {model.name!r} changed its digest")
        model.shard_id = target_id
        model.payload = payload
        model.challenger_clones = int(clones)
        for request_id in withdrawn:
            record = self._requests[request_id]
            local_id = int(self._call(self.workers[target_id], {
                "op": "submit",
                "model": model.name,
                "inputs": {name: np.asarray(value)
                           for name, value in record.request.inputs.items()},
                "proposer": record.proposer_spec,
                "challenger": record.challenger_spec,
                "force_challenge": bool(record.request.force_challenge),
            })["local_id"])
            if request_id in self._pending[old_shard]:
                self._pending[old_shard].remove(request_id)
            record.shard_id = target_id
            record.local_id = local_id
            record.request.status = "queued"
            self._by_local[(target_id, local_id)] = request_id
            self._pending[target_id].append(request_id)
            self.placement.redispatched_requests += 1

    def _recover_worker(self, shard_id: str) -> None:
        """Restart a dead worker in place and replay its write-ahead journal.

        The replacement process keeps the shard's identity: ring placement,
        coordinator snapshot, pending queue and request records all survive
        untouched.  Replaying the journaled command stream rebuilds the
        worker's entire in-memory stack deterministically; its re-issued
        chain calls carry per-incarnation sequence ids that dedupe against
        the journal tail, so every pre-crash ledger mutation is applied
        exactly once and the recovered run stays byte-identical to an
        uncrashed one.  The command that was in flight at the crash is not
        replayed here — its caller retries it, and the dedupe makes the
        retry exact (in-flight disputes resume mid-round rather than being
        forfeited).
        """
        journal = self.journals.get(shard_id)
        if journal is None:
            raise FleetError(
                f"worker {shard_id!r} has no journal to recover from")
        self._replaying.add(shard_id)
        try:
            handle = self._launch(shard_id)
            for entry in journal.commands():
                payload = entry["payload"]
                try:
                    value = self._call(handle, payload)
                except WorkerError:
                    if entry["ok"]:
                        raise JournalDivergence(
                            f"[{shard_id}] journaled {payload.get('op')!r} "
                            f"command failed on replay") from None
                    continue  # the journaled run failed here too
                if entry["ok"] and payload.get("op") == "submit":
                    recorded = int(entry["value"]["local_id"])
                    if int(value["local_id"]) != recorded:
                        raise JournalDivergence(
                            f"[{shard_id}] replayed submit produced local id "
                            f"{value['local_id']}, journal says {recorded}")
        finally:
            self._replaying.discard(shard_id)
        # Restore the pre-crash placement (an administratively drained
        # worker stays drained).
        self.placement.revive(shard_id)
        self.recoveries += 1

    def _fail_over_worker(self, shard_id: str) -> None:
        """Re-home a dead worker's tenants and queue on ring successors.

        The worker is gone, so nothing can be withdrawn: the stored
        registration payloads are replayed (``fund_accounts=False`` — the
        tenants' accounts already exist on the shared chain and re-homing
        must not create money) and the parent's own pending queue is
        re-submitted.  Work the worker settled partially before dying stays
        settled — transfers conserve value, so the ledger still balances.
        Disputes that were in flight are forfeited: the replacement worker
        re-executes their requests from scratch.  The spec journal names
        them exactly (:attr:`forfeited_disputes`).
        """
        journal = self.journals.get(shard_id)
        if journal is not None:
            try:
                from repro.spec.machine import validate_journal
                summary = validate_journal(journal.spec_entries())
            except Exception:  # noqa: BLE001 - forfeit report is best-effort
                pass
            else:
                for task, state in sorted(summary.in_flight_tasks.items()):
                    if state == "pending":
                        continue  # not in a dispute; re-execution is routine
                    self.forfeited_disputes.append(
                        {"shard_id": shard_id, "task": task, "state": state})
        self._execute(self.placement.evacuate(shard_id))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def coordinators(self) -> List[CoordinatorSnapshot]:
        """Every worker coordinator mirror, dead workers included."""
        return [self._snapshots[shard_id] for shard_id in sorted(self._snapshots)]

    def journal_for(self, shard_id: str) -> ShardJournal:
        """The write-ahead journal of one shard (dead workers included)."""
        try:
            return self.journals[shard_id]
        except KeyError:
            raise FleetError(f"unknown worker {shard_id!r}") from None

    def spec_journals(self) -> Dict[str, List[Dict[str, Any]]]:
        """Per-shard decoded ``(state, event)`` journals, for invariant
        checks against the executable spec (``repro.spec.machine``)."""
        return {shard_id: journal.spec_entries()
                for shard_id, journal in sorted(self.journals.items())}

    def queue_depths(self) -> Dict[str, int]:
        """Parent-tracked pending requests per live worker."""
        return {shard_id: len(self._pending[shard_id])
                for shard_id in self._live_workers()}

    def queue_ages(self, at_s: Optional[float] = None) -> List[float]:
        """Ages (seconds) of every queued request, oldest first."""
        reference = now() if at_s is None else float(at_s)
        ages = [max(0.0, reference - self._requests[request_id].request.submitted_s)
                for queue in self._pending.values() for request_id in queue]
        return sorted(ages, reverse=True)

    def queued_model_names(self) -> List[str]:
        """Distinct tenants with queued work (the autoscaler's routing grain)."""
        return sorted({self._requests[request_id].request.model_name
                       for queue in self._pending.values()
                       for request_id in queue})

    def _shard_stats(self) -> Dict[str, ServiceStats]:
        """Live workers' records refreshed over RPC; dead workers keep the
        last record they sent."""
        for shard_id in self._live_workers():
            try:
                value = self._call(self.workers[shard_id], {"op": "stats"})
            except TransportClosed:
                continue
            self._snapshots[shard_id].apply(value["coordinator"])
            self._last_stats[shard_id] = ServiceStats.from_payload(value["stats"])
        return self._last_stats

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release the drain executor (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard_id in sorted(self.workers):
            handle = self.workers[shard_id]
            if handle.alive:
                try:
                    self._call(handle, {"op": "shutdown"})
                except (TransportClosed, WorkerError, FleetError):
                    pass
            handle.alive = False
            stop_worker(handle.process, handle.channel, join_s=2.0)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_workers = 0
