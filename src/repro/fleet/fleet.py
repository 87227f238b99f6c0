"""Multi-process shard fleet: the sharded front end over worker processes.

:class:`ProcessFleet` is the out-of-process sibling of
:class:`~repro.cluster.cluster.TAOCluster`.  Both are the one sharded front
end, :class:`~repro.cluster.placement.PlacedCore` — consistent-hash tenant
placement (the routing key *is* the model commitment digest), request
records, drains, move execution with re-dispatch and the slash quarantine —
over a different shard backend.  Here each shard is a full
:class:`~repro.protocol.service.TAOService` living in its **own process**
(:mod:`repro.fleet.worker`), and :class:`WorkerHandle` speaks the front
end's backend vocabulary as ops over the serialized RPC transport
(:mod:`repro.fleet.transport`).  Unbounded drains of several workers run
concurrently, on distinct interpreters, so the fleet measures parallel
wall clock.  Dead-worker failover and write-ahead-journal recovery are the
fleet's own.

Settlement stays exact: workers never hold ledger state.  A worker's
shard view sits over a :class:`~repro.fleet.chainproxy.RemoteLedger`, so
every fund, transfer and transaction append flows back over the worker's
channel as a nested ``chain_call``, which the parent serves from the one verb
table (:func:`~repro.fleet.chainproxy.apply_chain_call`) against the one
shared :class:`~repro.protocol.chain.SimulatedChain` (gas costed
parent-side, under the chain lock, stamped with the worker's own shard
clock).  Per-account
balances, the minted total and shard-tagged dispute gas are therefore
byte-identical to the in-process paths — the differential pin in
``tests/test_sharded_equivalence.py`` drives one schedule through the plain
service, the cluster and the fleet and asserts identical verdict
fingerprints and an exactly equal ledger.

The parent keeps lightweight mirrors of worker protocol state
(:class:`CoordinatorSnapshot`, updated in place after every drain) so
liveness/conservation invariant sweeps and the simulation runner walk a
fleet exactly as they walk in-process coordinators.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.calibration.thresholds import ThresholdTable
from repro.cluster.placement import (
    PlacedCore,
    PlacedRequest,
    PlacementError,
    TenantRecord,
)
from repro.fleet.chainproxy import apply_chain_call
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
    #: Set from the first processed request this task served.
    proposer: str = ""


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
# The process shard backend and the parent-side tenant record
# ----------------------------------------------------------------------

@dataclass
class FleetModel(TenantRecord):
    """Parent-side tenant record: placement fields plus the wire payload."""

    #: The registration payload as shipped — replayed (with
    #: ``fund_accounts=False``) when a move re-homes the tenant.
    payload: Dict[str, Any] = field(default_factory=dict)
    challenger_clones: int = 0


@dataclass(eq=False)
class WorkerHandle:
    """One shard worker process: the fleet's shard backend.

    Speaks the front end's backend vocabulary
    (:class:`~repro.cluster.placement.PlacedCore`) as worker ops.  The
    parent-side mirrors — the coordinator snapshot, the last stats record
    and the views of queued requests — live here, so a dead worker still
    answers ``withdraw``/``detach``/``stats`` from them, and they survive a
    journal recovery, which relaunches the worker in place.
    """

    fleet: "ProcessFleet" = field(repr=False)
    shard_id: str
    process: multiprocessing.process.BaseProcess
    channel: MessageChannel
    alive: bool = True
    #: Serializes channel use: one request/response conversation at a time.
    lock: Lock = field(default_factory=Lock)
    coordinator: Optional[CoordinatorSnapshot] = None
    last_stats: Optional[ServiceStats] = None
    #: Local request id -> the front end's view of a queued request.
    views: Dict[int, ServiceRequest] = field(default_factory=dict)

    def call(self, payload: Dict[str, Any]) -> Any:
        return self.fleet._call(self, payload)

    def register(self, record: FleetModel) -> None:
        value = self.call(record.payload)
        if bytes(value["digest"]) != record.key:
            raise FleetError(
                f"worker {self.shard_id} committed a different model digest "
                f"for {record.name!r}; the wire round-trip is not "
                "commitment-exact")

    def enqueue(self, record: PlacedRequest) -> Tuple[int, ServiceRequest]:
        """Enqueue one request; ``proposer``/``challenger`` must be **actor
        specs** (plain maps resolved by the workers' actor module) — role
        objects hold devices and closures that cannot cross the transport."""
        for label, spec in (("proposer", record.proposer),
                            ("challenger", record.challenger)):
            if spec is not None and not isinstance(spec, dict):
                raise TypeError(
                    f"fleet {label} must be an actor-spec dict, not "
                    f"{type(spec).__name__}; role objects cannot cross the "
                    "process boundary")
        local_id = int(self.call({
            "op": "submit",
            "model": record.model_name,
            "inputs": {name: np.asarray(value)
                       for name, value in record.inputs.items()},
            "proposer": record.proposer,
            "challenger": record.challenger,
            "force_challenge": record.force_challenge,
        })["local_id"])
        view = record.view or ServiceRequest(
            request_id=record.request_id, model_name=record.model_name,
            inputs=record.inputs, force_challenge=record.force_challenge,
            submitted_s=now())
        view.status = "queued"
        self.views[local_id] = view
        return local_id, view

    def drain(self, max_requests: Optional[int],
              ) -> List[Tuple[int, ServiceRequest]]:
        value = self.call({"op": "process", "max_requests": max_requests})
        # Snapshot first: the reports settled below reference its tasks.
        self._absorb(value)
        for name, clones in value.get("clones", []):
            model = self.fleet.placement.tenants.get(name)
            if model is not None and model.shard_id == self.shard_id:
                model.challenger_clones = int(clones)
        done = []
        for row in value["results"]:
            view = self.views.pop(int(row["local_id"]), None)
            if view is not None:
                self._settle(view, row)
                done.append((int(row["local_id"]), view))
        return done

    def withdraw(self, name: str) -> List[int]:
        """A live worker withdraws over RPC; a dead one from the mirror."""
        if self.alive:
            local_ids = [int(local_id) for local_id in self.call(
                {"op": "withdraw", "model": name})["local_ids"]]
        else:
            local_ids = [local_id for local_id, view in self.views.items()
                         if view.model_name == name]
        for local_id in local_ids:
            self.views.pop(local_id, None)
        return local_ids

    def detach(self, record: FleetModel) -> int:
        """The tenant's challenger-clone count (mirrored if the worker died)."""
        if not self.alive:
            return record.challenger_clones
        return int(self.call({"op": "detach",
                              "model": record.name})["challenger_clones"])

    def adopt(self, record: FleetModel, clones: int) -> None:
        """Replay the stored registration with ``fund_accounts=False``: the
        tenant's accounts already exist on the shared chain, and no
        membership change may create money."""
        record.payload = dict(record.payload, fund_accounts=False,
                              challenger_clones=int(clones))
        record.challenger_clones = int(clones)
        self.register(record)

    def quarantine(self, name: str) -> None:
        self.call({"op": "quarantine", "model": name})

    def stats(self) -> Optional[ServiceStats]:
        """Refreshed over RPC while alive; a dead or stopped worker keeps
        the last record it sent."""
        if self.alive:
            try:
                self._absorb(self.call({"op": "stats"}))
            except TransportClosed:
                pass
        return self.last_stats

    def stop(self) -> None:
        if self.alive:
            try:
                self.call({"op": "shutdown"})
            except (TransportClosed, WorkerError, FleetError):
                pass
        self.alive = False
        stop_worker(self.process, self.channel, join_s=2.0)

    def _absorb(self, value: Dict[str, Any]) -> None:
        self.coordinator.apply(value["coordinator"])
        self.last_stats = ServiceStats.from_payload(value["stats"])

    def _settle(self, view: ServiceRequest, row: Dict[str, Any]) -> None:
        view.status = row["status"]
        view.error = row["error"]
        view.cache_hit = bool(row["cache_hit"])
        view.completed_s = now()
        payload = row["report"]
        if payload is None:
            view.report = None
            return
        task = self.coordinator.tasks[int(payload["task_id"])]
        task.proposer = payload["proposer"]
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
        view.report = SessionReport(
            task=task,
            result=_ResultSnapshot(commitment=commitment),
            challenged=bool(payload["challenged"]),
            finalized_optimistically=bool(payload["finalized_optimistically"]),
            verification_reports=[_VerificationFlag(exceeded=flag)
                                  for flag in payload["verification"]],
            dispute=dispute,
        )


class ProcessFleet(PlacedCore):
    """N shard-worker processes behind the shared sharded front end."""

    _shard_lost = (TransportClosed,)
    _concurrent_drains = True

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
        super().__init__(
            chain, devices, hash_cache, FleetError, alpha,
            result_cache_size=result_cache_size, n_way=n_way,
            committee_size=committee_size, leaf_path=leaf_path,
            cycle_capacity=cycle_capacity)
        self.actor_module = actor_module
        #: Hung-worker deadline: every parent-side channel operation must
        #: complete within this many seconds or the worker is declared
        #: wedged (:class:`TransportTimeout`) and failed over like a dead
        #: one.  ``None`` waits forever (the pre-timeout behavior).
        self.worker_timeout_s = (None if worker_timeout_s is None
                                 else float(worker_timeout_s))
        self._context = multiprocessing.get_context(start_method)
        self._closed = False
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

    @property
    def workers(self) -> Dict[str, WorkerHandle]:
        """Member workers by shard id (the front end's ``shards``)."""
        return self.shards

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _start_shard(self, shard_id: str) -> WorkerHandle:
        if self._closed:
            raise FleetError("the fleet is closed")
        self.journals[shard_id] = ShardJournal(shard_id)
        process, channel = self._launch(shard_id)
        return WorkerHandle(self, shard_id, process, channel,
                            coordinator=CoordinatorSnapshot(shard_id))

    def _launch(self, shard_id: str):
        """Start the worker process for ``shard_id`` and boot it."""
        return start_worker(self._context, ShardWorker, {
            "shard_id": shard_id,
            "block_interval_s": self.chain.block_interval_s,
            "service": dict(self._service_knobs),
            "actor_module": self.actor_module,
        }, name=f"fleet-{shard_id}", deadline_s=self.worker_timeout_s)

    # ------------------------------------------------------------------
    # RPC with nested chain settlement
    # ------------------------------------------------------------------

    #: Ops always journaled on completion: they mutate worker state a
    #: recovered incarnation must rebuild.
    _JOURNALED_OPS = frozenset({"register", "submit", "process", "withdraw",
                                "detach", "quarantine"})

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
        try:
            value = apply_chain_call(self.chain, message.get("method"),
                                     message.get("args", {}))
        except (TypeError, ValueError) as exc:
            # A refused or malformed call still gets its one reply: raising
            # here would leave the worker reading the next op as this reply.
            reply = {"kind": "chain_reply", "ok": False,
                     "error_type": type(exc).__name__, "error": str(exc)}
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
        record = FleetModel(name=name, key=key, shard_id=home, home_id=home,
                            payload=payload)
        self.workers[home].register(record)
        return self.placement.admit(record)

    def model(self, name: str):
        raise FleetError(
            f"tenant entries live inside worker processes; use location({name!r}), "
            "stats() or the coordinator snapshots instead of model()")

    # ------------------------------------------------------------------
    # Dead workers
    # ------------------------------------------------------------------

    def _lose_shard(self, shard_id: str) -> None:
        if self.recovery == "journal":
            self._recover_worker(shard_id)
        else:
            self._fail_over_worker(shard_id)

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
            handle = self.workers[shard_id]
            handle.process, handle.channel = self._launch(shard_id)
            handle.alive = True
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

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        super().close()
