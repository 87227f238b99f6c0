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
wall clock.  Dead-worker recovery is the fleet's own: a worker found dead
or wedged under a call is marked dead, and the next drain or submit to one
of its tenants restarts it in place from its parent-held write-ahead
journal, so no task it held is left open on the chain.
Re-homing stays an administrative move (drain, remove, slash quarantine).

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
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.calibration.thresholds import ThresholdTable
from repro.cluster.placement import PlacedCore, PlacementError, TenantRecord
from repro.fleet.chainproxy import apply_chain_call
from repro.fleet.transport import (
    MessageChannel,
    TransportClosed,
    TransportTimeout,
)
from repro.fleet.journal import JournalDivergence, ShardJournal
from repro.fleet.wire import envelope_to_payload, graph_to_payload, table_to_payload
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
from repro.protocol.dispute import DisputeOutcome, DisputeStatistics, RoundStatistics
from repro.protocol.lifecycle import SessionReport
from repro.protocol.service import ServiceRequest, ServiceStats
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.serialization import canonical_bytes


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

    :meth:`apply` upserts rows: a ``process`` or ``stats`` response carries
    only the rows that changed since the worker's previous successful
    ``process`` response.

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

    #: The registration payload as shipped — replayed when a move re-homes
    #: the tenant (a worker's registration never mints).
    payload: Dict[str, Any] = field(default_factory=dict)
    challenger_clones: int = 0


@dataclass(eq=False)
class WorkerHandle:
    """One shard worker process: the fleet's shard backend.

    Speaks the front end's backend vocabulary
    (:class:`~repro.cluster.placement.PlacedCore`) as worker ops, in the
    front end's request ids: the worker admits each request under the id
    ``submit`` returned and holds it only until a drain returns it, and
    that drain settles the front end's own records from the result rows.
    The parent-side mirrors — the coordinator snapshot and the last stats
    record — live here and survive a journal
    recovery, which relaunches the worker in place; a dead worker answers
    ``detach``/``stats`` from them and ``withdraw`` from the front end's
    pending index.  ``alive`` is the channel's flag; the front end reads
    deadness from its placement alone.
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

    def call(self, payload: Dict[str, Any]) -> Any:
        return self.fleet._call(self, payload)

    def admit(self, request: ServiceRequest) -> None:
        """Ship one request to the worker; ``proposer``/``challenger`` must
        be **actor specs** (plain maps resolved by the workers' actor
        module) — role objects hold devices and closures that cannot cross
        the transport."""
        for label, spec in (("proposer", request.proposer),
                            ("challenger", request.challenger)):
            if spec is not None and not isinstance(spec, dict):
                raise TypeError(
                    f"fleet {label} must be an actor-spec dict, not "
                    f"{type(spec).__name__}; role objects cannot cross the "
                    "process boundary")
        self.call({
            "op": "submit",
            "request_id": request.request_id,
            "model": request.model_name,
            "inputs": {name: np.asarray(value)
                       for name, value in request.inputs.items()},
            "proposer": request.proposer,
            "challenger": request.challenger,
            "force_challenge": request.force_challenge,
        })

    def drain(self, max_requests: Optional[int]) -> List[int]:
        value = self.call({"op": "process", "max_requests": max_requests})
        # Snapshot first: the reports settled below reference its tasks.
        self._absorb(value)
        for name, clones in value.get("clones", []):
            model = self.fleet.placement.tenants.get(name)
            if model is not None and model.shard_id == self.shard_id:
                model.challenger_clones = int(clones)
        queued = self.fleet._pending[self.shard_id]
        done = []
        for row in value["results"]:
            request_id = int(row["request_id"])
            if request_id in queued:
                self._settle(self.fleet.request(request_id), row)
                done.append(request_id)
        return done

    def withdraw(self, name: str) -> List[int]:
        """A live worker withdraws over RPC; a dead one from the front end's
        pending index."""
        if self.alive:
            return [int(request_id) for request_id in self.call(
                {"op": "withdraw", "model": name})["request_ids"]]
        return [request_id for request_id in self.fleet._pending[self.shard_id]
                if self.fleet.request(request_id).model_name == name]

    def detach(self, record: FleetModel) -> int:
        """The tenant's challenger-clone count (mirrored if the worker died)."""
        if not self.alive:
            return record.challenger_clones
        return int(self.call({"op": "detach",
                              "model": record.name})["challenger_clones"])

    def adopt(self, record: FleetModel, clones: int) -> None:
        """Replay the stored registration, carrying the clone count; the
        tenant's accounts already exist on the shared chain, and a worker's
        registration mints nothing."""
        record.payload = dict(record.payload, challenger_clones=int(clones))
        record.challenger_clones = int(clones)
        self.call(record.payload)

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
            stats = dict(spec["statistics"])
            per_round = [RoundStatistics(**row) for row in stats.pop("per_round")]
            dispute = DisputeOutcome(
                dispute_id=int(spec["dispute_id"]),
                task_id=int(spec["task_id"]),
                proposer_cheated=bool(spec["proposer_cheated"]),
                winner=spec["winner"],
                localized_operator=spec["localized_operator"],
                adjudication=None,
                statistics=DisputeStatistics(**stats, per_round=per_round),
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
        actor_module: str = "repro.fleet.actors",
        start_method: Optional[str] = None,
        worker_timeout_s: Optional[float] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("a fleet needs at least one worker")
        super().__init__(
            chain, devices, hash_cache, FleetError, alpha, n_way=n_way,
            committee_size=committee_size, leaf_path=leaf_path,
            cycle_capacity=cycle_capacity)
        self.actor_module = actor_module
        #: Hung-worker deadline: every parent-side channel operation must
        #: complete within this many seconds or the worker is declared
        #: wedged (:class:`TransportTimeout`), killed and restarted in place
        #: like a dead one.  ``None`` waits forever.
        self.worker_timeout_s = (None if worker_timeout_s is None
                                 else float(worker_timeout_s))
        self._context = multiprocessing.get_context(start_method)
        self._closed = False
        #: Per-shard write-ahead journals (parent-held; they survive the
        #: worker's crash domain by construction).
        self.journals: Dict[str, ShardJournal] = {}
        #: Workers restarted-and-replayed from their journal.
        self.recoveries = 0
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
                sent = handle.channel.send(payload)
                while True:
                    message, frame = handle.channel.recv_frame()
                    kind = message.get("kind")
                    if kind == "chain_call":
                        if self._chain_call_hook is not None:
                            self._chain_call_hook(handle.shard_id, message)
                        chain_frames += 1
                        reply = self._serve_chain_call(handle.shard_id,
                                                       message, frame)
                        if self._chain_reply_hook is not None:
                            self._chain_reply_hook(handle.shard_id, message)
                        handle.channel.send_frame(reply)
                    elif kind == "journal":
                        # One-way write-ahead frame: FIFO ordering means it
                        # lands before any chain mutation it covers.
                        if journal is not None:
                            journal.record_spec(frame)
                    elif kind == "response":
                        ok = bool(message.get("ok"))
                        if journal is not None and \
                                self._should_journal(payload, chain_frames):
                            # Failed commands that touched the chain are
                            # journaled too (with their error), keeping the
                            # replayed sequence-id stream aligned.
                            journal.record_command(sent, ok, frame)
                        if ok:
                            return message.get("value")
                        raise WorkerError(
                            f"[{handle.shard_id}] {message.get('error')}")
                    else:
                        raise FleetError(
                            f"unexpected message kind {kind!r} from "
                            f"{handle.shard_id}")
        except TransportClosed:
            self._mark_dead(handle)
            raise

    def _serve_chain_call(self, shard_id: str, message: Dict[str, Any],
                          frame: bytes) -> bytes:
        """Serve one ``chain_call`` (decoded ``message``, raw ``frame``);
        returns the encoded reply frame, journaled before it is sent."""
        journal = self.journals.get(shard_id)
        seq = message.get("seq")
        if journal is not None and seq is not None:
            recorded = journal.chain_reply(seq, frame)
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
        data = canonical_bytes(reply)
        if journal is not None and seq is not None:
            journal.record_chain(seq, frame, data)
        return data

    def _mark_dead(self, handle: WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self.placement.mark_dead(handle.shard_id)
        # A hung-but-alive worker (the TransportTimeout path) is killed, so
        # a wedged child cannot outlive its restart.
        stop_worker(handle.process, handle.channel, join_s=1.0)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def host_model(
        self,
        graph_module: GraphModule,
        calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
        threshold_table: Optional[ThresholdTable] = None,
        committee_envelope=None,
        colluding_majority: Optional[int] = None,
        **session_kwargs,
    ) -> FleetModel:
        """Host one tenant on the worker its commitment digest homes it to.

        One ``register`` frame carries the graph, the threshold table and
        the committee envelope as typed arrays (:mod:`repro.fleet.wire`),
        and the routing key: the worker refuses a commitment that differs
        from it before its coordinator or the chain sees the tenant.  The
        worker's one chain call is the ``register_model`` transaction;
        :meth:`~repro.protocol.service.ServiceCore.register_model` (the
        entry point) then funds the standing accounts once, parent-side.
        Returns the parent-side :class:`FleetModel` record (the session
        itself lives inside the worker).  A colluding committee travels as
        its majority count and is rebuilt by the workers' actor module.
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
            "key": key,
            "graph": graph_to_payload(graph_module),
            "thresholds": table_to_payload(threshold_table),
            "committee_envelope": None if committee_envelope is None
            else envelope_to_payload(committee_envelope),
            "colluding_majority": colluding_majority,
            "challenger_clones": 0,
        }
        record = FleetModel(name=name, key=key, shard_id=home, payload=payload)
        self.workers[home].call(payload)
        return self.placement.admit(record)

    def model(self, name: str):
        raise FleetError(
            f"tenant entries live inside worker processes; use location({name!r}), "
            "stats() or the coordinator snapshots instead of model()")

    # ------------------------------------------------------------------
    # Dead workers
    # ------------------------------------------------------------------

    def _restart_shard(self, shard_id: str) -> None:
        """Restart a dead worker in place and replay its write-ahead journal.

        The shard keeps its identity (ring placement, coordinator mirror,
        queue and request records); a replayed submit carries its request
        id, so the worker admits each request under the id the front end
        holds.  Replayed chain calls carry
        per-incarnation sequence ids that dedupe against the journal tail,
        so each pre-crash ledger mutation applies exactly once; the command
        in flight at the crash is retried by its caller, so in-flight
        disputes resume and leave no escrow behind.  A restart that raises
        stops the worker it launched and leaves the shard dead: the next
        drain or submit tries again, and ``remove_shard`` re-homes it.
        """
        handle = self.workers[shard_id]
        handle.process, handle.channel = self._launch(shard_id)
        handle.alive = True
        self._replaying.add(shard_id)
        try:
            for entry in self.journals[shard_id].commands():
                payload = entry["payload"]
                try:
                    self._call(handle, payload)
                except WorkerError:
                    # A journaled failure fails here too; a journaled
                    # success that fails means the replay diverged.
                    if entry["ok"]:
                        raise JournalDivergence(
                            f"[{shard_id}] journaled {payload.get('op')!r} "
                            f"command failed on replay") from None
        except BaseException:
            self._mark_dead(handle)
            raise
        finally:
            self._replaying.discard(shard_id)
        # Restore the pre-crash placement (an administratively drained
        # worker stays drained).
        self.placement.revive(shard_id)
        self.recoveries += 1

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
