"""Multi-request verification service (the serving front end).

The library's one request path: a **multi-tenant service** that keeps many
requests in flight against one coordinator.  Every request, whoever proposes
or challenges it, is served here over the Phase-0 record
(:class:`~repro.protocol.lifecycle.TAOSession`) its model registered.

Request life cycle inside :meth:`TAOService.process`:

1. **Queue** — :meth:`TAOService.submit` enqueues (model, inputs) pairs;
   tenants are models registered once via :meth:`TAOService.register_model`
   (per-model session reuse: calibration, commitments and role objects are
   built once, not per request).
2. **Execute** — every request that misses the result cache runs alone:
   one :meth:`~repro.protocol.roles.Proposer.execute` (the tenant's standing
   proposer, or the one the request names) and one
   :meth:`~repro.protocol.roles.Challenger.verify_result`, so its committed
   trace depends on its own payload and never on the rest of the cycle.
   The request ends the stage with one :class:`CachedVerdict`.  A
   **content-addressed result cache** keyed by the execution commitment's
   input hash short-circuits repeated standing-proposer requests: the
   proposer's committed trace and the challenger's verdict for identical
   payloads are reused.
3. **Submit** — every request becomes its own coordinator task (fees, bonds
   and challenge windows per request) in one settle loop.
4. **Dispute** — flagged (or force-challenged) tasks open disputes while
   every challenge window is still live, then the active dispute games are
   **multiplexed**: advanced round-robin one partition/selection round at a
   time over the shared chain, each with its own challenger clone so
   per-dispute accounting stays exact.
5. **Finalize** — time advances past the challenge window once and all
   unchallenged tasks finalize; every processed request ends in a terminal
   coordinator status.

A drain admits the queue in bounded cycles and runs each cycle through four
stages strictly in sequence — *hash* (HashCache + Merkle input digests),
*execute* (proposer run + challenger verification), *settle* (chain
append + challenge-window bookkeeping) and *dispute* (round-robin
``DisputeGame.step_round`` multiplexing) — timing each stage's thread CPU
into :attr:`ServiceStats.stage_busy_s`.

Throughput/latency statistics are collected per request into one fixed-size
:class:`ServiceStats` record (:meth:`TAOService.stats`); sharded tiers merge
their shards' records with :meth:`ServiceStats.merged`.

:class:`ServiceCore` is the front-end contract this module's request/verdict
types travel through: both :class:`TAOService` (one queue, one coordinator)
and :class:`~repro.cluster.cluster.TAOCluster` (N shards, each a full
``TAOService``) implement it, so examples, benchmarks and the protocol
simulator can drive either interchangeably.  :meth:`TAOService.withdraw_queued`,
:meth:`TAOService.detach_model` and :meth:`TAOService.adopt_model` are the
migration primitives the cluster's failover uses to move a tenant — session,
standing roles, result cache and clone accounting intact — between shards
without minting or forfeiting a single ledger unit.
"""

from __future__ import annotations

import abc
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.thresholds import ExceedanceReport
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import execution_input_hash
from repro.protocol.coordinator import Coordinator
from repro.protocol.dispute import ActiveDispute, DisputeGame
from repro.protocol.lifecycle import SessionReport, TAOSession
from repro.protocol.roles import Challenger, HonestProposer, ProposedResult, Proposer
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.digest import LatencyDigest
from repro.utils.timing import now, thread_now

#: Coordinator task states with no further protocol step pending — a failed
#: drain adopts these as the request's final status during unwind.
TERMINAL_TASK_STATUSES = frozenset(
    {"finalized", "proposer_slashed", "challenger_slashed"})


@dataclass
class CachedVerdict:
    """One request's committed result + challenger verdict.

    Every executed request ends the execute stage with one; default-path
    verdicts are also memoized per input hash in the tenant's result cache.
    """

    result: ProposedResult
    looks_honest: bool
    reports: List[ExceedanceReport]


@dataclass
class ServiceRequest:
    """One submitted request and everything that happened to it."""

    request_id: int
    model_name: str
    inputs: Dict[str, np.ndarray]
    proposer: Optional[Proposer] = None  # None -> the model's default honest proposer
    #: Per-request challenger override: verifies (custom-proposer path) and
    #: fights any dispute for this request instead of the model's standing
    #: challenger / a fresh clone.  The protocol simulator injects faulty
    #: challengers here; None keeps the default machinery.
    challenger: Optional[Challenger] = None
    force_challenge: bool = False
    status: str = "queued"
    report: Optional[SessionReport] = None
    #: Execution error for rejected requests (malformed payloads never reach
    #: the coordinator; the rest of the batch is unaffected).
    error: Optional[str] = None
    cache_hit: bool = False
    submitted_s: float = 0.0
    completed_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return max(self.completed_s - self.submitted_s, 0.0)


@dataclass
class ModelEntry:
    """Per-tenant state: the reused session and its standing role objects."""

    name: str
    session: TAOSession
    proposer: Proposer
    challenger: Challenger
    user: object
    #: Content-addressed verdict memo, LRU-bounded by TAOService.result_cache_size
    #: (each entry pins a full recorded trace, so it must not grow unbounded).
    result_cache: "OrderedDict[bytes, CachedVerdict]" = field(default_factory=OrderedDict)
    challenger_clones: int = 0


#: Scalar counters :meth:`ServiceStats.merged` sums across shards.
_SUMMED = ("requests_submitted", "requests_completed", "cache_hits",
           "batched_requests", "disputes_opened", "dispute_rounds",
           "processing_time_s", "busy_cpu_s")


@dataclass
class ServiceStats:
    """Service accounting, the one record every tier reports.

    A :class:`TAOService` fills the counters itself; a sharded tier builds
    its record with :meth:`merged` over its shards' records and adds the
    front end's own accounting (``requests_submitted``, ``shards``,
    ``failovers``, ``redispatched_requests``, ``measured_wall_s``).  The
    record is fixed-size: latencies live in a digest, not a list.
    """

    requests_submitted: int = 0
    requests_completed: int = 0
    cache_hits: int = 0
    #: Always 0: every request runs alone.  Kept in the payload because
    #: external benchmark harnesses read it.
    batched_requests: int = 0
    disputes_opened: int = 0
    dispute_rounds: int = 0
    processing_time_s: float = 0.0
    #: Thread-CPU seconds spent inside drain stages (the sum of
    #: ``stage_busy_s``) — the service's own demand, measured independently
    #: of host core count and GIL interleaving.
    busy_cpu_s: float = 0.0
    #: Per-stage busy breakdown (hash / execute / settle / dispute).
    stage_busy_s: Dict[str, float] = field(default_factory=dict)
    #: Submit-to-completion latency of every completed request.
    latency: LatencyDigest = field(default_factory=LatencyDigest)
    status_counts: Dict[str, int] = field(default_factory=dict)
    #: Sharded tiers: members that are neither dead nor retired.
    shards: int = 0
    failovers: int = 0
    redispatched_requests: int = 0
    #: Sharded tiers: wall-clock seconds measured around the shard drains.
    measured_wall_s: float = 0.0
    #: Sharded tiers: shard id -> that shard's ``busy_cpu_s``.
    shard_busy_s: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        if self.processing_time_s <= 0:
            return 0.0
        return self.requests_completed / self.processing_time_s

    @property
    def critical_path_s(self) -> float:
        """Busy time of the busiest shard: the service time a deployment
        with one core per shard observes (``busy_cpu_s`` unsharded)."""
        return max(self.shard_busy_s.values(), default=self.busy_cpu_s)

    def as_dict(self) -> Dict[str, object]:
        out = self.to_payload()
        out.update(latency=self.latency.summary(),
                   throughput_rps=self.throughput_rps,
                   critical_path_s=self.critical_path_s)
        return out

    def to_payload(self) -> Dict[str, object]:
        """Canonical-codec-safe state; the digest travels as ``to_dict()``."""
        out = {item.name: getattr(self, item.name) for item in fields(self)}
        for name, value in out.items():
            if isinstance(value, dict):
                out[name] = dict(value)
        out["latency"] = self.latency.to_dict()
        return out

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ServiceStats":
        state = dict(payload)
        state["latency"] = LatencyDigest.from_dict(state["latency"])
        return cls(**state)

    @classmethod
    def merged(cls, parts: Mapping[str, "ServiceStats"]) -> "ServiceStats":
        """Roll up per-shard records (shard id -> record) in shard-id order:
        counters and per-key dicts sum, digests merge, and ``shard_busy_s``
        maps each shard to its ``busy_cpu_s``."""
        total = cls()
        for shard_id in sorted(parts):
            part = parts[shard_id]
            for name in _SUMMED:
                setattr(total, name, getattr(total, name) + getattr(part, name))
            for name in ("stage_busy_s", "status_counts"):
                into = getattr(total, name)
                for key, value in getattr(part, name).items():
                    into[key] = into.get(key, 0) + value
            total.latency.merge(part.latency)
            total.shard_busy_s[shard_id] = part.busy_cpu_s
        return total


@dataclass
class _CycleState:
    """Everything one processing cycle carries between drain stages.

    A cycle is the unit flowing through the drain: hashed, executed, settled
    and disputed as a whole.  All mutable per-cycle state lives here (never
    on the service), so a failed drain can tell from each cycle's state
    which of its requests still go back to the queue.
    """

    index: int
    batch: List[ServiceRequest]
    #: Default-path requests grouped per model in first-seen order, then
    #: requests naming their own proposer in arrival order: together they
    #: fix the chain submission order, so they are computed once in the
    #: hash stage and replayed identically by settle.
    default_path: Dict[str, List[ServiceRequest]] = field(default_factory=dict)
    custom_path: List[ServiceRequest] = field(default_factory=list)
    #: request_id -> execution input hash (cache key == commitment H(x)).
    input_hashes: Dict[int, bytes] = field(default_factory=dict)
    #: request_id -> memoized/fresh verdict, filled by the execute stage.
    verdicts: Dict[int, CachedVerdict] = field(default_factory=dict)
    #: Disputes opened by the settle stage, multiplexed by the dispute stage.
    actives: List[Tuple[ServiceRequest, DisputeGame, ActiveDispute]] = \
        field(default_factory=list)
    #: Set by the dispute stage once the cycle's requests are fully counted
    #: into the service statistics; a failed drain folds the terminal
    #: statuses of unclosed cycles into the histogram during unwind.
    closed: bool = False


class ServiceCore(abc.ABC):
    """The serving front-end contract shared by one service and a cluster.

    Implementations accept the same request shapes, hand back the same
    :class:`ServiceRequest`/:class:`~repro.protocol.lifecycle.SessionReport`
    objects and account through :class:`ServiceStats`, so a caller written
    against this interface (examples, benchmarks, the protocol simulator's
    runner) is oblivious to whether one queue or a sharded fleet serves it.
    """

    @abc.abstractmethod
    def register_model(self, graph_module: GraphModule,
                       calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
                       threshold_table=None, **session_kwargs) -> TAOSession:
        """Register one tenant model; returns its (home) session."""

    @abc.abstractmethod
    def model(self, name: str) -> "ModelEntry":
        """The tenant entry currently serving ``name``."""

    @abc.abstractmethod
    def submit(self, model_name: str, inputs: Mapping[str, np.ndarray],
               proposer: Optional[Proposer] = None, force_challenge: bool = False,
               challenger: Optional[Challenger] = None) -> int:
        """Enqueue one request; returns its request id."""

    @abc.abstractmethod
    def request(self, request_id: int) -> ServiceRequest:
        """The (terminal or in-flight) record for one submitted request."""

    @abc.abstractmethod
    def process(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain (up to ``max_requests`` of) the queue to terminal statuses."""

    @abc.abstractmethod
    def stats(self) -> ServiceStats:
        """Aggregate accounting for everything processed so far."""

    def submit_many(self, model_name: str,
                    inputs_list: Iterable[Mapping[str, np.ndarray]]) -> List[int]:
        return [self.submit(model_name, inputs) for inputs in inputs_list]

    def queue_ages(self, at_s: Optional[float] = None) -> List[float]:
        """Ages (seconds) of every queued request, oldest first.

        The elastic tier's backlog-staleness signal (queue-age SLO burn).
        Front ends with a queue override this; the default is an empty
        backlog so SLO accounting degrades gracefully on custom cores.
        """
        return []

    def queued_model_names(self) -> List[str]:
        """Distinct tenants with queued work — the autoscaler's routing
        grain (scaling past one worker per queued tenant cannot help)."""
        return []

    def close(self) -> None:
        """Release any long-lived resources (executors, worker processes).

        The plain in-process service holds none, so the default is a no-op;
        front ends owning pools override it.  ``close`` is idempotent, and
        every front end works as a context manager::

            with TAOCluster(num_shards=4) as cluster:
                ...
        """

    def __enter__(self) -> "ServiceCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TAOService(ServiceCore):
    """Multi-tenant front end over the TAO protocol stack."""

    def __init__(
        self,
        coordinator: Optional[Coordinator] = None,
        devices: Sequence[DeviceProfile] = DEVICE_FLEET,
        result_cache_size: int = 256,
        alpha: float = 3.0,
        n_way: int = 2,
        committee_size: int = 3,
        leaf_path: str = "routed",
        hash_cache: Optional[HashCache] = None,
        cycle_capacity: Optional[int] = None,
    ) -> None:
        self.coordinator = coordinator or Coordinator()
        self.devices = tuple(devices)
        self.result_cache_size = int(result_cache_size)
        self.alpha = float(alpha)
        self.n_way = int(n_way)
        self.committee_size = int(committee_size)
        self.leaf_path = leaf_path
        # An externally shared cache lets many short-lived services over the
        # same committed weights (e.g. simulator scenarios) reuse digests.
        self.hash_cache = hash_cache or HashCache()
        #: Optional cap on requests per cycle, clamped to the protocol bound
        #: (:meth:`_cycle_capacity`).
        self.cycle_capacity = None if cycle_capacity is None else int(cycle_capacity)
        #: Always ``None``: every drain runs its cycles synchronously, so
        #: there is no stage-overlap accounting to report.  Kept because
        #: external benchmark harnesses read it after each ``process()``.
        self.last_pipeline_stats = None

        self._models: Dict[str, ModelEntry] = {}
        self._queue: Deque[int] = deque()
        self._requests: Dict[int, ServiceRequest] = {}
        self.stats_record = ServiceStats()

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def register_model(
        self,
        graph_module: GraphModule,
        calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
        threshold_table=None,
        proposer_device: Optional[DeviceProfile] = None,
        challenger_device: Optional[DeviceProfile] = None,
        fund_accounts: bool = True,
        **session_kwargs,
    ) -> TAOSession:
        """Register one model: calibrate/commit once, build standing roles.

        ``fund_accounts=False`` builds the standing roles without minting
        their initial balances — the re-registration leg of a process-fleet
        failover, where the tenant's accounts already exist on the shared
        settlement chain and re-homing must not create money.
        """
        name = graph_module.name
        if name in self._models:
            raise ValueError(f"model {name!r} is already registered with this service")
        session = TAOSession(
            graph_module,
            calibration_inputs=calibration_inputs,
            threshold_table=threshold_table,
            devices=self.devices,
            coordinator=self.coordinator,
            alpha=self.alpha,
            n_way=self.n_way,
            committee_size=self.committee_size,
            leaf_path=self.leaf_path,
            hash_cache=self.hash_cache,
            **session_kwargs,
        )
        session.setup(owner=f"{name}-owner", fund_owner=fund_accounts)
        entry = ModelEntry(
            name=name,
            session=session,
            proposer=session.make_honest_proposer(f"{name}-proposer", proposer_device,
                                                  fund=fund_accounts),
            challenger=session.make_challenger(f"{name}-challenger", challenger_device,
                                               fund=fund_accounts),
            user=session.make_user(f"{name}-user", fund=fund_accounts),
        )
        self._models[name] = entry
        return session

    def model(self, name: str) -> ModelEntry:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(f"model {name!r} is not registered with this service") from None

    @property
    def model_names(self) -> List[str]:
        return sorted(self._models)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    def submit(
        self,
        model_name: str,
        inputs: Mapping[str, np.ndarray],
        proposer: Optional[Proposer] = None,
        force_challenge: bool = False,
        challenger: Optional[Challenger] = None,
    ) -> int:
        """Enqueue one request; returns its request id."""
        self.model(model_name)  # fail fast on unknown tenants
        request = ServiceRequest(
            request_id=len(self._requests),
            model_name=model_name,
            inputs=dict(inputs),
            proposer=proposer,
            challenger=challenger,
            force_challenge=force_challenge,
            submitted_s=now(),
        )
        self._requests[request.request_id] = request
        self._queue.append(request.request_id)
        self.stats_record.requests_submitted += 1
        return request.request_id

    def request(self, request_id: int) -> ServiceRequest:
        return self._requests[request_id]

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def queue_ages(self, at_s: Optional[float] = None) -> List[float]:
        """Ages (seconds) of every queued request, oldest first."""
        reference = now() if at_s is None else float(at_s)
        ages = [max(0.0, reference - self._requests[request_id].submitted_s)
                for request_id in self._queue]
        return sorted(ages, reverse=True)

    def queued_model_names(self) -> List[str]:
        """Distinct tenants with queued work."""
        return sorted({self._requests[request_id].model_name
                       for request_id in self._queue})

    def withdraw_queued(self, model_name: str) -> List[ServiceRequest]:
        """Pull this model's not-yet-processed requests out of the queue.

        The failover path re-dispatches in-flight requests to a fallback
        shard: withdrawn requests are marked terminal here (``withdrawn``)
        and their payloads/actors are resubmitted elsewhere by the caller.
        Requests already processed (terminal) are untouched.
        """
        withdrawn: List[ServiceRequest] = []
        keep: Deque[int] = deque()
        while self._queue:
            request_id = self._queue.popleft()
            request = self._requests[request_id]
            if request.model_name == model_name:
                request.status = "withdrawn"
                withdrawn.append(request)
            else:
                keep.append(request_id)
        self._queue = keep
        return withdrawn

    # ------------------------------------------------------------------
    # Tenant migration (cluster failover / ring resize)
    # ------------------------------------------------------------------

    def detach_model(self, name: str) -> ModelEntry:
        """Remove and return a tenant entry so another service can adopt it.

        Queued requests must be withdrawn first (:meth:`withdraw_queued`);
        detaching with work still queued would strand those requests.
        """
        entry = self.model(name)
        if any(self._requests[rid].model_name == name for rid in self._queue):
            raise RuntimeError(
                f"model {name!r} still has queued requests; withdraw them first"
            )
        del self._models[name]
        return entry

    def adopt_model(self, entry: ModelEntry) -> None:
        """Adopt a tenant entry migrated from another service.

        The entry arrives whole — session, standing roles, result cache and
        challenger-clone accounting — so no ledger account is re-funded: the
        tenant's accounts simply continue on the shared settlement chain.
        The committed model is registered with this service's coordinator if
        it has never seen it (a gas-metered transaction, no balance
        movement), and the session is re-pointed so future dispute games run
        against this coordinator.
        """
        if entry.name in self._models:
            raise ValueError(f"model {entry.name!r} is already registered here")
        if entry.name not in self.coordinator.models:
            self.coordinator.register_model(entry.session.model_commitment,
                                            owner=f"{entry.name}-owner")
        entry.session.coordinator = self.coordinator
        self._models[entry.name] = entry
        # The entry arrives with the *source* service's cache bound; enforce
        # this service's bound immediately rather than on the next insert.
        self._trim_result_cache(entry)

    def quarantine_model(self, name: str) -> None:
        """Invalidate a tenant's result cache and re-provision its proposer.

        The sharded front ends call this once a tenant's standing proposer
        is slashed.  Scoped: only this tenant's memo (verdicts the slashed
        proposer vouched for) dies; sibling tenants keep their hot caches.
        The proposer keeps its name, ledger account and device, so
        execution — and therefore every commitment — is unchanged.
        """
        entry = self.model(name)
        entry.result_cache.clear()
        entry.proposer = HonestProposer(entry.proposer.name, entry.proposer.device,
                                        hash_cache=self.hash_cache)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain (up to ``max_requests`` of) the queue to terminal statuses.

        The drain proceeds in bounded cycles: every coordinator transaction
        advances chain time one block, and a cycle's disputes must open while
        every task's challenge window is still live, so each cycle takes at
        most :meth:`_cycle_capacity` requests through submit -> verify ->
        dispute -> finalize before the next cycle starts.
        """
        cycles = self._admit_cycles(max_requests)
        if not cycles:
            return []
        started = now()
        processed: List[ServiceRequest] = []
        try:
            for cycle in cycles:
                processed.extend(self._run_cycle(cycle))
        except BaseException:
            # A stage failure must not strand the admitted-but-untouched
            # requests: every request that never produced a side effect
            # beyond pure compute goes back to the queue head (original
            # order), so a retry drain can still serve it.
            self._requeue_unprocessed(cycles)
            raise
        self.stats_record.processing_time_s += now() - started
        return processed

    def _cycle_capacity(self) -> int:
        """Requests per cycle such that no challenge window lapses mid-cycle.

        The first task of a cycle is submitted ~2 transactions (blocks) per
        request before the last dispute of the cycle opens; keeping a cycle
        to a quarter of the window in blocks leaves ample margin.  An
        explicit ``cycle_capacity`` only ever tightens this protocol bound.
        """
        window_blocks = self.coordinator.challenge_window_s / \
            self.coordinator.chain.block_interval_s
        protocol_cap = max(1, int(window_blocks / 4))
        if self.cycle_capacity is not None:
            return max(1, min(protocol_cap, self.cycle_capacity))
        return protocol_cap

    def _admit_cycles(self, max_requests: Optional[int]) -> List[_CycleState]:
        """Admission control: pop the queue into bounded cycle batches."""
        remaining = max_requests
        capacity = self._cycle_capacity()
        cycles: List[_CycleState] = []
        while self._queue and (remaining is None or remaining > 0):
            take = capacity if remaining is None else min(capacity, remaining)
            batch: List[ServiceRequest] = []
            while self._queue and len(batch) < take:
                batch.append(self._requests[self._queue.popleft()])
            if not batch:
                break
            cycles.append(_CycleState(index=len(cycles), batch=batch))
            if remaining is not None:
                remaining -= len(batch)
        return cycles

    def _requeue_unprocessed(self, cycles: List[_CycleState]) -> None:
        """Recover what a failed drain admitted: requeue or mark stranded.

        Requests still ``queued`` with no report have at most been hashed,
        executed and memoized (pure compute over content-addressed caches) —
        they never reached the chain, so they go back to the queue head in
        order and a retry drain serves them exactly once.

        Requests whose settle already ran (report exists) but whose dispute
        stage never closed the cycle cannot be re-run — re-processing would
        double-submit their coordinator tasks.  They are marked ``stranded``
        (with ``error`` describing the chain-side state) instead of being
        left silently ``queued`` forever: the record is queryable, the
        status histogram shows it, and the on-chain task remains PENDING for
        an operator (or the liveness invariant sweep) to find.
        """
        requeue: List[int] = []
        counts = self.stats_record.status_counts
        for cycle in cycles:
            if cycle.closed:
                continue  # dispute stage finished: already counted
            for request in cycle.batch:
                if request.status == "queued" and request.report is None:
                    requeue.append(request.request_id)
                    continue
                if request.status == "queued":
                    # The request settled; what happened next is on the
                    # TaskRecord itself (the failure may have hit partway
                    # through the dispute stage, *after* this task already
                    # finalized or resolved its dispute).
                    task = request.report.task
                    if task.status.value in TERMINAL_TASK_STATUSES:
                        request.status = request.report.final_status
                    else:
                        request.status = "stranded"
                        request.error = (
                            "drain failed before this request's dispute/"
                            f"finalize step; task {task.task_id} left "
                            f"{task.status.value!r} on chain"
                        )
                # Terminal-but-uncounted (stranded here, or rejected in a
                # cycle whose dispute stage never ran): fold the status into
                # the histogram so monitoring sees it — but not into
                # requests_completed, which counts only drained requests.
                counts[request.status] = counts.get(request.status, 0) + 1
        self._queue.extendleft(reversed(requeue))

    def _run_cycle(self, cycle: _CycleState) -> List[ServiceRequest]:
        """Run one cycle's four stages in sequence, timing each one."""
        stats = self.stats_record
        for name, stage_fn in (("hash", self._stage_hash),
                               ("execute", self._stage_execute),
                               ("settle", self._stage_settle),
                               ("dispute", self._stage_dispute)):
            cpu_start = thread_now()
            stage_fn(cycle)
            elapsed = thread_now() - cpu_start
            stats.busy_cpu_s += elapsed
            stats.stage_busy_s[name] = stats.stage_busy_s.get(name, 0.0) + elapsed
        return cycle.batch

    # -- drain stages ------------------------------------------------------

    def _stage_hash(self, cycle: _CycleState) -> _CycleState:
        """Stage 1 — hash/commit: route requests, digest default payloads.

        Pure compute over the (thread-safe, content-addressed) hash cache:
        the commitment's H(x) doubles as the result-cache key, so the two
        can never diverge.  Unhashable payloads are rejected here, before
        anything touches the cache or the chain.
        """
        for request in cycle.batch:
            if request.proposer is None:
                cycle.default_path.setdefault(request.model_name, []).append(request)
            else:
                cycle.custom_path.append(request)
        for requests in cycle.default_path.values():
            for request in requests:
                try:
                    key = execution_input_hash(request.inputs, self.hash_cache)
                except Exception as exc:
                    self._reject(request, f"unhashable payload: {exc}")
                    continue
                cycle.input_hashes[request.request_id] = key
        return cycle

    def _stage_execute(self, cycle: _CycleState) -> _CycleState:
        """Stage 2 — execute: result-cache lookups, one run per miss, verdicts.

        The only stage that touches the per-model result caches (lookups,
        inserts and LRU eviction), so cache state advances in exact cycle
        order.
        """
        for model_name, requests in cycle.default_path.items():
            entry = self.model(model_name)
            misses: List[ServiceRequest] = []
            pending: Dict[bytes, List[ServiceRequest]] = {}
            for request in requests:
                if request.status == "rejected":  # unhashable payload
                    continue
                key = cycle.input_hashes[request.request_id]
                cached = entry.result_cache.get(key)
                if cached is not None:
                    entry.result_cache.move_to_end(key)
                    # Content-addressed hit from an earlier cycle.
                    cycle.verdicts[request.request_id] = cached
                    request.cache_hit = True
                    self.stats_record.cache_hits += 1
                    continue
                if key in pending:
                    # Duplicate payload within this cycle: executed once.
                    pending[key].append(request)
                    request.cache_hit = True
                    self.stats_record.cache_hits += 1
                    continue
                pending[key] = []
                misses.append(request)

            for request in misses:
                key = cycle.input_hashes[request.request_id]
                verdict = self._execute(entry, request, entry.proposer, entry.challenger)
                if verdict is None:
                    # Rejected; duplicates of the same payload fail alike.
                    for waiter in pending[key]:
                        self._reject(waiter, request.error)
                    continue
                cycle.verdicts[request.request_id] = verdict
                self._cache_store(entry, key, verdict)
                for waiter in pending[key]:
                    cycle.verdicts[waiter.request_id] = verdict

        for request in cycle.custom_path:
            entry = self.model(request.model_name)
            verdict = self._execute(entry, request, request.proposer,
                                    request.challenger or entry.challenger)
            if verdict is not None:
                cycle.verdicts[request.request_id] = verdict
        return cycle

    def _stage_settle(self, cycle: _CycleState) -> _CycleState:
        """Stage 3 — settle: chain submission + dispute opening.

        Submits every request as its own coordinator task — default-path
        groups first (in the order the hash stage grouped them), then custom
        proposers in arrival order — then opens every dispute while all of
        the cycle's challenge windows are still live (chain time moves with
        every transaction, so disputes must open before windows may lapse).
        """
        settle_order = [request for requests in cycle.default_path.values()
                        for request in requests] + cycle.custom_path
        for request in settle_order:
            if request.status == "rejected":  # never reached a verdict
                continue
            entry = self.model(request.model_name)
            verdict = cycle.verdicts[request.request_id]
            task = self.coordinator.submit_result(
                request.model_name, entry.user.name,
                (request.proposer or entry.proposer).name,
                verdict.result.commitment, fee=entry.user.fee_per_request,
            )
            request.report = SessionReport(
                task=task,
                result=verdict.result,
                challenged=False,
                finalized_optimistically=verdict.looks_honest
                and not request.force_challenge,
                verification_reports=list(verdict.reports),
            )

        for request in cycle.batch:
            report = request.report
            if report is None:  # rejected before reaching the coordinator
                continue
            if request.force_challenge or not report.finalized_optimistically:
                entry = self.model(request.model_name)
                game = entry.session.make_dispute_game()
                challenger = request.challenger or self._challenger_clone(entry)
                proposer = request.proposer or entry.proposer
                active = game.open(report.task, proposer, challenger, report.result)
                cycle.actives.append((request, game, active))
                report.challenged = True
                report.finalized_optimistically = False
                self.stats_record.disputes_opened += 1
        return cycle

    def _stage_dispute(self, cycle: _CycleState) -> List[ServiceRequest]:
        """Stage 4 — dispute: multiplex games, finalize, close the cycle.

        Runs directly after the cycle's settle stage, so dispute rounds, the
        window advance and finalizations land on the chain before the next
        cycle submits anything.
        """
        running = list(cycle.actives)
        while running:
            still_running = []
            for item in running:
                request, game, active = item
                rounds_before = len(active.per_round)
                if game.step_round(active):
                    still_running.append(item)
                # Count rounds actually played (a terminal no-op iteration,
                # or a dispute settled at open by an input-binding fraud
                # proof, plays none).
                self.stats_record.dispute_rounds += \
                    len(active.per_round) - rounds_before
            running = still_running
        for request, game, active in cycle.actives:
            request.report.dispute = game.conclude(active)

        # Finalize every unchallenged task after one window advance.
        window = self.coordinator.challenge_window_s
        if any(r.report is not None and not r.report.challenged
               for r in cycle.batch):
            self.coordinator.chain.advance_time(window + 1.0)
        for request in cycle.batch:
            report = request.report
            if report is not None and not report.challenged:
                proposer = request.proposer or self.model(request.model_name).proposer
                self.coordinator.try_finalize(report.task.task_id, caller=proposer.name)
                report.finalized_optimistically = True

        completed = now()
        for request in cycle.batch:
            if request.report is not None:
                request.status = request.report.final_status
            request.completed_s = completed
            self.stats_record.requests_completed += 1
            self.stats_record.latency.add(request.latency_s)
            counts = self.stats_record.status_counts
            counts[request.status] = counts.get(request.status, 0) + 1
        cycle.closed = True
        return cycle.batch

    # -- execution internals ---------------------------------------------

    @staticmethod
    def _reject(request: ServiceRequest, error: Optional[str]) -> None:
        """Mark a request as rejected (terminal) without touching the chain."""
        request.status = "rejected"
        request.error = error or "execution failed"

    def _cache_store(self, entry: ModelEntry, key: bytes,
                     verdict: CachedVerdict) -> None:
        """The single insert path of the result cache: store + LRU-evict.

        Every insert runs eviction (each entry pins a full recorded trace,
        so the bound must hold after *every* insert, on every path) — the
        invariant ``len(result_cache) <= result_cache_size`` is pinned by a
        mixed-traffic regression test.
        """
        entry.result_cache[key] = verdict
        entry.result_cache.move_to_end(key)
        self._trim_result_cache(entry)

    def _trim_result_cache(self, entry: ModelEntry) -> None:
        while len(entry.result_cache) > self.result_cache_size:
            entry.result_cache.popitem(last=False)

    def _execute(self, entry: ModelEntry, request: ServiceRequest,
                 proposer: Proposer, challenger: Challenger) -> Optional[CachedVerdict]:
        """One request's proposer run and commitment, then the challenger's check.

        A request whose execution raises (a malformed payload) is rejected in
        place and yields ``None``; the rest of the cycle is unaffected.
        """
        graph_module = entry.session.graph_module
        try:
            result = proposer.execute(graph_module, entry.session.model_commitment,
                                      request.inputs)
        except Exception as exc:
            self._reject(request, str(exc))
            return None
        looks_honest, reports = challenger.verify_result(graph_module, result)
        return CachedVerdict(result=result, looks_honest=looks_honest, reports=reports)

    def _challenger_clone(self, entry: ModelEntry) -> Challenger:
        """A fresh challenger for one dispute (isolated per-dispute accounting).

        Multiplexed disputes step concurrently; a shared challenger object
        would mix the FLOP/Merkle accounting of one game into another's
        statistics.  Clones share the device, thresholds and hash cache of
        the model's standing challenger, so selection behaviour is identical.
        """
        entry.challenger_clones += 1
        name = f"{entry.challenger.name}-{entry.challenger_clones}"
        self.coordinator.chain.fund_once(name, entry.session.initial_balance)
        return Challenger(name, entry.challenger.device, entry.challenger.thresholds,
                          hash_cache=self.hash_cache,
                          committee_envelope=entry.challenger.committee_envelope)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        return self.stats_record
