"""Multi-request verification service (the serving front end).

The library's one request path: a **multi-tenant service** that keeps many
requests in flight against one coordinator.  Every request, whoever proposes
or challenges it, is served here over the Phase-0 record
(:class:`~repro.protocol.lifecycle.TAOSession`) its model registered.

Request life cycle inside :meth:`TAOService.process`:

1. **Queue** — :meth:`ServiceCore.submit` builds one request record,
   files it under its id and :meth:`TAOService.admit` queues it; tenants
   are models registered once via :meth:`ServiceCore.register_model`
   (per-model session reuse: the front end runs Phase 0 — calibration and
   commitment — once, the home backend builds the session and role objects
   once, not per request; the front end funds the standing accounts once,
   and a backend never mints).
2. **Execute** — every request that misses the result cache runs alone:
   one :meth:`~repro.protocol.roles.Proposer.execute` (the tenant's standing
   proposer, or the one the request names) and one
   :meth:`~repro.protocol.roles.Challenger.verify_result`, so its committed
   trace depends on its own payload and never on the rest of the cycle.
   The request ends the stage with one :class:`CachedVerdict`.  A
   **content-addressed result cache** keyed by the execution commitment's
   input hash short-circuits repeated standing-proposer requests: the
   proposer's committed result and the challenger's verdict for identical
   payloads are reused.  The cache keeps receipts (results without their
   recorded trace or payload); a hit that goes to dispute is re-traced once here.  An
   entry also keeps the outcome of the dispute fought over it: once the
   standing proposer has been upheld on a commitment, later hits on it
   finalize optimistically, so honest traffic pays for a false alarm once.
3. **Submit** — every request becomes its own coordinator task (fees, bonds
   and challenge windows per request) in one settle loop.
4. **Dispute** — flagged (or force-challenged) tasks open disputes while
   every challenge window is still live, then the active dispute games are
   **multiplexed**: advanced round-robin one partition/selection round at a
   time over the shared chain, each with its own challenger clone (the
   dispute's bonded account); each game keeps its own costs.
5. **Finalize** — time advances past the challenge window once and all
   unchallenged tasks finalize; every processed request ends in a terminal
   coordinator status, and its report keeps a receipt: the recorded trace
   and the payload are released as the cycle closes.

A drain admits the queue in bounded cycles and runs each cycle through four
stages strictly in sequence — *hash* (HashCache + Merkle input digests),
*execute* (proposer run + challenger verification), *settle* (chain
append + challenge-window bookkeeping) and *dispute* (round-robin
``DisputeGame.step_round`` multiplexing) — timing each stage's thread CPU
into :attr:`ServiceStats.stage_busy_s`.

Throughput statistics are collected per request into one fixed-size
:class:`ServiceStats` record (:meth:`TAOService.stats`); sharded tiers sum
their shards' counters with :meth:`ServiceStats.merged`.

:class:`ServiceCore` is the front end every tier is: :class:`TAOService`
(one queue, one coordinator), :class:`~repro.cluster.cluster.TAOCluster`
and :class:`~repro.fleet.fleet.ProcessFleet` (N shards, each a full
``TAOService``), so examples, benchmarks and the protocol simulator can
drive any of them interchangeably.  The front end owns each request's one
record and its one clock: ``submit`` stamps ``submitted_s`` and files the
record under the id it returns, and :meth:`ServiceCore.process` stamps
``completed_s`` on each record it returns, records that latency in the
tier's one digest and drops the record's payload.  It also owns a
tenant's Phase 0 and money: :meth:`ServiceCore.register_model` refuses a
name the tier hosts, commits the model once, and funds the standing
accounts once, after the home backend hosted the tenant.  Below it a tier
speaks backend verbs only — ``host_model`` a committed tenant (minting
nothing), ``admit`` a record, ``drain`` the queue — so a shard's service
(in process, or in a worker process) holds a request only while it is
pending or in flight.  :meth:`TAOService.withdraw_queued`,
:meth:`TAOService.detach_model` and :meth:`TAOService.adopt_model` are the
migration primitives the sharded tiers use to move a tenant — session,
standing roles, result cache and clone accounting intact — between shards
without minting or forfeiting a single ledger unit.
"""

from __future__ import annotations

import abc
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields, replace
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.calibration.thresholds import ExceedanceReport
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import execution_input_hash
from repro.protocol.coordinator import Coordinator, TaskStatus
from repro.protocol.dispute import ActiveDispute, DisputeGame
from repro.protocol.lifecycle import (INITIAL_BALANCE, SessionReport, TAOSession,
                                      commit_phase0)
from repro.protocol.roles import Challenger, HonestProposer, ProposedResult, Proposer
from repro.tensorlib.device import DeviceProfile
from repro.utils.digest import LatencyDigest
from repro.utils.timing import now, thread_now

#: A tenant's standing accounts, ``f"{model}-{role}"``, which
#: :meth:`ServiceCore.register_model` funds once.
STANDING_ROLES = ("owner", "proposer", "challenger", "user")

#: Coordinator task states with no further protocol step pending — a failed
#: drain adopts these as the request's final status during unwind.
TERMINAL_TASK_STATUSES = frozenset(
    {"finalized", "proposer_slashed", "challenger_slashed"})


@dataclass
class CachedVerdict:
    """One request's committed result + challenger verdict.

    Every executed request ends the execute stage with one; default-path
    verdicts are also memoized per input hash in the tenant's result cache,
    whose entries hold a :meth:`ProposedResult.receipt` (no trace, no payload).
    """

    result: ProposedResult
    looks_honest: bool
    reports: List[ExceedanceReport]
    #: Precedent: a default-path dispute over this entry's commitment ended
    #: with the proposer upheld (:meth:`TAOService._record_precedent`), so a
    #: default-path hit no longer re-stakes a dispute the challenger lost.
    upheld: bool = False


@dataclass
class ServiceRequest:
    """One submitted request and everything that happened to it."""

    request_id: int
    model_name: str
    #: Emptied once ``process()`` returns the request: nothing reads it then.
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
    #: Stamped by ``submit`` and by the ``process()`` that returns the request.
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
    #: Content-addressed verdict memo, LRU-bounded by TAOService.result_cache_size.
    #: Entries hold receipts (commitment and outputs, no trace or payload).
    result_cache: "OrderedDict[bytes, CachedVerdict]" = field(default_factory=OrderedDict)
    challenger_clones: int = 0


#: Scalar counters :meth:`ServiceStats.merged` sums across shards.
_SUMMED = ("requests_submitted", "requests_completed", "cache_hits",
           "precedent_hits", "batched_requests", "disputes_opened",
           "dispute_rounds", "processing_time_s", "busy_cpu_s")


@dataclass
class ServiceStats:
    """Service accounting, the one record every tier reports.

    A :class:`TAOService` fills the counters itself; a sharded tier builds
    its record with :meth:`merged` over its shards' records and adds the
    front end's own accounting (``requests_submitted``, ``latency``,
    ``shards``, ``failovers``, ``redispatched_requests``,
    ``measured_wall_s``).  The record is fixed-size: latencies live in a
    digest, not a list.
    """

    requests_submitted: int = 0
    requests_completed: int = 0
    cache_hits: int = 0
    #: Flagged cache hits that finalized on an upheld precedent instead of
    #: going to dispute again.
    precedent_hits: int = 0
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
    #: ``latency_s`` of every request the front end's ``process()`` returned.
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

    def as_dict(self) -> Dict[str, object]:
        out = self.to_payload()
        out.update(latency=self.latency.summary(), throughput_rps=self.throughput_rps)
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
        counters and per-key dicts sum, and ``shard_busy_s`` maps each shard
        to its ``busy_cpu_s``."""
        total = cls()
        for shard_id in sorted(parts):
            part = parts[shard_id]
            for name in _SUMMED:
                setattr(total, name, getattr(total, name) + getattr(part, name))
            for name in ("stage_busy_s", "status_counts"):
                into = getattr(total, name)
                for key, value in getattr(part, name).items():
                    into[key] = into.get(key, 0) + value
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
    """The serving front end every tier is: one service, a cluster, a fleet.

    Implementations accept the same request shapes, hand back the same
    :class:`ServiceRequest`/:class:`~repro.protocol.lifecycle.SessionReport`
    objects and account through :class:`ServiceStats`, so a caller written
    against this interface (examples, benchmarks, the protocol simulator's
    runner) is oblivious to whether one queue or a sharded fleet serves it.
    It owns the request records, their clock, the latency digest, each
    registration's one Phase 0 and the funding of each tenant's standing
    accounts; a tier adds the backend verbs :meth:`host_model`,
    :meth:`admit` and :meth:`drain`, its duplicate-name refusal, its
    settlement ``chain`` and the ``alpha`` and ``hash_cache`` Phase 0
    commits with.
    """

    def __init__(self) -> None:
        self._requests: Dict[int, ServiceRequest] = {}
        #: The id the next :meth:`submit` returns: one past the largest id
        #: :meth:`enqueue` has filed.
        self._next_request_id = 0
        #: One observation per request :meth:`process` returned.
        self.latency = LatencyDigest()

    def register_model(self, graph_module: GraphModule,
                       calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]] = None,
                       threshold_table=None, **session_kwargs):
        """Register one tenant: refuse a name this tier hosts, run Phase 0
        once (:func:`~repro.protocol.lifecycle.commit_phase0`),
        :meth:`host_model` the commitment on its home backend, then fund
        its standing accounts once, on this tier's ``chain``.

        The only place any tier calibrates and commits.  Returns what
        :meth:`host_model` returned (the session; a fleet's parent-side
        tenant record).  The front end is the only minter of a tenant's
        accounts: a backend that hosts the tenant again (a move, a journal
        replay) never funds, and a refused registration has funded nothing.
        """
        self._refuse_duplicate(graph_module.name)
        threshold_table, commitment = commit_phase0(
            graph_module, self.alpha, self.hash_cache, calibration_inputs,
            threshold_table, session_kwargs.get("committee_envelope"))
        hosted = self.host_model(graph_module, threshold_table, commitment,
                                 **session_kwargs)
        balance = float(session_kwargs.get("initial_balance", INITIAL_BALANCE))
        for role in STANDING_ROLES:
            self.chain.fund_once(f"{graph_module.name}-{role}", balance)
        return hosted

    @abc.abstractmethod
    def _refuse_duplicate(self, name: str) -> None:
        """Raise if this tier already hosts a tenant called ``name``."""

    @abc.abstractmethod
    def host_model(self, graph_module: GraphModule, threshold_table,
                   model_commitment, **session_kwargs):
        """Host one committed tenant on its home backend, minting nothing
        (a backend verb)."""

    @abc.abstractmethod
    def model(self, name: str) -> "ModelEntry":
        """The tenant entry currently serving ``name``."""

    def submit(self, model_name: str, inputs: Mapping[str, np.ndarray],
               proposer: Optional[Proposer] = None, force_challenge: bool = False,
               challenger: Optional[Challenger] = None) -> int:
        """Enqueue one request; returns its id, the request's only id on
        every tier."""
        request = ServiceRequest(
            request_id=self._next_request_id, model_name=model_name,
            inputs=dict(inputs), proposer=proposer, challenger=challenger,
            force_challenge=bool(force_challenge), submitted_s=now())
        self.enqueue(request)
        return request.request_id

    def enqueue(self, request: ServiceRequest) -> None:
        """File one request record under its ``request_id`` and admit it:
        the front end's one intake, which ``submit`` calls."""
        if request.request_id in self._requests:
            raise ValueError(
                f"request id {request.request_id} is already filed here")
        self.admit(request)  # fails fast on unknown tenants
        self._requests[request.request_id] = request
        self._next_request_id = max(self._next_request_id, request.request_id + 1)

    def request(self, request_id: int) -> ServiceRequest:
        """The (terminal or in-flight) record for one submitted request."""
        return self._requests[request_id]

    def process(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """:meth:`drain`, then stamp each returned record's ``completed_s``,
        record its latency and drop its payload."""
        returned = self.drain(max_requests)
        completed = now()
        for request in returned:
            request.completed_s = completed
            request.inputs = {}
            self.latency.add(request.latency_s)
        return returned

    @abc.abstractmethod
    def admit(self, request: ServiceRequest) -> None:
        """Queue one record for a later drain (a backend verb)."""

    @abc.abstractmethod
    def drain(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Take (up to ``max_requests`` of) the queue to terminal statuses,
        returning each admitted request once (a backend verb)."""

    @abc.abstractmethod
    def stats(self) -> ServiceStats:
        """Aggregate accounting for everything processed so far."""

    def submit_many(self, model_name: str,
                    inputs_list: Iterable[Mapping[str, np.ndarray]]) -> List[int]:
        return [self.submit(model_name, inputs) for inputs in inputs_list]

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
        result_cache_size: int = 256,
        alpha: float = 3.0,
        n_way: int = 2,
        committee_size: int = 3,
        leaf_path: str = "routed",
        hash_cache: Optional[HashCache] = None,
        cycle_capacity: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.coordinator = coordinator or Coordinator()
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
        self._queue: Deque[ServiceRequest] = deque()
        #: Requests a drain that raised left terminal; the next drain
        #: returns them, so every admitted request is returned exactly once.
        self._unreported: List[ServiceRequest] = []
        self.stats_record = ServiceStats(latency=self.latency)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    @property
    def chain(self):
        """The settlement chain this service's coordinator settles on."""
        return self.coordinator.chain

    def _refuse_duplicate(self, name: str) -> None:
        if name in self._models:
            raise ValueError(f"model {name!r} is already registered with this service")

    def host_model(
        self,
        graph_module: GraphModule,
        threshold_table,
        model_commitment,
        proposer_device: Optional[DeviceProfile] = None,
        **session_kwargs,
    ) -> TAOSession:
        """Host one committed model: its session and standing roles.

        Mints nothing: :meth:`ServiceCore.register_model` commits the model
        before and funds the standing accounts after, and a cluster shard's
        service or a fleet worker is only ever asked to host.
        """
        name = graph_module.name
        self._refuse_duplicate(name)
        session = TAOSession(
            graph_module,
            threshold_table,
            model_commitment,
            coordinator=self.coordinator,
            n_way=self.n_way,
            committee_size=self.committee_size,
            leaf_path=self.leaf_path,
            hash_cache=self.hash_cache,
            owner=f"{name}-owner",
            **session_kwargs,
        )
        entry = ModelEntry(
            name=name,
            session=session,
            proposer=session.make_honest_proposer(f"{name}-proposer", proposer_device,
                                                  fund=False),
            challenger=session.make_challenger(f"{name}-challenger", fund=False),
            user=session.make_user(f"{name}-user", fund=False),
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

    def admit(self, request: ServiceRequest) -> None:
        """Queue ``request``, refusing an id already queued here (a worker
        replaying a corrupt journal)."""
        self.model(request.model_name)  # fail fast on unknown tenants
        if any(queued.request_id == request.request_id for queued in self._queue):
            raise ValueError(f"request id {request.request_id} is already queued here")
        self._queue.append(request)
        self.stats_record.requests_submitted += 1

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def withdraw_queued(self, model_name: str) -> List[ServiceRequest]:
        """Remove this model's queued requests from this service, in queue
        order; a move admits them, still ``queued`` and under the same ids,
        on the tenant's next shard."""
        withdrawn = [request for request in self._queue
                     if request.model_name == model_name]
        self._queue = deque(request for request in self._queue
                            if request.model_name != model_name)
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
        if any(request.model_name == name for request in self._queue):
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
        proposer vouched for, and the precedents they won) dies; sibling
        tenants keep their hot caches.
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

    def drain(self, max_requests: Optional[int] = None) -> List[ServiceRequest]:
        """Drain (up to ``max_requests`` of) the queue to terminal statuses.

        The drain proceeds in bounded cycles: every coordinator transaction
        advances chain time one block, and a cycle's disputes must open while
        every task's challenge window is still live, so each cycle takes at
        most :meth:`_cycle_capacity` requests through submit -> verify ->
        dispute -> finalize before the next cycle starts.

        Returns the requests this drain took to a terminal status, after
        any that an earlier drain finished before it raised: a front end
        learns of its requests only from these returns.  Those
        include what that drain stranded; :meth:`_finalize_stranded` first
        finalizes the ones that were only waiting for their window.
        """
        unreported, self._unreported = self._unreported, []
        cycles = self._admit_cycles(max_requests)
        if not cycles and not unreported:
            return []
        started = now()
        processed: List[ServiceRequest] = []
        try:
            for cycle in cycles:
                processed.extend(self._run_cycle(cycle))
            self._finalize_stranded(unreported)
        except BaseException:
            # A stage failure must not strand the admitted-but-untouched
            # requests: every request that never produced a side effect
            # beyond pure compute goes back to the queue head (original
            # order), so a retry drain can still serve it.  The ones it
            # finished wait for the next drain's return.
            self._unreported = (unreported + processed
                                + self._requeue_unprocessed(cycles))
            raise
        self.stats_record.processing_time_s += now() - started
        return unreported + processed

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
                batch.append(self._queue.popleft())
            if not batch:
                break
            cycles.append(_CycleState(index=len(cycles), batch=batch))
            if remaining is not None:
                remaining -= len(batch)
        return cycles

    def _requeue_unprocessed(self, cycles: List[_CycleState]) -> List[ServiceRequest]:
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
        status histogram shows it, and the on-chain task remains PENDING.
        The next drain finalizes it if it was not bound for a dispute
        (:meth:`_finalize_stranded`); one that was stays stranded for an
        operator (or the liveness invariant sweep) to find.

        Returns the requests of unclosed cycles that are now terminal.
        """
        requeue: List[ServiceRequest] = []
        finished: List[ServiceRequest] = []
        counts = self.stats_record.status_counts
        for cycle in cycles:
            if cycle.closed:
                continue  # dispute stage finished: already counted
            for request in cycle.batch:
                if request.status == "queued" and request.report is None:
                    requeue.append(request)
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
                finished.append(request)
        self._queue.extendleft(reversed(requeue))
        return finished

    def _finalize_stranded(self, requests: List[ServiceRequest]) -> None:
        """Finalize the stranded requests that only missed their finalize step.

        A request stranded after it settled optimistically (it looked honest
        and was not forced) was never going to be disputed: once its
        challenge window has passed, ``try_finalize`` releases its fee and
        bond from escrow, and the request leaves the drain ``finalized``.
        A stranded request bound for a dispute stays ``stranded``.  The
        status histogram moves the request from ``stranded`` to its final
        status; ``requests_completed`` still counts drained requests only.
        """
        waiting = [request for request in requests
                   if request.status == "stranded"
                   and request.report.finalized_optimistically
                   and not request.report.challenged
                   and request.report.task.status is TaskStatus.PENDING]
        if not waiting:
            return
        chain = self.coordinator.chain
        if any(chain.timestamp < request.report.task.challenge_deadline
               for request in waiting):
            chain.advance_time(self.coordinator.challenge_window_s + 1.0)
        counts = self.stats_record.status_counts
        for request in waiting:
            task = request.report.task
            self.coordinator.try_finalize(task.task_id, caller=task.proposer)
            counts["stranded"] -= 1
            if not counts["stranded"]:
                del counts["stranded"]
            request.status = request.report.final_status
            request.error = None
            counts[request.status] = counts.get(request.status, 0) + 1

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

        The only stage that reads the per-model result caches and the only
        one that inserts into or reorders them (lookups, inserts and LRU
        eviction), so cache state advances in exact cycle order; the dispute
        stage only sets an entry's ``upheld`` flag.  A hit that will be
        disputed (:meth:`_goes_to_dispute`) gets its trace back from one
        re-trace per payload before anything reaches the chain; a flagged
        hit on an upheld entry is a precedent hit and needs none.
        """
        for model_name, requests in cycle.default_path.items():
            entry = self.model(model_name)
            misses: List[ServiceRequest] = []
            pending: Dict[bytes, List[ServiceRequest]] = {}
            retraced: Dict[bytes, CachedVerdict] = {}
            for request in requests:
                if request.status == "rejected":  # unhashable payload
                    continue
                key = cycle.input_hashes[request.request_id]
                cached = entry.result_cache.get(key)
                if cached is not None:
                    entry.result_cache.move_to_end(key)
                    if self._goes_to_dispute(request, cached):
                        if key not in retraced:
                            retraced[key] = self._retrace(entry, request, cached)
                        cached = retraced[key]
                    elif not cached.looks_honest:
                        self.stats_record.precedent_hits += 1
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
                finalized_optimistically=not self._goes_to_dispute(request, verdict),
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
            self._record_precedent(cycle, request)

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

        for request in cycle.batch:
            if request.report is not None:
                request.status = request.report.final_status
            self.stats_record.requests_completed += 1
            counts = self.stats_record.status_counts
            counts[request.status] = counts.get(request.status, 0) + 1
        self._release_traces(cycle)
        cycle.closed = True
        return cycle.batch

    @staticmethod
    def _goes_to_dispute(request: ServiceRequest, verdict: CachedVerdict) -> bool:
        """Whether a request's verdict sends it to dispute.

        Forced requests always go; flagged ones go unless their verdict is
        an upheld precedent, which only default-path requests (standing
        proposer, standing challenger) may follow.
        """
        if request.force_challenge:
            return True
        if verdict.looks_honest:
            return False
        return not (verdict.upheld and request.proposer is None
                    and request.challenger is None)

    def _record_precedent(self, cycle: _CycleState, request: ServiceRequest) -> None:
        """Mark the cache entry a lost default-path false alarm was fought over.

        Only an unforced dispute between the standing proposer and a clone
        of the standing challenger that upheld the proposer sets it, and
        only while the entry still holds the disputed commitment.
        """
        report = request.report
        if (request.proposer is not None or request.challenger is not None
                or request.force_challenge or report.dispute.proposer_cheated):
            return
        entry = self.model(request.model_name)
        cached = entry.result_cache.get(cycle.input_hashes[request.request_id])
        if cached is not None and \
                cached.result.commitment.value == report.result.commitment.value:
            cached.upheld = True

    @staticmethod
    def _release_traces(cycle: _CycleState) -> None:
        """Drop the cycle's recorded traces: every request is terminal, so no
        dispute can ask for an intermediate tensor again.  Reports keep a
        receipt (no trace, no payload), in place, since callers hold the
        request records."""
        for request in cycle.batch:
            if request.report is not None:
                request.report.result = request.report.result.receipt()
        cycle.verdicts.clear()
        cycle.actives.clear()

    # -- execution internals ---------------------------------------------

    @staticmethod
    def _reject(request: ServiceRequest, error: Optional[str]) -> None:
        """Mark a request as rejected (terminal) without touching the chain."""
        request.status = "rejected"
        request.error = error or "execution failed"

    def _cache_store(self, entry: ModelEntry, key: bytes,
                     verdict: CachedVerdict) -> None:
        """The single insert path of the result cache: store + LRU-evict.

        The entry keeps the verdict with a receipt of its result (no
        recorded trace or payload; a disputed hit is re-traced by
        :meth:`_retrace`).
        Every insert runs eviction, so the bound holds after *every* insert,
        on every path — the invariant ``len(result_cache) <=
        result_cache_size`` is pinned by a mixed-traffic regression test.
        """
        entry.result_cache[key] = CachedVerdict(
            result=verdict.result.receipt(), looks_honest=verdict.looks_honest,
            reports=verdict.reports)
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

    def _retrace(self, entry: ModelEntry, request: ServiceRequest,
                 cached: CachedVerdict) -> CachedVerdict:
        """A cached verdict with its trace recomputed, for a disputed hit.

        The standing proposer traces the payload again; its outputs must
        equal the receipt's committed outputs bit for bit, or the dispute
        would run over a trace the chain never committed to.  The result
        takes back the request's payload, whose hash the receipt committed.
        """
        receipt = cached.result
        trace = entry.proposer.trace(entry.session.graph_module, request.inputs)
        same = len(trace.outputs) == len(receipt.outputs) and all(
            got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes()
            for got, want in zip(trace.outputs, receipt.outputs))
        if not same:
            raise RuntimeError(
                f"re-trace of a cached {entry.name!r} result on "
                f"{entry.proposer.device.name!r} does not reproduce its "
                "committed outputs")
        return replace(cached, result=replace(receipt, inputs=dict(request.inputs),
                                              trace_values=dict(trace.values)))

    def _challenger_clone(self, entry: ModelEntry) -> Challenger:
        """A fresh challenger for one dispute: the dispute's bonded account.

        Each dispute posts its challenger bond from its own funded account,
        so one game's bond, reward or slash never touches another's
        balance.  Clones share the device, thresholds and hash cache of the
        model's standing challenger, so selection behaviour is identical.
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
