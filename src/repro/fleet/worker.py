"""Worker processes: the one child loop and the one parent-side lifecycle.

Every worker process in the repo — the fleet's shard workers and the
campaign's scenario workers — runs :func:`serve`, and every parent starts
and stops one with :func:`start_worker` / :func:`stop_worker`.  The loop is
a plain module-level function with zero import-time side effects, so the
module is importable under the ``spawn`` start method (where the child
re-imports it fresh) exactly as under ``fork``.

Boot protocol: the first message on the channel is the parent's hello.  The
child builds its *state* object from it (the class rides in the ``Process``
args), acknowledges with a ``{"kind": "response"}`` boot reply, and enters
the request loop: each ``{"op": name}`` message is dispatched to the state's
``op_<name>`` method and answered by one ``{"kind": "response"}`` — until
``shutdown`` or EOF.

:class:`ShardWorker` is the fleet's state: one full TAOService behind the
RPC transport.  Its hello carries the shard id, block interval, service
constructor knobs and the dotted path of the actor-spec module; it builds
a :class:`~repro.protocol.chain.ShardChainView` over a
:class:`~repro.fleet.chainproxy.RemoteLedger` →
:class:`~repro.protocol.coordinator.Coordinator` →
:class:`~repro.protocol.service.TAOService` — the same view an in-process
shard settles on, over a ledger that lives in the parent.  In between an op
and its response, chain settlement flows *backwards* over the same channel
as ``chain_call`` messages (the parent serves them inline while waiting for
the response, so one channel carries the whole nested conversation
deterministically).

Every reply carries plain codec values; the structured report/coordinator
payloads built here are re-materialized parent-side by
:mod:`repro.fleet.fleet` into snapshot objects the invariant checker and the
simulation runner can walk exactly as they walk in-process coordinators.
"""

from __future__ import annotations

import importlib
import socket
from typing import Any, Callable, Dict, Optional, Tuple

from repro.calibration.committee import CommitteeEnvelopeProfile
from repro.calibration.thresholds import ThresholdTable
from repro.fleet.chainproxy import RemoteLedger
from repro.fleet.transport import MessageChannel, TransportClosed, channel_pair
from repro.fleet.wire import graph_from_payload
from repro.protocol.chain import ShardChainView
from repro.protocol.coordinator import Coordinator
from repro.protocol.service import ServiceRequest, TAOService


class WorkerError(RuntimeError):
    """An error raised inside a worker process, re-surfaced by the parent."""


def _report_payload(request: ServiceRequest) -> Optional[Dict[str, Any]]:
    report = request.report
    if report is None:
        return None
    dispute = None
    if report.dispute is not None:
        outcome = report.dispute
        statistics = outcome.statistics
        dispute = {
            "dispute_id": int(outcome.dispute_id),
            "task_id": int(outcome.task_id),
            "proposer_cheated": bool(outcome.proposer_cheated),
            "winner": outcome.winner,
            "localized_operator": outcome.localized_operator,
            "resolved_by_timeout": bool(outcome.resolved_by_timeout),
            "statistics": {
                "rounds": int(statistics.rounds),
                "dispute_time_s": float(statistics.dispute_time_s),
                "merkle_checks": int(statistics.merkle_checks),
                "challenger_flops": float(statistics.challenger_flops),
                "adjudication_flops": float(statistics.adjudication_flops),
                "gas_used": int(statistics.gas_used),
            },
        }
    commitment = report.result.commitment
    return {
        "task_id": int(report.task.task_id),
        "proposer": report.task.proposer,
        "challenged": bool(report.challenged),
        "finalized_optimistically": bool(report.finalized_optimistically),
        "commitment": {
            "value": bytes(commitment.value),
            "input_hash": bytes(commitment.input_hash),
            "output_hash": bytes(commitment.output_hash),
            "meta": dict(commitment.meta),
        },
        "verification": [bool(r.exceeded) for r in report.verification_reports],
        "dispute": dispute,
    }


def _request_payload(request: ServiceRequest) -> Dict[str, Any]:
    return {
        "local_id": int(request.request_id),
        "status": request.status,
        "error": request.error,
        "cache_hit": bool(request.cache_hit),
        "report": _report_payload(request),
    }


def _coordinator_payload(coordinator: Coordinator) -> Dict[str, Any]:
    tasks = []
    for task in coordinator.tasks.values():
        tasks.append({
            "task_id": int(task.task_id),
            "model_name": task.model_name,
            "status": task.status.value,
            "dispute_id": None if task.dispute_id is None else int(task.dispute_id),
        })
    disputes = []
    for dispute in coordinator.disputes.values():
        disputes.append({
            "dispute_id": int(dispute.dispute_id),
            "task_id": int(dispute.task_id),
            "phase": dispute.phase.value,
            "adjudication_path": dispute.adjudication_path,
            "gas_used": int(coordinator.dispute_gas(dispute.dispute_id)),
        })
    return {"tasks": tasks, "disputes": disputes}


class ShardWorker:
    """A fleet shard's per-process stack plus the op handlers over it."""

    def __init__(self, channel: MessageChannel, hello: Dict[str, Any]) -> None:
        self.channel = channel
        self.ledger = RemoteLedger(
            channel, block_interval_s=hello.get("block_interval_s", 12.0))
        self.chain = ShardChainView(self.ledger, hello["shard_id"])
        self.coordinator = Coordinator(chain=self.chain)
        # Write-ahead journal: ship every (state, event) transition record
        # to the parent as a one-way frame.  The coordinator emits it before
        # the transition's first chain call, and the channel is FIFO, so the
        # parent always journals the transition before applying any of its
        # chain mutations.
        self.coordinator.journal = self._emit_journal
        self.service = TAOService(coordinator=self.coordinator,
                                  **hello["service"])
        self.actors = importlib.import_module(hello["actor_module"])

    def _emit_journal(self, entry: Dict[str, Any]) -> None:
        # Stamp the transition with the sequence id of its first upcoming
        # chain call.  A recovered worker re-traverses the interrupted
        # command deterministically and re-emits the same records with the
        # same stamps, so the parent journal can drop the duplicates while
        # still catching any divergence.
        entry = dict(entry)
        entry["chain_seq"] = self.ledger.next_seq
        self.channel.send({"kind": "journal", "entry": entry})

    # -- op handlers -----------------------------------------------------

    def op_register(self, message: Dict[str, Any]) -> Dict[str, Any]:
        graph_module = graph_from_payload(message["graph"])
        thresholds = ThresholdTable.from_dict(message["thresholds"])
        session_kwargs: Dict[str, Any] = {}
        if message.get("committee_envelope") is not None:
            session_kwargs["committee_envelope"] = \
                CommitteeEnvelopeProfile.from_dict(message["committee_envelope"])
        if message.get("colluding_majority") is not None:
            session_kwargs["committee_factory"] = \
                self.actors.build_committee_factory(int(message["colluding_majority"]))
        session = self.service.register_model(
            graph_module,
            threshold_table=thresholds,
            fund_accounts=bool(message.get("fund_accounts", True)),
            **session_kwargs,
        )
        entry = self.service.model(graph_module.name)
        entry.challenger_clones = int(message.get("challenger_clones", 0))
        return {"digest": session.model_commitment.digest()}

    def op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        model_name = message["model"]
        proposer = challenger = None
        if message.get("proposer") is not None:
            session = self.service.model(model_name).session
            proposer = self.actors.build_proposer(
                self.service, model_name, message["proposer"],
                session.thresholds)
        if message.get("challenger") is not None:
            challenger = self.actors.build_challenger(self.service, model_name,
                                                      message["challenger"])
        local_id = self.service.submit(
            model_name, message["inputs"], proposer=proposer,
            force_challenge=bool(message.get("force_challenge", False)),
            challenger=challenger,
        )
        return {"local_id": int(local_id)}

    def op_process(self, message: Dict[str, Any]) -> Dict[str, Any]:
        max_requests = message.get("max_requests")
        processed = self.service.process(
            max_requests=None if max_requests is None else int(max_requests))
        return {
            "results": [_request_payload(request) for request in processed],
            "stats": self.service.stats().to_payload(),
            "coordinator": _coordinator_payload(self.coordinator),
            "clones": [[name, int(self.service.model(name).challenger_clones)]
                       for name in self.service.model_names],
        }

    def op_withdraw(self, message: Dict[str, Any]) -> Dict[str, Any]:
        withdrawn = self.service.withdraw_queued(message["model"])
        return {"local_ids": [int(request.request_id) for request in withdrawn]}

    def op_detach(self, message: Dict[str, Any]) -> Dict[str, Any]:
        entry = self.service.detach_model(message["model"])
        return {"challenger_clones": int(entry.challenger_clones)}

    def op_quarantine(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.service.quarantine_model(message["model"])
        return {}

    def op_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"stats": self.service.stats().to_payload(),
                "coordinator": _coordinator_payload(self.coordinator)}

    def op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"shard_id": self.chain.shard_id}

    def op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.service.close()
        return {}


def _failure(exc: BaseException) -> Dict[str, Any]:
    return {"kind": "response", "ok": False,
            "error": f"{type(exc).__name__}: {exc}"}


def serve(child_socket: socket.socket,
          state_class: Callable[[MessageChannel, Dict[str, Any]], Any]) -> None:
    """Run one worker over ``child_socket`` until shutdown or EOF.

    ``state_class(channel, hello)`` builds the worker's state from the hello;
    its ``op_<name>`` methods answer the ops.  Handler errors are reported
    to the parent and the loop keeps serving.
    """
    channel = MessageChannel(child_socket)
    try:
        hello = channel.recv()
        try:
            state = state_class(channel, hello)
        except Exception as exc:  # noqa: BLE001 - boot errors go to the parent
            channel.send(_failure(exc))
            return
        channel.send({"kind": "response", "ok": True, "value": {}})
        while True:
            message = channel.recv()
            op = message.get("op")
            try:
                handler = getattr(state, f"op_{op}", None)
                if handler is None:
                    raise ValueError(f"unknown op {op!r}")
                reply = {"kind": "response", "ok": True,
                         "value": handler(message)}
            except TransportClosed:
                raise
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                reply = _failure(exc)
            channel.send(reply)
            if op == "shutdown" and reply["ok"]:
                break
    except TransportClosed:
        pass
    finally:
        channel.close()


def start_worker(context: Any, state_class: type, hello: Dict[str, Any],
                 name: str, deadline_s: Optional[float] = None,
                 ) -> Tuple[Any, MessageChannel]:
    """Spawn a worker serving ``state_class``, send ``hello``, await its boot.

    Returns the started process and the parent's channel to it;
    ``deadline_s`` bounds every parent-side channel operation.  A worker
    that fails to boot is stopped and its error raised as
    :class:`WorkerError`.
    """
    channel, child_sock = channel_pair(deadline_s=deadline_s)
    process = context.Process(target=serve, args=(child_sock, state_class),
                              name=name, daemon=True)
    process.start()
    child_sock.close()  # the child holds its own copy now
    try:
        channel.send(hello)
        reply = channel.recv()
    except TransportClosed:
        stop_worker(process, channel)
        raise
    if not reply.get("ok"):
        stop_worker(process, channel)
        raise WorkerError(f"[{name}] failed to boot: {reply.get('error')}")
    return process, channel


def stop_worker(process: Any, channel: MessageChannel,
                join_s: float = 1.0) -> None:
    """Close the channel, join the process and kill it if it is wedged."""
    channel.close()
    process.join(timeout=join_s)
    if process.is_alive():
        # Hung-but-alive: the worker holds its socket open but will never
        # answer.  Kill it so a wedged child cannot outlive its parent's use.
        process.kill()
        process.join(timeout=join_s)
