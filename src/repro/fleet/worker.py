"""The shard worker process: one full TAOService behind the RPC transport.

:func:`worker_main` is the process entry point.  It is deliberately a plain
module-level function with zero import-time side effects, so the module is
importable under the ``spawn`` start method (where the child re-imports it
fresh) exactly as under ``fork``.

Boot protocol: the first message on the channel is the parent's hello/config
(shard id, block interval, service constructor knobs, the dotted path of the
actor-spec module).  The worker builds its stack —
:class:`~repro.fleet.chainproxy.ChainClient` →
:class:`~repro.protocol.coordinator.Coordinator` →
:class:`~repro.protocol.service.TAOService` — acknowledges, and enters the
request loop.  Each request is one ``{"op": ...}`` message answered by one
``{"kind": "response"}``; in between, chain settlement flows *backwards*
over the same channel as ``chain_call`` messages (the parent serves them
inline while waiting for the response, so one channel carries the whole
nested conversation deterministically).

Every reply carries plain codec values; the structured report/coordinator
payloads built here are re-materialized parent-side by
:mod:`repro.fleet.fleet` into snapshot objects the invariant checker and the
simulation runner can walk exactly as they walk in-process coordinators.
"""

from __future__ import annotations

import importlib
import socket
from typing import Any, Dict, Optional

from repro.calibration.committee import CommitteeEnvelopeProfile
from repro.calibration.thresholds import ThresholdTable
from repro.fleet.chainproxy import ChainClient
from repro.fleet.transport import MessageChannel, TransportClosed
from repro.fleet.wire import graph_from_payload
from repro.protocol.coordinator import Coordinator
from repro.protocol.service import ServiceRequest, TAOService

#: TAOService constructor knobs the hello message may carry.
_SERVICE_KNOBS = (
    "max_batch", "enable_batching", "enable_result_cache", "result_cache_size",
    "alpha", "n_way", "committee_size", "leaf_path", "cycle_capacity",
)


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
        "batched": bool(request.batched),
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


class _WorkerState:
    """The per-process stack plus the op handlers over it."""

    def __init__(self, channel: MessageChannel, hello: Dict[str, Any]) -> None:
        self.channel = channel
        self.chain = ChainClient(channel, hello["shard_id"],
                                 block_interval_s=hello.get("block_interval_s", 12.0))
        self.coordinator = Coordinator(chain=self.chain)
        # Write-ahead journal: ship every (state, event) transition record
        # to the parent as a one-way frame.  The coordinator emits it before
        # the transition's first chain call, and the channel is FIFO, so the
        # parent always journals the transition before applying any of its
        # chain mutations.
        self.coordinator.journal = self._emit_journal
        knobs = {key: hello["service"][key]
                 for key in _SERVICE_KNOBS if key in hello["service"]}
        if knobs.get("cycle_capacity") is not None:
            knobs["cycle_capacity"] = int(knobs["cycle_capacity"])
        self.service = TAOService(coordinator=self.coordinator, **knobs)
        self.actors = importlib.import_module(hello["actor_module"])

    def _emit_journal(self, entry: Dict[str, Any]) -> None:
        # Stamp the transition with the sequence id of its first upcoming
        # chain call.  A recovered worker re-traverses the interrupted
        # command deterministically and re-emits the same records with the
        # same stamps, so the parent journal can drop the duplicates while
        # still catching any divergence.
        entry = dict(entry)
        entry["chain_seq"] = self.chain.next_seq
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
            proposer = self.actors.build_proposer(self.service, model_name,
                                                  message["proposer"])
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

    def op_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"stats": self.service.stats().to_payload(),
                "coordinator": _coordinator_payload(self.coordinator)}

    def op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"shard_id": self.chain.shard_id}

    def op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.service.close()
        return {}


def worker_main(child_socket: socket.socket) -> None:
    """Run one shard worker over ``child_socket`` until shutdown or EOF."""
    channel = MessageChannel(child_socket)
    try:
        hello = channel.recv()
    except TransportClosed:
        channel.close()
        return
    try:
        state = _WorkerState(channel, hello)
    except Exception as exc:  # noqa: BLE001 - boot errors go to the parent
        try:
            channel.send({"kind": "response", "ok": False,
                          "error": f"{type(exc).__name__}: {exc}"})
        except TransportClosed:
            pass
        channel.close()
        return
    channel.send({"kind": "response", "ok": True,
                  "value": {"shard_id": state.chain.shard_id}})

    try:
        while True:
            try:
                message = channel.recv()
            except TransportClosed:
                break
            op = message.get("op")
            handler = getattr(state, f"op_{op}", None)
            if handler is None:
                channel.send({"kind": "response", "ok": False,
                              "error": f"unknown op {op!r}"})
                continue
            try:
                value = handler(message)
            except TransportClosed:
                break
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                channel.send({"kind": "response", "ok": False,
                              "error": f"{type(exc).__name__}: {exc}"})
                continue
            channel.send({"kind": "response", "ok": True, "value": value})
            if op == "shutdown":
                break
    finally:
        channel.close()
