"""Measurement loop, counters and spans of the repository benchmark.

Imported by ``run.py`` once ``src`` is on the path; see that file for the
protocol of a run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.protocol.service import TAOService
from repro.utils.serialization import canonical_bytes
from workloads import WORKLOADS, Phases, expected_ok, tier_chain, top_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
VERDICTS = ("finalized", "proposer_slashed", "challenger_slashed")

#: Per-layer values that must repeat exactly for a seed.  The rest are times,
#: and ``fleet.journal_bytes_per_req``: journaled command values carry
#: wall-clock floats (stats, dispute times) whose encoded length varies.
EXACT_LAYER = (
    "service.cache_hit_share", "engine.batched_share", "merkle.tensor_hit_share",
    "dispute.merkle_checks_per_dispute", "challenger.false_alarm_share",
    "dispute.disputes_per_req", "dispute.rounds_per_dispute", "dispute.timeout_share",
    "dispute.gas_per_dispute", "dispute.dcr_mflops_per_dispute",
    "adjudication.committee_share", "adjudication.localized_share", "chain.tx_per_req",
    "fleet.submit_payload_bytes_per_req", "fleet.journal_chain_entries_per_req",
    "fleet.journal_commands_per_req", "fleet.journal_spec_entries_per_req",
    "verdict.failed_share",
)


class Spans:
    """In-memory spans: name, start, end, parent span, request id, counters."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: List[Dict[str, object]] = []

    def start(self, name: str, parent: Optional[int] = None) -> Optional[int]:
        if not self.enabled:
            return None
        self.rows.append({"name": name, "start": time.perf_counter(), "end": None,
                          "parent": parent, "request": None})
        return len(self.rows) - 1

    def end(self, span: Optional[int], **fields) -> None:
        if span is not None:
            self.rows[span]["end"] = time.perf_counter()
            self.rows[span].update(fields)

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        if self.enabled:
            self.rows.append({"name": name, "start": start, "end": end,
                              "parent": parent, "request": None})


def peak_rss_kb(tier) -> int:
    """Peak RSS of this process plus every live fleet worker's ``VmHWM``."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for handle in getattr(tier, "workers", {}).values():
        if not handle.process.is_alive():
            continue
        with open(f"/proc/{handle.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total


def counters(tier) -> Dict[str, float]:
    """Cumulative counters the tier exposes (read between bursts)."""
    stats = tier.stats()
    out = {"cache_hits": stats.cache_hits, "batched": stats.batched_requests,
           "busy_cpu_s": stats.busy_cpu_s, "chain_tx": len(tier_chain(tier).transactions)}
    for stage, busy in stats.stage_busy_s.items():
        out[f"stage.{stage}"] = busy
    if isinstance(tier, ProcessFleet):
        journals = tier.journals.values()
        out["journal_bytes"] = sum(journal.size_bytes() for journal in journals)
        out["journal_chain"] = sum(journal.chain_entry_count for journal in journals)
        out["journal_commands"] = sum(journal.command_count for journal in journals)
        out["journal_spec"] = sum(journal.spec_entry_count for journal in journals)
    else:
        cache = tier.hash_cache.stats()
        out["hash_hits"], out["hash_misses"] = cache["tensor_hits"], cache["tensor_misses"]
    if isinstance(tier, TAOCluster):
        for shard_id, shard in tier.shards.items():
            out[f"shard.{shard_id}"] = shard.busy_s
    return out


def pipeline_services(tier) -> list:
    if isinstance(tier, TAOService):
        return [tier]
    if isinstance(tier, TAOCluster):
        return [shard.service for _, shard in sorted(tier.shards.items())]
    return []


def code_key() -> str:
    """Digest of the program and benchmark sources (keys the exact store)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(workload: str, seed: int, exact: Dict[str, object]) -> List[str]:
    """Compare exact values with earlier runs of this code and seed; store them."""
    store = OUT / "exact" / f"{code_key()}-{workload}-{seed}.json"
    earlier: Dict[str, object] = {}
    if store.exists():
        earlier = json.loads(store.read_text())
    differing = sorted(key for key in exact if key in earlier and earlier[key] != exact[key])
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({**earlier, **exact}, sort_keys=True))
    return differing


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def run(name: str, seed: int, seconds: float, trace: bool,
        window_bursts: Optional[int] = None, setups: Optional[int] = None) -> Dict[str, object]:
    workload = WORKLOADS[name](seed)
    window = workload.window_bursts if window_bursts is None else window_bursts
    spans = Spans(trace)

    # -- set-up, repeated: construct -> first accepted request ------------
    setup_times: List[float] = []
    phase_totals: List[Dict[str, float]] = []
    tier = tenants = warm = None
    for _ in range(workload.setups if setups is None else setups):
        if tier is not None:
            tier.close()
            tier = None
            gc.collect()
        phases = Phases()
        setup_span = spans.start("setup")
        started = time.perf_counter()
        tenants = workload.tenants(phases)
        with phases("tier.construct_s"):
            tier = workload.make_tier()
        with phases("protocol.register_s"):
            for _, tenant in sorted(tenants.items()):
                tier.register_model(tenant.graph, threshold_table=tenant.thresholds,
                                    committee_envelope=tenant.envelope)
        warm = workload.jobs(tenants, -1)
        top_up(tier)
        workload.submit(tier, warm[0], {})
        setup_times.append(time.perf_counter() - started)
        spans.end(setup_span)
        for phase, phase_start, phase_end in phases.rows:
            spans.add(phase, phase_start, phase_end, setup_span)
        phase_totals.append(phases.totals())

    try:
        for job in warm[1:]:
            workload.submit(tier, job, {})
        tier.process()
        gc.collect()
        return _measure(workload, tier, tenants, len(warm), seconds, window, spans,
                        setup_times, phase_totals)
    finally:
        tier.close()


def _measure(workload, tier, tenants, warmed, seconds, window, spans, setup_times,
             phase_totals):
    chain = tier_chain(tier)
    services = pipeline_services(tier) if spans.enabled else []
    seen_pipeline = {id(svc): svc.last_pipeline_stats for svc in services}
    pipe = {"starved": 0.0, "backpressure": 0.0, "lane": 0.0, "busy": 0.0, "critical": 0.0}
    rss_start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gas_start = chain.total_gas()
    gas_window = peak_kb = None
    previous = counters(tier) if spans.enabled else None
    window_deltas: List[Dict[str, float]] = []
    latencies: List[float] = []
    submit_s: List[float] = []
    process_s: List[float] = []
    parent_cpu = busy_wall = 0.0
    rows: List[str] = []
    window_jobs = []
    attempted = terminal = errors = wrong = 0
    bursts = 0
    started = time.perf_counter()
    while bursts < window or time.perf_counter() - started < seconds:
        in_window = bursts < window
        jobs = workload.jobs(tenants, bursts)
        top_up(tier)
        actors = [workload.prepare(tier, job, attempted + slot)
                  for slot, job in enumerate(jobs)]
        burst_span = spans.start("burst")
        cpu_start = time.process_time()
        burst_start = time.perf_counter()
        ids, submitted = [], []
        for job, actor in zip(jobs, actors):
            span = spans.start("submit", burst_span)
            sent = time.perf_counter()
            request_id = workload.submit(tier, job, actor)
            if in_window:
                submit_s.append(time.perf_counter() - sent)
            spans.end(span, request=request_id)
            ids.append(request_id)
            submitted.append(sent)
        span = spans.start("process", burst_span)
        process_start = time.perf_counter()
        tier.process()
        done = time.perf_counter()
        busy_wall += done - burst_start
        if in_window:
            parent_cpu += time.process_time() - cpu_start
            process_s.append(done - process_start)
        latencies.extend(done - sent for sent in submitted)
        delta = None
        if spans.enabled:
            current = counters(tier)
            delta = {key: value - previous.get(key, 0) for key, value in current.items()}
            previous = current
            for svc in services:
                stats = svc.last_pipeline_stats
                if stats is not None and stats is not seen_pipeline[id(svc)] and in_window:
                    pipe["starved"] += sum(stage.get_wait_s for stage in stats.stages)
                    pipe["backpressure"] += stats.admission_wait_s + sum(
                        stage.put_wait_s for stage in stats.stages)
                    pipe["lane"] += sum(stage.lane_wait_s for stage in stats.stages)
                    pipe["busy"] += stats.busy_total_s
                    pipe["critical"] += stats.critical_path_s
                seen_pipeline[id(svc)] = stats
        spans.end(span, counters=delta)
        spans.end(burst_span)

        for job, request_id in zip(jobs, ids):
            request = tier.request(request_id)
            attempted += 1
            verdict_ok = request.status in VERDICTS
            terminal += verdict_ok
            errors += not verdict_ok
            correct = verdict_ok and expected_ok(job, request)
            wrong += verdict_ok and not correct
            if in_window:
                window_jobs.append((job, request, correct))
                rows.append(_fingerprint_row(request))
        if in_window:
            window_deltas.append(delta)
        bursts += 1
        if bursts == window:
            gas_window = chain.total_gas() - gas_start
            peak_kb = peak_rss_kb(tier)
    elapsed = time.perf_counter() - started

    conserved = sum(sorted(chain.balances.values())) == chain.minted
    n = len(window_jobs)
    window_ok = sum(correct for _, _, correct in window_jobs)
    fingerprint = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "verdict_ok_share": window_ok / n,
        "gas_per_request": gas_window / n,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    # What the client sees of speed: reported, never gated (see README).
    client = {"verified_rps": terminal / busy_wall}
    for percentile in (50, 95, 99):
        client[f"latency_p{percentile}_ms"] = float(np.percentile(latencies, percentile)) * 1e3
    result = {
        "workload": workload.name, "seed": workload.seed, "attempted": attempted,
        "errors": errors, "wrong": wrong, "window": n, "bursts": bursts,
        "elapsed_s": elapsed, "samples": len(latencies), "conserved": conserved,
        "fingerprint": fingerprint, "end_to_end": end_to_end, "client": client,
        "exact": {"fingerprint": fingerprint,
                  "verdict_ok_share": end_to_end["verdict_ok_share"],
                  "gas_per_request": end_to_end["gas_per_request"]},
    }
    if spans.enabled:
        retained = sum(tier.request(request_id).report is not None
                       for request_id in range(warmed + attempted))
        layer = _per_layer(window_jobs, window_deltas, submit_s, process_s,
                           pipe, phase_totals, parent_cpu,
                           isinstance(tier, ProcessFleet), isinstance(tier, TAOCluster))
        layer.update({
            "service.retained_requests": float(retained),
            "service.rss_growth_kb_per_req":
                (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_start) / attempted,
            "service.latency_samples": float(len(latencies)),
            **client,
            "chain.tx_per_req": _per(sum(d["chain_tx"] for d in window_deltas), n),
        })
        result["per_layer"] = layer
        result["exact"].update({key: layer[key] for key in EXACT_LAYER})
        result["spans"] = spans.rows
    return result


def _fingerprint_row(request) -> str:
    report = request.report
    if report is None:
        return f"{request.status}|-"
    dispute = report.dispute
    tail = "-" if dispute is None else (
        f"{dispute.statistics.rounds}|{dispute.statistics.gas_used}|"
        f"{dispute.localized_operator}|{dispute.resolved_by_timeout}")
    return f"{request.status}|{report.result.commitment.value.hex()}|{tail}"


def _per_layer(window_jobs, deltas, submit_s, process_s, pipe,
               phase_totals, parent_cpu, is_fleet, is_cluster):
    n = len(window_jobs)
    total = {}
    for delta in deltas:
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value
    setup = {key: statistics.median(totals.get(key, 0.0) for totals in phase_totals)
             for key in ("graph.trace_s", "calibration.thresholds_s",
                         "calibration.envelope_s", "protocol.register_s",
                         "tier.construct_s")}
    disputes = [request.report.dispute for _, request, _ in window_jobs
                if request.report is not None and request.report.dispute is not None]
    stats = [dispute.statistics for dispute in disputes]
    rounds = sum(s.rounds for s in stats)
    honest = [request for job, request, _ in window_jobs if job.kind == "honest"]
    hashed = total.get("hash_hits", 0) + total.get("hash_misses", 0)
    shard_totals = {key: value for key, value in total.items() if key.startswith("shard.")}
    shard_max = [max((v for k, v in delta.items() if k.startswith("shard.")), default=0.0)
                 for delta in deltas]
    layer = {
        "graph.trace_s": setup["graph.trace_s"],
        "calibration.thresholds_s": setup["calibration.thresholds_s"],
        "calibration.envelope_s": setup["calibration.envelope_s"],
        "protocol.register_s": setup["protocol.register_s"],
        "fleet.spawn_s": setup["tier.construct_s"] if is_fleet else 0.0,
        "service.submit_us_per_req": statistics.fmean(submit_s) * 1e6,
        "service.process_ms_per_burst": statistics.fmean(process_s) * 1e3,
        "service.cache_hit_share": _per(total["cache_hits"], n),
        "pipeline.starved_ms_per_req": _per(pipe["starved"], n) * 1e3,
        "pipeline.backpressure_ms_per_req": _per(pipe["backpressure"], n) * 1e3,
        "pipeline.lane_wait_ms_per_req": _per(pipe["lane"], n) * 1e3,
        "pipeline.overlap_speedup": pipe["busy"] / pipe["critical"] if pipe["critical"] else 1.0,
        "engine.batched_share": _per(total["batched"], n),
        "merkle.tensor_hit_share": _per(total.get("hash_hits", 0), hashed),
        "dispute.merkle_checks_per_dispute": _per(sum(s.merkle_checks for s in stats), len(stats)),
        "challenger.false_alarm_share":
            _per(sum(request.report is not None and request.report.challenged
                     for request in honest), len(honest)),
        "dispute.disputes_per_req": _per(len(stats), n),
        "dispute.rounds_per_dispute": _per(rounds, len(stats)),
        "dispute.time_ms_per_dispute":
            _per(sum(s.dispute_time_s for s in stats), len(stats)) * 1e3,
        "dispute.partition_ms_per_round": _per(sum(r.partition_time_s for s in stats
                                                   for r in s.per_round), rounds) * 1e3,
        "dispute.selection_ms_per_round": _per(sum(r.selection_time_s for s in stats
                                                   for r in s.per_round), rounds) * 1e3,
        "dispute.timeout_share": _per(sum(d.resolved_by_timeout for d in disputes), len(disputes)),
        "dispute.gas_per_dispute": _per(sum(s.gas_used for s in stats), len(stats)),
        "dispute.dcr_mflops_per_dispute": _per(sum(s.dcr_flops for s in stats), len(stats)) / 1e6,
        "adjudication.committee_share": _per(sum(
            d.adjudication is not None and d.adjudication.path == "committee_vote"
            for d in disputes), len(disputes)),
        "adjudication.localized_share": _per(sum(
            d.localized_operator is not None for d in disputes), len(disputes)),
        "verdict.failed_share": _per(sum(not correct for _, _, correct in window_jobs), n),
    }
    for stage in ("hash", "execute", "settle", "dispute"):
        layer[f"service.{stage}_busy_ms_per_req"] = _per(total.get(f"stage.{stage}", 0.0), n) * 1e3
    fleet = {key: 0.0 for key in (
        "fleet.submit_ms_per_req", "fleet.process_ms_per_burst", "fleet.parent_cpu_ms_per_req",
        "fleet.worker_busy_ms_per_req", "fleet.submit_payload_bytes_per_req",
        "fleet.journal_bytes_per_req", "fleet.journal_chain_entries_per_req",
        "fleet.journal_commands_per_req", "fleet.journal_spec_entries_per_req")}
    if is_fleet:
        frames = [len(canonical_bytes({
            "op": "submit", "model": job.tenant, "inputs": job.inputs, "proposer": None,
            "challenger": None, "force_challenge": job.kind == "force"}))
            for job, _, _ in window_jobs]
        fleet.update({
            "fleet.submit_ms_per_req": layer["service.submit_us_per_req"] / 1e3,
            "fleet.process_ms_per_burst": layer["service.process_ms_per_burst"],
            "fleet.parent_cpu_ms_per_req": _per(parent_cpu, n) * 1e3,
            "fleet.worker_busy_ms_per_req": _per(total["busy_cpu_s"], n) * 1e3,
            "fleet.submit_payload_bytes_per_req": _per(sum(frames), n),
            "fleet.journal_bytes_per_req": _per(total["journal_bytes"], n),
            "fleet.journal_chain_entries_per_req": _per(total["journal_chain"], n),
            "fleet.journal_commands_per_req": _per(total["journal_commands"], n),
            "fleet.journal_spec_entries_per_req": _per(total["journal_spec"], n),
        })
    layer.update(fleet)
    layer["cluster.shard_busy_max_ms_per_burst"] = \
        statistics.fmean(shard_max) * 1e3 if is_cluster else 0.0
    layer["cluster.shard_busy_imbalance"] = (
        max(shard_totals.values()) / statistics.fmean(shard_totals.values())
        if is_cluster and any(shard_totals.values()) else 0.0)
    return layer


def report(result: Dict[str, object], metrics: Dict[str, float], units: Dict[str, str],
           differing: List[str]) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']}: "
          f"{result['attempted']} requests in {result['bursts']} bursts, "
          f"{result['elapsed_s']:.2f} s; exact window {result['window']} requests; "
          f"latency samples {result['samples']}; errors {result['errors']}; "
          f"wrong verdicts {result['wrong']}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(f"  verdict fingerprint {result['fingerprint']}")
    if not result["conserved"]:
        print("  FLAG: sum(balances) != minted")
    if differing:
        print(f"  FLAG: exact values differ from an earlier run of this seed: {differing}")
