"""Adaptive campaign sweep: boundary estimates, stake games, throughput.

This benchmark runs the long-horizon adaptive adversary
(:mod:`repro.sim.adversary`) through the campaign driver
(:mod:`repro.sim.campaign`) and reports the paper's long-run questions as
one artifact, ``benchmarks/results/adaptive_campaign.md``:

* **detection boundary** — where the seeded stochastic bisection pinned
  each annealed fault kind's catch/escape boundary, against the initial
  bracket it started from;
* **economics series** — the per-cycle EV readings (fault rate, cheat vs
  honest EV, live stakes, subsidies) of a campaign opened in the
  weak-challenger regime;
* **collusion stake trajectories** — the colluding committee's per-seat
  stakes over the observed protocol cycles, then extrapolated thousands of
  cycles forward at the observed dispute rate: one undefended horizon where
  collusion keeps winning, and one defended horizon where losses drain the
  pool through Sybil re-splits until it dies;
* **campaign throughput** — wall-clock scenarios/s at 1/2/4 worker
  processes over identical campaigns, with the byte-identical fingerprint
  check that makes the speedup trustworthy.

The throughput section gates on exact counts: every worker count runs the
same scenarios exactly once, to byte-identical fingerprints.  The speedup
(target >= 1.5x at 4 workers vs 1) is wall-clock on a shared host, so the
table reports it instead of gating on it.

``CAMPAIGN_DEEP=1`` (the nightly CI job) multiplies the cycle budgets 10x;
the default is the CI-fast slice.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from repro.sim.adversary import ANNEALED_KINDS
from repro.sim.campaign import Campaign, CampaignConfig, campaign_workload
from repro.sim.sprt import SPRTConfig

from benchmarks.reporting import emit_report

DEEP = os.environ.get("CAMPAIGN_DEEP", "") not in ("", "0")
SCALE = 10 if DEEP else 1

#: Main adaptive sweep: opened in the weak-challenger regime so the EV rule
#: has a real regime flip to report.  The cycle budget exceeds the Wald
#: acceptance bound of the mode's SPRT config (29 CI-fast, 90 deep), so
#: every invariant family reaches a verdict.
MAIN_CYCLES = 240 if DEEP else 36
#: Shorter fixed slice timed at each worker count (identical config except
#: ``num_workers``, so the fingerprints must match byte for byte).
THROUGHPUT_CYCLES = 16 * SCALE
WORKER_COUNTS = (1, 2, 4)
TARGET_WORKERS = 4
TARGET_SPEEDUP = 1.5
EXTRAPOLATE_CYCLES = 2000 * SCALE
CHECKPOINT_FRACTIONS = (0.0, 0.05, 0.25, 0.5, 1.0)


def _main_config() -> CampaignConfig:
    return CampaignConfig(
        cycles=MAIN_CYCLES,
        batch_size=4,
        seed=2026,
        collusion_every=6,
        challenger_opening_stake=500.0,
        sprt=(SPRTConfig(p1=0.05, beta=0.01) if DEEP
              else SPRTConfig(p1=0.1, beta=0.05)),
    )


def _throughput_config(num_workers: int) -> CampaignConfig:
    return CampaignConfig(
        cycles=THROUGHPUT_CYCLES,
        batch_size=8,
        seed=7,
        collusion_every=6,
        num_workers=num_workers,
    )


def _checkpoints(trajectory: np.ndarray) -> List[int]:
    last = trajectory.shape[0] - 1
    return sorted({int(round(fraction * last))
                   for fraction in CHECKPOINT_FRACTIONS})


def test_adaptive_campaign(benchmark):
    campaign_workload("campaign_mlp")  # build once, outside the timing

    def run():
        main = Campaign(_main_config()).run()
        timing: Dict[int, Dict[str, object]] = {}
        for num_workers in WORKER_COUNTS:
            start = time.perf_counter()
            result = Campaign(_throughput_config(num_workers)).run()
            wall = time.perf_counter() - start
            timing[num_workers] = {
                "wall_s": wall,
                "scenarios": result.scenarios_run,
                "sps": result.scenarios_run / wall,
                "violations": list(result.violations),
                "campaign_fp": result.campaign_fingerprint(),
                "ledger_fp": result.ledger_fingerprint(),
            }
        return main, timing

    main, timing = benchmark.pedantic(run, rounds=1, iterations=1)

    # -- section 1: detection boundaries -----------------------------------
    boundary_rows = []
    for kind, estimate in sorted(main.boundaries.items()):
        lo0, hi0, _ = ANNEALED_KINDS[kind]
        boundary_rows.append([
            kind, f"[{lo0:g}, {hi0:g}]", estimate.lo, estimate.hi,
            estimate.estimate, estimate.width, estimate.rounds,
            estimate.caught, estimate.escaped, estimate.inversions,
        ])

    # -- section 2: per-cycle economics series ------------------------------
    stride = max(1, MAIN_CYCLES // 24)
    economics_rows = []
    for record in main.records:
        if record.cycle % stride and record.mode != "collusion":
            continue
        economics_rows.append([
            record.cycle, record.mode, record.kind,
            record.magnitude, record.fault_rate,
            record.ev_cheat, record.ev_honest,
            "weak" if record.challenger_weak else "healthy",
            record.proposer_stake, record.challenger_stake,
            record.subsidy, record.caught, record.escaped,
            len(record.violations),
        ])

    # -- section 3: collusion stake trajectories ----------------------------
    strategy = main.adversary.collusion
    collusion_records = [r for r in main.records if r.mode == "collusion"]
    observed_adjudications = [r.adjudications for r in collusion_records]
    observed_escapes = sum(r.escaped for r in collusion_records)
    dispute_rate = (float(np.mean(observed_adjudications))
                    if observed_adjudications else 1.0)
    dispute_rate = max(dispute_rate, 1.0)

    observed_rows = [
        [index, *(f"{stake:.1f}" for stake in stakes)]
        for index, stakes in enumerate(strategy.trajectory)
    ]

    extrapolated_rows = []
    resplits = {}
    for label, escape_rate in (("undefended", 0.9), ("defended", 0.1)):
        trajectory = strategy.extrapolate(
            EXTRAPOLATE_CYCLES, dispute_rate,
            escape_rate=escape_rate, seed_label=label)
        resplits[label] = strategy.last_extrapolation_resplits
        for checkpoint in _checkpoints(trajectory):
            stakes = trajectory[checkpoint]
            colluders = stakes[:strategy.config.colluders]
            honest = stakes[strategy.config.colluders:]
            extrapolated_rows.append([
                label, escape_rate, checkpoint,
                float(colluders.sum()), float(colluders.min()),
                float(honest.sum()) if honest.size else 0.0,
            ])

    # -- section 4: campaign throughput -------------------------------------
    base = timing[1]
    speedup = timing[TARGET_WORKERS]["sps"] / base["sps"]
    throughput_rows = [
        [num_workers, r["scenarios"], r["wall_s"], r["sps"],
         r["sps"] / base["sps"],
         "yes" if (r["campaign_fp"] == base["campaign_fp"]
                   and r["ledger_fp"] == base["ledger_fp"]) else "NO"]
        for num_workers, r in timing.items()
    ]

    verdict_rows = [[family, verdict or "undecided", consumed,
                     decided_at if decided_at is not None else "-"]
                    for family, verdict, consumed, decided_at
                    in main.sprt_rows]

    notes = (
        f"Mode: {'deep (CAMPAIGN_DEEP=1, 10x cycles)' if DEEP else 'CI-fast'}"
        f" | main sweep {MAIN_CYCLES} cycles, {main.events_run} protocol"
        f" events, {len(main.violations)} invariant violations |"
        f" challenger opened at 500.0 (below the 1000.0 EV floor: the"
        f" weak-challenger regime where cheap cheating is EV-positive)."
        f"\n\nCollusion: {len(collusion_records)} observed probe cycles,"
        f" dispute rate {dispute_rate:.2f} adjudications/cycle,"
        f" {observed_escapes} observed escapes; extrapolated"
        f" {EXTRAPOLATE_CYCLES} cycles ({resplits['undefended']} Sybil"
        f" re-splits undefended, {resplits['defended']} defended)."
        f"\n\nThroughput gate (exact): every worker count runs all"
        f" {THROUGHPUT_CYCLES} scenarios to byte-identical fingerprints."
        f" Reported, not gated (wall clock on a shared host):"
        f" {TARGET_WORKERS}-worker speedup {speedup:.2f}x (target >="
        f" {TARGET_SPEEDUP:.1f}x on a host with >= {TARGET_WORKERS} cores)."
        " Wall clock includes worker spawn and the canonical-bytes"
        " framing on every scenario round trip."
    )

    emit_report(
        "adaptive_campaign",
        "Adaptive adversary campaign: detection boundaries, stake games, "
        "worker scaling",
        [
            ("Detection boundary per annealed fault kind",
             ["kind", "initial bracket", "lo (escapes)", "hi (catches)",
              "estimate", "width", "rounds", "caught", "escaped",
              "inversions"],
             boundary_rows),
            ("Campaign economics series (weak-challenger opening)",
             ["cycle", "mode", "kind", "magnitude", "fault rate",
              "EV cheat", "EV honest", "challenger regime",
              "proposer stake", "challenger stake", "subsidy",
              "caught", "escaped", "violations"],
             economics_rows),
            ("Colluding committee stakes, observed cycles (seats 0-1 "
             "colluding)",
             ["adjudication step"] + [
                 f"seat {i}" for i in range(strategy.config.committee_size)],
             observed_rows),
            ("Colluding committee stakes, extrapolated horizons",
             ["horizon", "escape rate", "cycle", "colluder pool",
              "min colluder stake", "honest pool"],
             extrapolated_rows),
            ("SPRT verdict per invariant family",
             ["family", "verdict", "scenarios consumed", "decided at"],
             verdict_rows),
            ("Campaign throughput vs worker processes",
             ["workers", "scenarios", "wall (s)", "scenarios/s",
              "speedup vs 1 worker", "byte-identical"],
             throughput_rows),
        ],
        notes=notes,
    )

    # Zero invariant violations across the whole adaptive sweep.
    assert main.ok, main.violations
    for r in timing.values():
        assert not r["violations"], r["violations"]
    # Every invariant family's sequential test accepted (nothing undecided
    # on the main sweep: the cycle budget exceeds the Wald bound).
    assert all(verdict == "accept_clean"
               for verdict in main.verdicts.values()), main.verdicts
    # Each annealer actually probed and tightened its bracket.
    for kind, estimate in main.boundaries.items():
        lo0, hi0, _ = ANNEALED_KINDS[kind]
        assert estimate.rounds > 0
        assert estimate.width < (hi0 - lo0), (kind, estimate)
    # The weak-challenger opening regime was really exercised.
    assert any(record.challenger_weak for record in main.records)
    # The collusion stake game saw real protocol cycles.
    assert collusion_records, "no collusion probes ran"
    # Determinism pin: every worker count ran every scenario once, to
    # byte-identical verdict fingerprints and final stake ledgers.
    for r in timing.values():
        assert r["scenarios"] == THROUGHPUT_CYCLES, timing
        assert r["campaign_fp"] == base["campaign_fp"]
        assert r["ledger_fp"] == base["ledger_fp"]
