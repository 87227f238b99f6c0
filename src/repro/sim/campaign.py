"""Long-horizon adaptive campaigns over the scenario engine.

A *campaign* is thousands of protocol interactions threaded through one
persistent stake ledger: every cycle the adaptive adversary
(:mod:`repro.sim.adversary`) plans one scenario from everything it has
observed so far, the scenario runs against the real protocol stack on a
chain seeded with the carried balances, and the resulting per-event verdicts
feed back into the adversary's annealers, EV policy and collusion stake
game.  Where a plain scenario sweep answers "does one episode uphold the
invariants", a campaign answers the paper's long-run questions: where the
detection boundary actually sits, when depleted challenger stakes flip
cheating EV-positive, and how a colluding committee's stake pool evolves.

Execution model
---------------

Cycles are planned in *rounds* of ``batch_size``: the adversary plans a
whole round against the pre-round ledger snapshot, the round's scenarios run
independently (each on a fresh chain seeded via
:meth:`~repro.protocol.chain.SimulatedChain.carry_over`), and their balance
deltas fold back into the ledger in cycle order.  Because nothing inside a
round depends on anything else inside it, the round can fan out across
worker processes — and the fold is byte-identical no matter how many workers
ran it or in which order their results arrived.  That is the campaign's
determinism pin: per-scenario verdict fingerprints and the final stake
ledger from a multi-worker run equal the single-process reference exactly.

Workers run the fleet's worker machinery (:mod:`repro.fleet.worker`) with a
:class:`CampaignWorker` state, over the fleet transport's canonical-bytes
framing — scenarios travel as codec payloads and results come back as
canonical frames; there is no pickle on the data path.

Early stopping uses one Wald sequential test per invariant family
(:mod:`repro.sim.sprt`): CI accepts each family after a bounded number of
clean cycles, while the nightly sweep simply runs 10-100x more cycles
through the same machinery.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.calibrator import CalibrationConfig, Calibrator
from repro.calibration.committee import (
    CommitteeEnvelopeConfig,
    calibrate_committee_envelope,
)
from repro.calibration.thresholds import ThresholdTable
from repro.fleet.transport import MessageChannel, TransportClosed
from repro.fleet.worker import WorkerError, start_worker, stop_worker
from repro.protocol.chain import SimulatedChain
from repro.protocol.economics import EconomicParameters
from repro.sim.adversary import AdaptiveAdversary, BoundaryEstimate
from repro.sim.runner import SimWorkload, prepare_workload, run_scenario
from repro.sim.scenario import Scenario
from repro.sim.sprt import SPRTConfig, SPRTMonitor
from repro.tensorlib.device import DEVICE_FLEET
from repro.utils.serialization import canonical_bytes

# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------

_CAMPAIGN_WORKLOADS: Dict[str, SimWorkload] = {}


def _build_campaign_mlp() -> SimWorkload:
    """The campaign's built-in workload: a tiny calibrated MLP.

    Defined *inside this module* (rather than reusing a test fixture) so a
    worker process can rebuild the identical workload from nothing but the
    name ``"campaign_mlp"`` — under the ``spawn`` start method a worker
    imports this module fresh and must reach the same traced graph,
    thresholds and committee envelope the parent holds, bit for bit.
    """
    from repro.graph import Module, Parameter, trace_module
    from repro.graph import functional as F

    class CampaignMLP(Module):
        def __init__(self, d_in: int = 32, d_hidden: int = 48,
                     d_out: int = 6, seed: int = 0) -> None:
            super().__init__()
            rng = np.random.default_rng(seed)
            self.ln_w = Parameter(np.ones(d_in))
            self.ln_b = Parameter(np.zeros(d_in))
            self.w1 = Parameter(rng.standard_normal((d_hidden, d_in)) * 0.2)
            self.b1 = Parameter(np.zeros(d_hidden))
            self.w2 = Parameter(rng.standard_normal((d_hidden, d_hidden)) * 0.2)
            self.b2 = Parameter(np.zeros(d_hidden))
            self.w3 = Parameter(rng.standard_normal((d_out, d_hidden)) * 0.2)
            self.b3 = Parameter(np.zeros(d_out))

        def forward(self, x):
            x = F.layer_norm(x, self.ln_w, self.ln_b)
            h = F.gelu(F.linear(x, self.w1, self.b1))
            h = F.relu(F.linear(h, self.w2, self.b2))
            logits = F.linear(h, self.w3, self.b3)
            return F.softmax(logits, axis=-1)

    def sample_inputs(seed: int) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {"x": rng.standard_normal((4, 32)).astype(np.float32)}

    graph = trace_module(CampaignMLP(), sample_inputs(0), name="campaign_mlp")
    dataset = [sample_inputs(1000 + i) for i in range(12)]
    calibration = Calibrator(
        CalibrationConfig(devices=DEVICE_FLEET)).calibrate(graph, dataset)
    thresholds = ThresholdTable.from_calibration(calibration, alpha=3.0)
    envelope = calibrate_committee_envelope(
        graph, dataset, CommitteeEnvelopeConfig(devices=DEVICE_FLEET))
    return SimWorkload(
        name="campaign_mlp",
        graph=graph,
        thresholds=thresholds,
        sample_inputs=sample_inputs,
        committee_envelope=envelope,
    )


def campaign_workload(name: str) -> SimWorkload:
    """Resolve a workload by name alone (memoized per process).

    ``"campaign_mlp"`` builds the module-local MLP above; any other name is
    a model-zoo entry and goes through the simulator's standard
    :func:`~repro.sim.runner.prepare_workload` path.
    """
    if name in _CAMPAIGN_WORKLOADS:
        return _CAMPAIGN_WORKLOADS[name]
    workload = _build_campaign_mlp() if name == "campaign_mlp" \
        else prepare_workload(name)
    _CAMPAIGN_WORKLOADS[name] = workload
    return workload


# ---------------------------------------------------------------------------
# One campaign scenario, anywhere
# ---------------------------------------------------------------------------

def run_campaign_scenario(scenario: Scenario, workload: SimWorkload,
                          carried: Dict[str, float]) -> Dict[str, object]:
    """Run one scenario on a chain carrying ``carried`` and frame the result.

    This is the *single* code path both the inline runner and the worker
    processes execute — the determinism pin holds because there is nothing
    else to diverge.  The frame contains only canonical-codec value shapes:

    * ``rows`` — per-event verdict rows (kind, magnitude, status, flags);
    * ``violations`` — sorted invariant rules the scenario tripped;
    * ``fingerprint`` — sha256 over the canonical encoding of the scenario
      identity plus rows plus violations;
    * ``balance_delta`` — per-account final balance minus carried balance
      (accounts created inside the run appear with their full balance);
    * ``minted_delta`` — chain units minted *inside* the run (``fund_once``
      on accounts the carried ledger did not already hold).
    """
    chain = SimulatedChain()
    chain.carry_over(carried)
    minted_before = chain.minted
    result = run_scenario(scenario, workload, chain=chain)
    rows: List[Dict[str, object]] = []
    for outcome in result.outcomes:
        event = outcome.event
        rows.append({
            "index": int(event.index),
            "kind": event.kind,
            "magnitude": float(event.magnitude),
            "drift_device": int(event.drift_device),
            "status": str(outcome.status),
            "flagged": bool(outcome.flagged),
            "challenged": bool(outcome.challenged),
            "slashed": bool(outcome.proposer_slashed),
            "finalized": bool(outcome.finalized),
            "rejected": bool(outcome.rejected),
            "adjudicated": outcome.dispute_path is not None,
        })
    violations = sorted({violation.rule for violation in result.violations})
    balance_delta = {
        account: float(balance) - float(carried.get(account, 0.0))
        for account, balance in sorted(chain.balances.items())
    }
    fingerprint = hashlib.sha256(canonical_bytes(
        [scenario.name, int(scenario.seed), rows, violations]
    )).hexdigest()
    return {
        "name": scenario.name,
        "rows": rows,
        "violations": violations,
        "fingerprint": fingerprint,
        "balance_delta": balance_delta,
        "minted_delta": float(chain.minted - minted_before),
    }


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

#: Parent-side deadline on every campaign worker reply, in seconds.
WORKER_DEADLINE_S = 300.0


class CampaignWorker:
    """A campaign worker's state: the workload, resolved by name alone."""

    def __init__(self, channel: MessageChannel, hello: Dict[str, Any]) -> None:
        self.workload = campaign_workload(hello["workload"])

    def op_run(self, message: Dict[str, Any]) -> Dict[str, object]:
        frame = run_campaign_scenario(
            Scenario.from_payload(message["scenario"]), self.workload,
            dict(message["carried"]))
        frame["index"] = int(message["index"])
        return frame

    def op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {}


class CampaignRunner:
    """Fan seeded scenario batches across worker processes (or run inline).

    ``num_workers == 0`` is the single-process reference: every scenario of
    a round runs inline through :func:`run_campaign_scenario`.  With workers,
    a round's jobs are dealt round-robin (by position, so the assignment is
    a pure function of the job list), each worker runs its share
    sequentially, and the parent collects result frames keyed by cycle
    index — arrival interleaving cannot influence anything downstream.
    """

    def __init__(self, workload_name: str, num_workers: int = 0) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.workload_name = workload_name
        self.num_workers = int(num_workers)
        # Build the workload before spawning: under the default fork start
        # method every worker inherits the prepared graph/calibration pages
        # instead of re-deriving them.
        self._workload = campaign_workload(workload_name)
        self._workers: List[Tuple[Any, MessageChannel]] = []
        context = multiprocessing.get_context()
        try:
            for index in range(self.num_workers):
                self._workers.append(start_worker(
                    context, CampaignWorker, {"workload": workload_name},
                    name=f"campaign-{index}", deadline_s=WORKER_DEADLINE_S))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_round(self, jobs: Sequence[Tuple[int, Scenario]],
                  carried: Dict[str, float]) -> Dict[int, Dict[str, object]]:
        """Run one round of ``(cycle index, scenario)`` jobs on ``carried``.

        ``process_fleet`` scenarios are refused, at every worker count and
        before any job runs: a daemonic worker cannot spawn a fleet.
        """
        refused = [scenario.name for _, scenario in jobs
                   if scenario.process_fleet]
        if refused:
            raise ValueError(
                f"campaign rounds cannot run process_fleet scenarios "
                f"{refused}: a campaign worker cannot spawn a fleet")
        results: Dict[int, Dict[str, object]] = {}
        if not self._workers:
            for index, scenario in jobs:
                frame = run_campaign_scenario(scenario, self._workload, carried)
                frame["index"] = int(index)
                results[int(index)] = frame
            return results
        channels = [channel for _, channel in self._workers]
        assigned: Dict[int, List[int]] = {
            worker: [] for worker in range(len(channels))
        }
        for position, (index, scenario) in enumerate(jobs):
            worker = position % len(channels)
            channels[worker].send({
                "op": "run",
                "index": int(index),
                "scenario": scenario.to_payload(),
                "carried": carried,
            })
            assigned[worker].append(int(index))
        for worker, indices in assigned.items():
            for _ in indices:
                reply = channels[worker].recv()
                if not reply.get("ok"):
                    raise WorkerError(
                        f"campaign worker {worker} failed: {reply.get('error')}")
                frame = reply["value"]
                results[int(frame["index"])] = frame
        return results

    def close(self) -> None:
        for process, channel in self._workers:
            try:
                channel.send({"op": "shutdown"})
                channel.recv()
            except TransportClosed:
                pass
            stop_worker(process, channel, join_s=10.0)
        self._workers = []


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one adaptive campaign."""

    workload: str = "campaign_mlp"
    seed: int = 0
    cycles: int = 24
    requests_per_cycle: int = 5
    #: Cycles planned (and runnable in parallel) per round.
    batch_size: int = 4
    #: Every Nth cycle runs a committee-collusion probe instead of an
    #: annealing probe (while the bought seats still hold the majority).
    collusion_every: int = 6
    num_workers: int = 0
    sprt: SPRTConfig = field(default_factory=SPRTConfig)
    #: Stop as soon as every invariant family's sequential test has decided
    #: (the CI slice); the nightly sweep leaves this off and runs the full
    #: cycle budget.
    early_stop: bool = False
    #: Audit pressure the adversary's EV rule assumes — low by default so a
    #: depleted challenger genuinely flips cheap cheating EV-positive.
    audit_probability: float = 0.05
    initial_balance: float = 10_000.0
    #: Standing challenger/user accounts below this are topped back up to
    #: ``initial_balance`` after the cycle's fold (a deterministic subsidy,
    #: recorded per cycle) — modelling stake replenishment and keeping the
    #: campaign solvent over long horizons.
    top_up_floor: float = 100.0
    #: Opening stake of the standing challenger (defaults to
    #: ``initial_balance``).  Seeding it *below* the EV policy's challenger
    #: floor starts the campaign in the weak-challenger regime — cheap
    #: cheating is EV-positive until the challenger's dispute winnings
    #: rebuild its stake past the floor and the regime flips back.
    challenger_opening_stake: Optional[float] = None


@dataclass(frozen=True)
class CycleRecord:
    """One campaign cycle's plan, verdicts and economics readings."""

    cycle: int
    scenario_name: str
    mode: str
    kind: str
    magnitude: float
    fault_rate: float
    detection: float
    ev_cheat: float
    ev_honest: float
    challenger_weak: bool
    proposer_broke: bool
    proposer_stake: float
    challenger_stake: float
    subsidy: float
    events: int
    faults: int
    caught: int
    escaped: int
    adjudications: int
    violations: Tuple[str, ...]
    fingerprint: str
    #: Device indices present in the fleet during this cycle (the
    #: heterogeneous-drift schedule's draw).
    drift_pool: Tuple[int, ...] = ()


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    config: CampaignConfig
    records: List[CycleRecord]
    ledger: Dict[str, float]
    minted: float
    fingerprints: List[str]
    verdicts: Dict[str, Optional[str]]
    sprt_rows: List[Tuple[str, str, int, Optional[int]]]
    boundaries: Dict[str, BoundaryEstimate]
    adversary: AdaptiveAdversary
    #: Per-cycle event verdict rows (aligned with ``records``) — the raw
    #: material for reports and for folding into suite-level run stats.
    event_rows: List[List[Dict[str, object]]] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        return [rule for record in self.records for rule in record.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def scenarios_run(self) -> int:
        return len(self.records)

    @property
    def events_run(self) -> int:
        return sum(record.events for record in self.records)

    def ledger_fingerprint(self) -> str:
        """sha256 over the canonical final ledger (plus total minted)."""
        return hashlib.sha256(canonical_bytes(
            [sorted(self.ledger.items()), float(self.minted)]
        )).hexdigest()

    def campaign_fingerprint(self) -> str:
        """sha256 over every per-scenario verdict fingerprint, in order."""
        return hashlib.sha256(
            canonical_bytes(list(self.fingerprints))).hexdigest()


class Campaign:
    """Drive an adaptive adversary against the protocol for many cycles.

    Every run constructs its adversary, SPRT monitor and ledger fresh from
    the config, so ``Campaign(config).run()`` is a pure function of the
    config — calling it twice (or with different worker counts) yields
    byte-identical fingerprints and ledgers.
    """

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()

    def initial_ledger(self, model: str) -> Dict[str, float]:
        """The pre-funded standing accounts every campaign starts from.

        Pre-seeding (rather than letting cycle 0 mint) keeps first-round
        funding out of the scenario deltas: two scenarios of the same round
        would otherwise each mint the same standing account against their
        private chains, doubling its opening balance at the fold.
        """
        config = self.config
        accounts = [f"{model}-owner", f"{model}-proposer",
                    f"{model}-challenger", f"{model}-user"]
        accounts += [f"sim-proposer-{i}"
                     for i in range(config.requests_per_cycle)]
        ledger = {account: float(config.initial_balance)
                  for account in accounts}
        if config.challenger_opening_stake is not None:
            ledger[f"{model}-challenger"] = float(
                config.challenger_opening_stake)
        return ledger

    def run(self, runner: Optional[CampaignRunner] = None) -> CampaignResult:
        config = self.config
        workload = campaign_workload(config.workload)
        model = workload.graph.name
        adversary = AdaptiveAdversary(
            model=model,
            seed=config.seed,
            params=EconomicParameters(
                audit_probability=config.audit_probability),
            requests_per_cycle=config.requests_per_cycle,
            collusion_every=config.collusion_every,
            initial_balance=config.initial_balance,
        )
        monitor = SPRTMonitor(config.sprt)
        ledger = self.initial_ledger(model)
        minted = float(sum(ledger.values()))
        records: List[CycleRecord] = []
        fingerprints: List[str] = []
        event_rows: List[List[Dict[str, object]]] = []

        owned_runner = runner is None
        if owned_runner:
            runner = CampaignRunner(config.workload,
                                    num_workers=config.num_workers)
        try:
            cycle = 0
            while cycle < config.cycles:
                if config.early_stop and monitor.decided:
                    break
                jobs: List[Tuple[int, Scenario, Dict[str, object]]] = []
                while cycle < config.cycles and len(jobs) < config.batch_size:
                    scenario, meta = adversary.next_scenario(cycle, ledger)
                    jobs.append((cycle, scenario, meta))
                    cycle += 1
                carried = dict(ledger)
                frames = runner.run_round(
                    [(index, scenario) for index, scenario, _ in jobs], carried)
                for index, scenario, meta in jobs:
                    frame = frames[index]
                    for account, delta in sorted(
                            frame["balance_delta"].items()):
                        ledger[account] = ledger.get(account, 0.0) + delta
                    minted += float(frame["minted_delta"])
                    subsidy = 0.0
                    for account in (f"{model}-challenger", f"{model}-user"):
                        balance = ledger.get(account, 0.0)
                        if balance < config.top_up_floor:
                            subsidy += config.initial_balance - balance
                            ledger[account] = float(config.initial_balance)
                    minted += subsidy
                    monitor.observe_scenario(index, frame["violations"])
                    caught, escaped = adversary.observe(meta, frame["rows"])
                    decision = meta["decision"]
                    rows = frame["rows"]
                    records.append(CycleRecord(
                        cycle=index,
                        scenario_name=scenario.name,
                        mode=str(meta["mode"]),
                        kind=str(meta["kind"]),
                        magnitude=float(meta["magnitude"]),
                        fault_rate=decision.fault_rate,
                        detection=decision.detection,
                        ev_cheat=decision.ev_cheat,
                        ev_honest=decision.ev_honest,
                        challenger_weak=decision.challenger_weak,
                        proposer_broke=decision.proposer_broke,
                        proposer_stake=adversary.proposer_stake(carried),
                        challenger_stake=adversary.challenger_stake(carried),
                        subsidy=subsidy,
                        events=len(rows),
                        faults=sum(1 for row in rows
                                   if row["kind"] != "honest"),
                        caught=caught,
                        escaped=escaped,
                        adjudications=sum(1 for row in rows
                                          if row["adjudicated"]),
                        violations=tuple(frame["violations"]),
                        fingerprint=str(frame["fingerprint"]),
                        drift_pool=tuple(meta["drift_pool"]),
                    ))
                    fingerprints.append(str(frame["fingerprint"]))
                    event_rows.append(rows)
        finally:
            if owned_runner:
                runner.close()

        return CampaignResult(
            config=config,
            records=records,
            ledger=ledger,
            minted=minted,
            fingerprints=fingerprints,
            verdicts=monitor.verdicts(),
            sprt_rows=monitor.summary_rows(),
            boundaries=adversary.boundary_estimates(),
            adversary=adversary,
            event_rows=event_rows,
        )
