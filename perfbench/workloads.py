"""The four pinned serving workloads: tenants, tiers and seeded request streams.

Every workload drives the public constructors only (``TAOService``,
``TAOCluster``, ``ProcessFleet``, ``Calibrator``,
``calibrate_committee_envelope``) and registers each tenant with its
calibrated threshold table *and* committee envelope.  A request stream is a
pure function of ``(seed, request index)``, so the same seed always yields the
same inputs, adversaries and victims, whatever the host speed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.calibration import CalibrationConfig, Calibrator, ThresholdTable
from repro.calibration.committee import (
    CommitteeEnvelopeConfig,
    calibrate_committee_envelope,
)
from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.graph import GraphModule, Module, Parameter, trace_module
from repro.graph import functional as F
from repro.models import get_model_spec
from repro.protocol.service import TAOService
from repro.tensorlib import DEVICE_FLEET
from repro.utils.rng import derive_seed

#: ``repro.sim.prepare_workload``'s calibration budget and seed.  That helper
#: memoizes per process, so the benchmark calls its steps directly: every
#: repeated set-up then pays (and times) the full trace + calibration.
CALIBRATION_SAMPLES = 12
COMMITTEE_SAMPLES = 6
CALIBRATION_SEED = 17
ZOO_ALPHA = 3.0
ZOO_MODELS = ("bert_mini", "diffusion_mini", "qwen_mini", "resnet_mini")

#: The cached MLP stream mirrors ``benchmarks/test_cluster_scaling.py``: 16
#: tenants over one checkpoint, calibrated once at alpha 6.
MLP_TENANTS = 16
MLP_POOL = 6
MLP_ALPHA = 6.0

#: ``bert_disputes`` request mix per shuffled block of ten requests.
DISPUTE_BLOCK = ("cheat",) * 5 + ("force",) + ("honest",) * 4
TAMPER = np.float32(0.5)

#: Explicit top-up policy for standing roles (the default 10,000 funding
#: runs a tenant's user dry at its 1,001st request).
TOP_UP_BELOW = 5_000.0
TOP_UP_AMOUNT = 10_000.0
STANDING_ROLES = ("user", "proposer", "challenger")


class Phases:
    """Named wall-clock intervals of one set-up, in the order they ran."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float]] = []

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((name, start, time.perf_counter()))

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, start, end in self.rows:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


@dataclass
class Tenant:
    graph: GraphModule
    thresholds: ThresholdTable
    envelope: object
    sample: Callable[[int], Dict[str, np.ndarray]]


@dataclass
class Job:
    """One request as the client submits it; ``kind`` drives the oracle."""

    tenant: str
    inputs: Dict[str, np.ndarray]
    kind: str = "honest"  # honest | force | cheat
    victim: Optional[str] = None


class ServingHead(Module):
    """The small MLP classifier head of the cluster and fleet benchmarks."""

    def __init__(self, d_in: int = 32, d_hidden: int = 48, d_out: int = 6,
                 seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.ln_w = Parameter(np.ones(d_in))
        self.ln_b = Parameter(np.zeros(d_in))
        self.w1 = Parameter(rng.standard_normal((d_hidden, d_in)) * 0.1)
        self.b1 = Parameter(np.zeros(d_hidden))
        self.w2 = Parameter(rng.standard_normal((d_hidden, d_hidden)) * 0.1)
        self.b2 = Parameter(np.zeros(d_hidden))
        self.w3 = Parameter(rng.standard_normal((d_out, d_hidden)) * 0.1)
        self.b3 = Parameter(np.zeros(d_out))

    def forward(self, x):
        x = F.layer_norm(x, self.ln_w, self.ln_b)
        h = F.gelu(F.linear(x, self.w1, self.b1))
        h = F.relu(F.linear(h, self.w2, self.b2))
        return F.softmax(F.linear(h, self.w3, self.b3), axis=-1)


def mlp_payload(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((4, 32)).astype(np.float32)}


def _calibrate(graph: GraphModule, threshold_inputs, envelope_inputs,
               alpha: float, phases: Phases) -> Tuple[ThresholdTable, object]:
    with phases("calibration.thresholds_s"):
        calibration = Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(
            graph, threshold_inputs)
        thresholds = ThresholdTable.from_calibration(calibration, alpha=alpha)
    with phases("calibration.envelope_s"):
        envelope = calibrate_committee_envelope(
            graph, envelope_inputs, CommitteeEnvelopeConfig(devices=DEVICE_FLEET))
    return thresholds, envelope


def zoo_tenant(model_name: str, phases: Phases) -> Tenant:
    spec = get_model_spec(model_name)
    with phases("graph.trace_s"):
        module = spec.build_module()
        graph = spec.trace(module, batch_size=1, seed=CALIBRATION_SEED)
    thresholds, envelope = _calibrate(
        graph,
        spec.dataset(module, CALIBRATION_SAMPLES, seed=CALIBRATION_SEED, batch_size=1),
        spec.dataset(module, COMMITTEE_SAMPLES, seed=CALIBRATION_SEED, batch_size=1),
        ZOO_ALPHA, phases)
    return Tenant(graph, thresholds, envelope,
                  lambda seed: spec.sample_inputs(module, 1, seed))


def mlp_tenants(phases: Phases) -> Dict[str, Tenant]:
    with phases("graph.trace_s"):
        module = ServingHead()
        graphs = [trace_module(module, mlp_payload(0), name=f"mlp_head_{index}")
                  for index in range(MLP_TENANTS)]
    thresholds, envelope = _calibrate(
        graphs[0],
        [mlp_payload(1000 + index) for index in range(CALIBRATION_SAMPLES)],
        [mlp_payload(2000 + index) for index in range(COMMITTEE_SAMPLES)],
        MLP_ALPHA, phases)
    return {graph.name: Tenant(graph, thresholds, envelope, mlp_payload)
            for graph in graphs}


class Workload:
    """One pinned workload: how to set it up and what each burst submits.

    ``burst`` is the closed-loop burst size B; ``window_bursts`` bursts (after
    one warm-up burst) form the exact window over which every count, share and
    verdict fingerprint is computed, so they repeat exactly for a seed.
    ``setups`` is how many times one run builds the tier to time set-up.
    """

    name = ""
    burst = 0
    window_bursts = 0
    setups = 3

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def tenants(self, phases: Phases) -> Dict[str, Tenant]:
        raise NotImplementedError

    def make_tier(self):
        raise NotImplementedError

    def jobs(self, tenants: Dict[str, Tenant], burst_index: int) -> List[Job]:
        """Burst ``burst_index`` of the measured stream (-1 is the warm-up)."""
        raise NotImplementedError

    def prepare(self, tier, job: Job, index: int) -> Dict[str, object]:
        """Client-side actors for one job, built before its timed submit."""
        return {}

    def submit(self, tier, job: Job, actors: Dict[str, object]) -> int:
        return tier.submit(job.tenant, job.inputs,
                           force_challenge=job.kind == "force", **actors)


class ZooHonest(Workload):
    name = "zoo_honest"
    burst = 16
    window_bursts = 24
    setups = 2

    def tenants(self, phases: Phases) -> Dict[str, Tenant]:
        return {name: zoo_tenant(name, phases) for name in ZOO_MODELS}

    def make_tier(self):
        return TAOService()

    def jobs(self, tenants, burst_index):
        per_tenant = self.burst // len(tenants)
        return [Job(name, tenant.sample(
                    derive_seed(self.seed, self.name, burst_index, name, slot)))
                for name, tenant in sorted(tenants.items())
                for slot in range(per_tenant)]


class BertDisputes(Workload):
    name = "bert_disputes"
    burst = 8
    window_bursts = 24

    def tenants(self, phases: Phases) -> Dict[str, Tenant]:
        return {"bert_mini": zoo_tenant("bert_mini", phases)}

    def make_tier(self):
        # Cycles of two requests: a burst spans four cycles, so dispute
        # rounds overlap later cycles' execution on the stage pipeline.
        return TAOService(cycle_capacity=2)

    def jobs(self, tenants, burst_index):
        tenant = tenants["bert_mini"]
        if burst_index < 0:
            return [Job("bert_mini", tenant.sample(derive_seed(self.seed, "warmup", slot)))
                    for slot in range(self.burst)]
        operators = [node.name for node in tenant.graph.graph.operators]
        jobs = []
        for slot in range(self.burst):
            index = burst_index * self.burst + slot
            block, position = divmod(index, len(DISPUTE_BLOCK))
            shuffle = np.random.default_rng(derive_seed(self.seed, "mix", block))
            kind = DISPUTE_BLOCK[shuffle.permutation(len(DISPUTE_BLOCK))[position]]
            victim = None
            if kind == "cheat":
                pick = np.random.default_rng(derive_seed(self.seed, "victim", index))
                victim = operators[int(pick.integers(len(operators)))]
            jobs.append(Job("bert_mini", tenant.sample(
                derive_seed(self.seed, self.name, index)), kind, victim))
        return jobs

    def prepare(self, tier, job, index):
        if job.kind != "cheat":
            return {}
        session = tier.model(job.tenant).session
        return {"proposer": session.make_adversarial_proposer(
            f"cheat-{index}", {job.victim: TAMPER})}


class FleetCached(Workload):
    name = "fleet_cached"
    burst = 64
    window_bursts = 8
    # Sub-second set-ups: a median over more of them holds still.
    setups = 7

    def tenants(self, phases: Phases) -> Dict[str, Tenant]:
        return mlp_tenants(phases)

    def make_tier(self):
        return ProcessFleet(num_workers=2)

    def jobs(self, tenants, burst_index):
        # The pool is fixed (payload seeds as in the cluster benchmark); the
        # run seed decides which pool member each request draws.  Every
        # request carries freshly built arrays, as a remote client's would.
        names = sorted(tenants)
        per_tenant = self.burst // len(names)
        if burst_index < 0:
            return [Job(name, mlp_payload(derive_seed(self.seed, "warmup", name, slot)))
                    for name in names for slot in range(per_tenant)]
        draws = np.random.default_rng(derive_seed(self.seed, "draw", burst_index)) \
            .integers(MLP_POOL, size=self.burst)
        return [Job(name, mlp_payload(
                    500 + index * MLP_POOL + int(draws[index * per_tenant + slot])))
                for index, name in enumerate(names) for slot in range(per_tenant)]


class ClusterCached(FleetCached):
    name = "cluster_cached"
    setups = 9

    def make_tier(self):
        return TAOCluster(num_shards=2)


WORKLOADS = {cls.name: cls for cls in (ZooHonest, BertDisputes, FleetCached, ClusterCached)}


def tier_chain(tier):
    """The settlement chain every tier settles on."""
    return tier.coordinator.chain if isinstance(tier, TAOService) else tier.chain


def top_up(tier) -> int:
    """Fund standing roles below the floor; returns the number of top-ups."""
    chain = tier_chain(tier)
    topped = 0
    for name in tier.model_names:
        for role in STANDING_ROLES:
            account = f"{name}-{role}"
            if chain.balance(account) < TOP_UP_BELOW:
                chain.fund(account, TOP_UP_AMOUNT)
                topped += 1
    return topped


def expected_ok(job: Job, request) -> bool:
    """The verdict oracle for one resolved request."""
    if job.kind == "honest":
        return request.status == "finalized"
    if job.kind == "force":
        return request.status == "challenger_slashed"
    dispute = request.report.dispute if request.report is not None else None
    return (request.status == "proposer_slashed" and dispute is not None
            and dispute.localized_operator == job.victim)
