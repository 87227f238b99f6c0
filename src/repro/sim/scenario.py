"""Scenario specifications and their expansion into reproducible schedules.

A :class:`Scenario` is a compact, declarative description of one adversarial
serving episode: which workload, how many requests, which fault kinds at
which rates, how the requests burst into processing cycles.  ``expand``
turns it into a :class:`ScenarioSchedule` — an explicit list of
:class:`RequestEvent` rows — using a seeded RNG, so the same scenario always
produces the same schedule and every schedule is independently re-runnable
(the shrinker relies on this: events carry their own payload seeds, so any
subset of a schedule is itself a valid, deterministic schedule).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import GraphModule
from repro.sim.faults import (
    FAULT_KINDS,
    LOCALIZATION_FREE_KINDS,
    STRONG_TAMPER_KINDS,
    TAMPERING_KINDS,
)
from repro.utils.rng import derive_seed, seeded_rng

#: Fault kinds scheduled by default: everything except committee collusion,
#: which breaks the honest-majority assumption for a whole scenario and is
#: therefore opted into explicitly (``colluding_committee=True`` plus the
#: kind in ``fault_kinds``).
DEFAULT_FAULT_KINDS = tuple(k for k in FAULT_KINDS if k != "colluding_committee")

#: Default per-kind fault magnitudes: number of low mantissa bits for
#: ``bit_flip``-style tampers, the cap-curve edge factor for ``bound_edge``,
#: and the relative weight perturbation for ``wrong_weight``.
DEFAULT_MAGNITUDES: Dict[str, float] = {
    "bit_flip": 18,
    "bound_edge": 0.5,
    "wrong_weight": 0.5,
    "stale_trace": 1.0,
    "drop_partition": 18,
    "drop_selection": 18,
    "late_move": 18,
    "colluding_committee": 18,
    "device_drift": 0.0,
}


@dataclass(frozen=True)
class Scenario:
    """Declarative spec of one randomized adversarial serving episode."""

    name: str
    seed: int
    model: str
    num_requests: int = 6
    fault_rate: float = 0.45
    fault_kinds: Tuple[str, ...] = DEFAULT_FAULT_KINDS
    #: "uniform" drains everything in one process() call; "trickle" processes
    #: after every submission; "front" submits all, then drains in pairs.
    burst: str = "uniform"
    n_way: int = 2
    leaf_path: str = "routed"
    committee_size: int = 3
    #: When True a majority of the session's committee is bought (votes for
    #: the proposer unconditionally) — the honest-majority assumption is
    #: broken for the *whole* scenario, so the strong safety check S3 is
    #: conditioned out for every event in it.
    colluding_committee: bool = False
    #: When True the strong safety check S3 is enforced for every flagged
    #: strong tamper, not just the localization-free ones.  Only set this on
    #: workloads whose graphs cannot attenuate an injected error below the
    #: thresholds of intermediate cut points (shallow graphs with calibrated
    #: operators throughout, like the test MLP) — on deep attention/pooling
    #: graphs the threshold-guided bisection can legitimately dead-end.
    strict_localization: bool = False
    force_challenge_rate: float = 0.08
    #: Multiplier applied to the committed thresholds at registration; 1.0 is
    #: the calibrated table, 0.0 is the deliberately broken canary.
    threshold_scale: float = 1.0
    #: Number of cluster shards the scenario targets; 1 keeps the plain
    #: single-process :class:`~repro.protocol.service.TAOService` (the seed
    #: path).  Values > 1 build a :class:`~repro.cluster.cluster.TAOCluster`
    #: and the invariant families are checked fleet-wide.
    num_shards: int = 1
    #: When set (and ``num_shards`` > 1), the workload model's current home
    #: shard is administratively drained right after this cycle's events are
    #: submitted and before they are processed — so the cycle's in-flight
    #: requests are withdrawn and re-dispatched to the ring's next node,
    #: exercising failover under whatever faults the cycle carries.
    drain_home_at_cycle: Optional[int] = None
    #: When set (with ``drain_home_at_cycle`` on an earlier cycle), the shard
    #: or fleet worker drained then is returned to service *before* this
    #: cycle's events are submitted — the scale-up leg: tenants whose ring
    #: home flips back re-migrate, and the cycle's requests land on the
    #: restored topology.
    undrain_home_at_cycle: Optional[int] = None
    #: When True the scenario runs against a
    #: :class:`~repro.fleet.fleet.ProcessFleet` of ``num_shards`` worker
    #: *processes* instead of the in-process service/cluster: actors travel
    #: as wire specs and are built inside the workers by the same builder
    #: the in-process runner uses (:mod:`repro.sim.actors`), settlement
    #: flows back to the shared parent chain, and ``drain_home_at_cycle``
    #: drains a fleet worker.  Requires ``threshold_scale == 1.0`` (a
    #: worker places fault overrides against its *registered* table, which
    #: must therefore equal the workload table the in-process runner
    #: passes).  Campaign rounds refuse it: a campaign worker cannot spawn
    #: a fleet.
    process_fleet: bool = False
    #: When set (and ``process_fleet`` is True), the workload model's home
    #: worker is SIGKILLed at this cycle's first *fresh* chain mutation —
    #: mid-transition, after the write-ahead record but inside the chain
    #: call stream — and the fleet restarts the worker in place from its
    #: parent-held journal, so the cycle's drain resumes.  Exercises the
    #: crash-recovery path under whatever faults the cycle carries.
    crash_home_at_cycle: Optional[int] = None
    #: Whether the session adopts the workload's calibrated committee-leaf
    #: acceptance envelope (when the workload carries one).  ``False`` runs
    #: the pre-calibration reference tolerance — the setting under which the
    #: ROADMAP defect seeds reproduce their S1/S3 violations.
    calibrated_committee: bool = True
    #: Per-cycle request cap handed to the service (clamped to the protocol
    #: bound).  Small values split one burst into many cycles, so faulty
    #: disputes of cycle N settle before cycle N+1 of the same burst submits.
    cycle_capacity: Optional[int] = None
    #: Pool of fleet device indices ``device_drift`` events draw their
    #: drifted proposer from.  The default is the full calibrated fleet (and
    #: reproduces the historical RNG stream exactly); the campaign driver
    #: narrows it per cycle to model devices entering/leaving mid-campaign.
    drift_devices: Tuple[int, ...] = (0, 1, 2, 3)
    magnitudes: Tuple[Tuple[str, float], ...] = tuple(sorted(DEFAULT_MAGNITUDES.items()))

    def __post_init__(self) -> None:
        # Freeze the canonical tuple representation at construction.
        # ``magnitudes`` may arrive as a dict, or as lists-of-pairs decoded
        # from the canonical wire codec; normalizing here means a scenario
        # never aliases caller-held mutable state (the adaptive adversary
        # updates its magnitude maps between cycles) and two specs with the
        # same content always compare and hash equal.
        mags = self.magnitudes
        items = mags.items() if isinstance(mags, dict) else mags
        object.__setattr__(
            self, "magnitudes",
            tuple(sorted((str(k), float(v)) for k, v in items)))
        object.__setattr__(
            self, "fault_kinds", tuple(str(k) for k in self.fault_kinds))
        object.__setattr__(
            self, "drift_devices", tuple(int(d) for d in self.drift_devices))

    def magnitude_for(self, kind: str) -> float:
        return dict(self.magnitudes).get(kind, 0.0)

    def with_magnitude(self, kind: str, value: float) -> "Scenario":
        mags = dict(self.magnitudes)
        mags[kind] = float(value)
        return replace(self, magnitudes=tuple(sorted(mags.items())))

    def to_payload(self) -> Dict[str, object]:
        """Codec-ready form (scalars, sequences, string-keyed maps only).

        The campaign runner ships scenarios to worker processes over the
        fleet transport's canonical framing — no pickle — so the spec must
        round-trip through :func:`repro.utils.serialization.canonical_bytes`.
        """
        return asdict(self)

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "Scenario":
        """Inverse of :meth:`to_payload` (``__post_init__`` re-freezes tuples)."""
        return Scenario(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RequestEvent:
    """One fully determined request in a schedule.

    ``kind`` is ``"honest"`` or a member of :data:`FAULT_KINDS`.  All seeds
    are baked in so the event replays identically regardless of which other
    events surround it — the property the shrinker's bisection depends on.
    """

    index: int
    input_seed: int
    kind: str = "honest"
    magnitude: float = 0.0
    victim: Optional[str] = None
    force_challenge: bool = False
    #: Input seed of the decoy request a stale trace is replayed from.
    decoy_seed: int = 0
    #: Fleet device index the drifted proposer executes on (device_drift).
    drift_device: int = 0
    fault_seed: int = 0
    #: When True the runner SIGKILLs the workload's home fleet worker at the
    #: first fresh chain mutation of the cycle this event opens, then lets
    #: journal recovery resume the drain.  Carried on the event (not just the
    #: scenario) so shrunk schedules replay the crash deterministically.
    crash_after: bool = False

    @property
    def tampers(self) -> bool:
        return self.kind in TAMPERING_KINDS

    @property
    def strong_tamper(self) -> bool:
        return self.kind in STRONG_TAMPER_KINDS

    @property
    def localization_free(self) -> bool:
        """True when the fault's slash path does not rely on localization."""
        return self.kind in LOCALIZATION_FREE_KINDS

    @property
    def challenger_faulty(self) -> bool:
        return self.kind in ("drop_selection", "late_move")

    @property
    def committee_faulty(self) -> bool:
        return self.kind == "colluding_committee"

    @property
    def execution_honest(self) -> bool:
        """True when the proposer's committed execution is untampered."""
        return not self.tampers


@dataclass
class ScenarioSchedule:
    """A scenario together with its expanded event list."""

    scenario: Scenario
    events: List[RequestEvent] = field(default_factory=list)

    @property
    def cycles(self) -> List[List[RequestEvent]]:
        """Group events into the process() bursts the runner will issue."""
        if self.scenario.burst == "trickle":
            return [[event] for event in self.events]
        if self.scenario.burst == "front":
            return [list(self.events[i:i + 2]) for i in range(0, len(self.events), 2)]
        return [list(self.events)] if self.events else []


def _victim_pools(graph: GraphModule, thresholds) -> Dict[str, List[str]]:
    """Candidate fault targets per kind, in deterministic graph order."""
    operators = [node.name for node in graph.graph.operators]
    calibrated = [name for name in operators if thresholds.has_operator(name)]
    output_ops = [
        arg.name for arg in graph.graph.output_node.args
        if hasattr(arg, "name") and thresholds.has_operator(getattr(arg, "name", ""))
    ]
    params = [
        node.name for node in graph.graph.nodes
        if node.op == "get_param"
    ]
    return {
        "operators": calibrated or operators,
        "outputs": output_ops or (calibrated or operators)[-1:],
        "params": params,
    }


def expand(scenario: Scenario, graph: GraphModule, thresholds) -> ScenarioSchedule:
    """Deterministically expand a scenario into its event schedule."""
    rng = seeded_rng(derive_seed(scenario.seed, "sim-scenario", scenario.name,
                                 scenario.model))
    pools = _victim_pools(graph, thresholds)
    kinds = [k for k in scenario.fault_kinds if k in FAULT_KINDS]
    events: List[RequestEvent] = []
    for index in range(scenario.num_requests):
        input_seed = int(rng.integers(0, 2**31 - 1))
        fault_seed = int(rng.integers(0, 2**31 - 1))
        kind = "honest"
        if kinds and rng.random() < scenario.fault_rate:
            kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "stale_trace" and index == 0:
            # Nothing to replay yet; stay honest rather than substituting a
            # fault family the scenario's declared kinds may exclude.
            kind = "honest"
        victim: Optional[str] = None
        magnitude = scenario.magnitude_for(kind)
        if kind == "bound_edge":
            pool = pools["outputs"]
            victim = pool[int(rng.integers(0, len(pool)))]
        elif kind == "wrong_weight":
            pool = pools["params"] or pools["operators"]
            victim = pool[int(rng.integers(0, len(pool)))]
        elif kind in ("bit_flip", "drop_partition", "drop_selection",
                      "late_move", "colluding_committee"):
            pool = pools["operators"]
            victim = pool[int(rng.integers(0, len(pool)))]
        force = (kind == "honest"
                 and rng.random() < scenario.force_challenge_rate)
        decoy_seed = events[int(rng.integers(0, len(events)))].input_seed \
            if events else int(rng.integers(0, 2**31 - 1))
        # Drawing an index into the drift pool consumes the same RNG stream
        # as the historical fixed-fleet draw whenever the pool has 4 entries,
        # so every pinned schedule expands unchanged under the default pool.
        drift_device = scenario.drift_devices[
            int(rng.integers(0, len(scenario.drift_devices)))] \
            if kind == "device_drift" else 0
        events.append(RequestEvent(
            index=index,
            input_seed=input_seed,
            kind=kind,
            magnitude=magnitude,
            victim=victim,
            force_challenge=force,
            decoy_seed=decoy_seed,
            drift_device=drift_device,
            fault_seed=fault_seed,
        ))
    if scenario.crash_home_at_cycle is not None and events:
        # Lower the scenario-level knob onto the event that opens the target
        # cycle (after the RNG loop, so the flag never perturbs the seeded
        # stream).  The shrinker preserves flagged events verbatim, which
        # keeps shrunk recovery counterexamples crashing at the same point.
        cycle = int(scenario.crash_home_at_cycle)
        if scenario.burst == "trickle":
            opener = cycle
        elif scenario.burst == "front":
            opener = 2 * cycle
        else:  # uniform: the whole schedule is one cycle
            opener = 0 if cycle == 0 else len(events)
        if 0 <= opener < len(events):
            events[opener] = replace(events[opener], crash_after=True)
    return ScenarioSchedule(scenario=scenario, events=events)
