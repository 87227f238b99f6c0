"""Adversarial protocol simulator: randomized scenarios + invariant checking.

This file is the executable form of the protocol's robustness claims:

* 200+ randomized, seeded scenarios (mixed honest/faulty actor schedules
  over the tiny MLP and all four zoo workloads) must uphold every safety,
  liveness and conservation invariant;
* targeted scenarios pin each fault model's expected resolution path
  (input-binding fraud proofs, timeout slashing, committee collusion
  escapes, drift tolerance);
* the invariant checker itself is validated: a deliberately broken
  threshold table (the canary) must be caught by the safety family and
  shrunk to a minimal one-event schedule, and tampering with a finished
  run's ledger/tasks must trip the conservation and liveness families.

Every scenario is deterministic given its seed, so the whole suite is
bit-for-bit repeatable.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.calibration import (
    CalibrationConfig,
    Calibrator,
    CommitteeEnvelopeConfig,
    ThresholdTable,
    calibrate_committee_envelope,
)
from repro.protocol.coordinator import ESCROW_ACCOUNT, TaskStatus
from repro.sim import actors as sim_actors
from repro.sim.invariants import TERMINAL_STATUSES, settlement_chain
from repro.sim import (
    DEFAULT_FAULT_KINDS,
    FAULT_KINDS,
    InvariantViolation,
    Scenario,
    SimWorkload,
    check_invariants,
    emit_regression_test,
    expand,
    prepare_workload,
    run_scenario,
    run_schedule,
    service_coordinators,
    shrink_schedule,
)
from repro.tensorlib import DEVICE_FLEET

ZOO_WORKLOADS = ("resnet_mini", "bert_mini", "qwen_mini", "diffusion_mini")
BURSTS = ("uniform", "trickle", "front")
LEAF_PATHS = ("routed", "committee", "theoretical")

#: Module-level accounting asserted by the closing summary test.
RUN_STATS = {
    "scenarios": 0,
    "kinds": Counter(),
    "workloads": set(),
    "statuses": Counter(),
    #: Sweep tests that ran to completion; the summary only asserts the
    #: acceptance bar when the full campaign demonstrably ran (partial
    #: -k selections / xdist shards skip instead of failing spuriously).
    "completed_sweeps": set(),
}

CAMPAIGN_SWEEPS = {"mlp", "cluster", "fleet", "recovery", "multicycle",
                   "committee", "elastic", "adaptive"} | set(ZOO_WORKLOADS)


def _record(result) -> None:
    RUN_STATS["scenarios"] += 1
    RUN_STATS["workloads"].add(result.schedule.scenario.model)
    for event in result.schedule.events:
        RUN_STATS["kinds"][event.kind] += 1
    for outcome in result.outcomes:
        RUN_STATS["statuses"][outcome.status] += 1


def _assert_clean(result) -> None:
    assert not result.violations, "\n".join(str(v) for v in result.violations)


@pytest.fixture(scope="module")
def sim_mlp_workload(mlp_graph, mlp_input_factory):
    """The tiny-MLP workload calibrated richly enough for dispute replays.

    The shared 6-sample threshold fixture leaves low-percentile envelopes at
    zero for sparse activations (gelu/relu), which floor-clamps their ratio
    checks and makes the *selection rule* trip false positives on fresh
    inputs.  12 samples (the benchmark harness default) populates them.

    The workload also carries the calibrated committee-leaf acceptance
    envelope, so every scenario (unless it sets
    ``calibrated_committee=False``) adjudicates committee leaves — and
    floors its selection rule — the way a production registration would.
    """
    calibrator = Calibrator(CalibrationConfig(devices=DEVICE_FLEET))
    calibration = calibrator.calibrate(
        mlp_graph, [mlp_input_factory(1000 + i) for i in range(12)]
    )
    thresholds = ThresholdTable.from_calibration(calibration, alpha=3.0)
    envelope = calibrate_committee_envelope(
        mlp_graph, [mlp_input_factory(1000 + i) for i in range(12)],
        CommitteeEnvelopeConfig(devices=DEVICE_FLEET),
    )
    return SimWorkload(
        name="tiny_mlp",
        graph=mlp_graph,
        thresholds=thresholds,
        sample_inputs=lambda seed: mlp_input_factory(seed),
        committee_envelope=envelope,
    )


# ----------------------------------------------------------------------
# Randomized scenario sweeps (the 200+ scenario acceptance bar)
# ----------------------------------------------------------------------

def test_randomized_mlp_scenarios_uphold_all_invariants(sim_mlp_workload):
    """140 seeded scenarios over the MLP: mixed bursts, n-ways, leaf paths."""
    for seed in range(140):
        scenario = Scenario(
            name=f"mlp-{seed}",
            seed=seed,
            model="tiny_mlp",
            num_requests=5 + seed % 4,
            burst=BURSTS[seed % 3],
            n_way=2 + (seed % 3),
            leaf_path=LEAF_PATHS[seed % 3],
            # The 7-operator MLP has calibrated thresholds at every cut
            # point and no attenuating nonlinearity between them, so the
            # strong safety check S3 is enforced for every flagged tamper.
            strict_localization=True,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
    RUN_STATS["completed_sweeps"].add("mlp")


@pytest.mark.parametrize("model_name", ZOO_WORKLOADS)
def test_randomized_zoo_scenarios_uphold_all_invariants(model_name):
    """16 seeded scenarios per zoo workload (all four paper workloads)."""
    workload = prepare_workload(model_name)
    for seed in range(16):
        scenario = Scenario(
            name=f"{model_name}-{seed}",
            seed=1000 + seed,
            model=model_name,
            num_requests=3,
            fault_rate=0.5,
            burst=BURSTS[seed % 3],
        )
        result = run_scenario(scenario, workload)
        _assert_clean(result)
        _record(result)
    RUN_STATS["completed_sweeps"].add(model_name)


def test_randomized_cluster_scenarios_uphold_all_invariants(sim_mlp_workload):
    """40 seeded scenarios against 2-4 shard TAOClusters, faults included.

    The same fault kinds and invariant families as the single-service
    campaign, but the front end is a sharded cluster settling on one chain —
    liveness sweeps every shard coordinator, conservation and the gas
    partition are checked fleet-wide.  Every fifth scenario drains the
    model's home shard with a submitted cycle still queued, so the cycle's
    events (faulty actors and all) are withdrawn and re-dispatched to the
    ring successor before being processed.
    """
    failovers_exercised = 0
    for seed in range(40):
        drain = 1 if seed % 5 == 0 else None
        scenario = Scenario(
            name=f"cluster-{seed}",
            seed=2000 + seed,
            model="tiny_mlp",
            num_requests=5 + seed % 3,
            burst="front" if drain is not None else BURSTS[seed % 3],
            n_way=2 + (seed % 3),
            leaf_path=LEAF_PATHS[seed % 3],
            strict_localization=True,
            num_shards=2 + seed % 3,
            drain_home_at_cycle=drain,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        if drain is not None:
            assert result.service.failovers >= 1
            failovers_exercised += 1
    assert failovers_exercised == 8
    RUN_STATS["completed_sweeps"].add("cluster")


def test_randomized_fleet_scenarios_uphold_all_invariants(sim_mlp_workload):
    """12 seeded scenarios against real multi-process fleets, faults included.

    The same invariant families as the cluster campaign, but the shards are
    genuine worker *processes* behind the serialized RPC transport: actors
    travel as wire specs and are built worker-side by the same builder the
    in-process runs use (:mod:`repro.sim.actors`), settlement flows back to
    the shared parent chain as nested chain calls, and liveness/conservation
    sweeps walk the parent-side coordinator snapshots.  Every fourth scenario
    drains the model's home worker with a submitted cycle still queued, so
    the cycle's events (faulty actors and all) are withdrawn and
    re-dispatched to the ring successor across process boundaries.
    """
    failovers_exercised = 0
    for seed in range(12):
        drain = 1 if seed % 4 == 0 else None
        scenario = Scenario(
            name=f"fleet-{seed}",
            seed=4200 + seed,
            model="tiny_mlp",
            num_requests=5 + seed % 3,
            burst="front" if drain is not None else BURSTS[seed % 3],
            n_way=2 + (seed % 3),
            leaf_path=LEAF_PATHS[seed % 3],
            strict_localization=True,
            num_shards=2 + seed % 2,
            drain_home_at_cycle=drain,
            process_fleet=True,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        if drain is not None:
            assert result.service.failovers >= 1
            failovers_exercised += 1
    assert failovers_exercised == 3
    RUN_STATS["completed_sweeps"].add("fleet")


def test_randomized_recovery_scenarios_uphold_all_invariants(sim_mlp_workload):
    """6 seeded crash-recovery scenarios: SIGKILL + journal replay, faults on.

    Each scenario sets ``crash_home_at_cycle``: the runner SIGKILLs the
    model's home worker at the armed cycle's first fresh chain mutation and
    the fleet restarts it from its write-ahead journal, mid-drain.  The full
    invariant battery applies — including the journal family (J1): every
    shard's recorded ``(state, event)`` stream must be a valid run of the
    protocol state machine ending all-terminal.
    """
    for seed in range(6):
        scenario = Scenario(
            name=f"recovery-{seed}",
            seed=5200 + seed,
            model="tiny_mlp",
            num_requests=4 + seed % 3,
            fault_rate=0.6,
            burst="front" if seed % 2 else "trickle",
            n_way=2 + (seed % 2),
            strict_localization=True,
            num_shards=1 + seed % 2,
            process_fleet=True,
            crash_home_at_cycle=seed % 2,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        assert result.service.recoveries >= 1, scenario.name
        # C4, asserted directly: the crash abandoned no task on the chain.
        escrow = settlement_chain(result.service).balances.get(ESCROW_ACCOUNT)
        assert not escrow, scenario.name
    RUN_STATS["completed_sweeps"].add("recovery")


def test_shrinker_preserves_crash_events(sim_mlp_workload):
    """ddmin holds crash events fixed, so shrunk reproducers still crash.

    The canary scenario (zeroed thresholds) violates S1 under journal
    recovery too; the shrinker must keep the ``crash_after`` event in every
    candidate it tries — and in the minimal schedule — so the emitted
    regression replays the SIGKILL + journal-replay path deterministically.
    """
    canary = Scenario(
        name="crash-canary", seed=13, model="tiny_mlp", num_requests=6,
        fault_rate=0.0, force_challenge_rate=0.0, leaf_path="committee",
        threshold_scale=0.0, burst="trickle",
    )
    schedule = expand(canary, sim_mlp_workload.graph,
                      sim_mlp_workload.thresholds)
    # Plant the crash on a mid-schedule event, as crash_home_at_cycle would
    # (threshold_scale forbids process_fleet, so the flag is set directly;
    # the shrinker must preserve it regardless of how the run interprets it).
    events = list(schedule.events)
    events[2] = replace(events[2], crash_after=True)
    schedule = replace(schedule, events=events)

    shrunk = shrink_schedule(schedule, sim_mlp_workload)
    assert any(e.crash_after for e in shrunk.schedule.events), \
        "the crash event was shrunk away"
    assert any(v.rule == "S1" for v in shrunk.violations)
    # The crash event rides along; ddmin still minimizes the rest.
    assert shrunk.minimal_events <= 2
    indices = [e.index for e in shrunk.schedule.events]
    assert indices == sorted(indices)

    emitted = emit_regression_test(shrunk, workload_expr="sim_mlp_workload",
                                   test_name="test_shrunk_crash")
    assert "crash_after=True" in emitted
    compile(emitted, "<shrunk-crash-regression>", "exec")


def test_randomized_elastic_scenarios_uphold_all_invariants(sim_mlp_workload):
    """8 seeded drain -> undrain scenarios, faults included.

    The elastic membership cycle under the full invariant battery: the
    model's home is drained mid-run (queued events withdrawn and
    re-dispatched to the ring successor) and *returned to service* a cycle
    later, so the undrain rebalance re-migrates tenants back onto the
    restored topology while faulty actors from the interregnum are still
    settling.  Two of the eight scenarios run the same choreography against
    real worker processes.
    """
    for seed in range(8):
        drain = seed % 2
        scenario = Scenario(
            name=f"elastic-{seed}",
            seed=5200 + seed,
            model="tiny_mlp",
            num_requests=6 + seed % 3,
            burst="front",
            n_way=2 + (seed % 2),
            leaf_path=LEAF_PATHS[seed % 3],
            strict_localization=True,
            num_shards=2 + seed % 2,
            drain_home_at_cycle=drain,
            undrain_home_at_cycle=drain + 1,
            process_fleet=(seed % 4 == 3),
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        assert result.service.failovers >= 1
    RUN_STATS["completed_sweeps"].add("elastic")


def test_fleet_matches_in_process_reference_on_campaign_template(
        sim_mlp_workload):
    """Differential pin: the fleet is verdict- and ledger-transparent.

    The first 6 seeds of the MLP campaign template are run in-process and
    through a real 2-worker process fleet; per-event statuses, flags and
    challenge bits must agree exactly, and the shared parent chain must land
    on the in-process ledger to float equality — account by account.

    Those seeds draw no ``wrong_weight`` or ``drop_selection`` event and
    never buy the committee, so two more templates bring them in: together
    the runs cover every default fault kind plus a colluding committee,
    pinning the one actor builder (:mod:`repro.sim.actors`) across both
    transports for every family.  Both extra templates were scanned at
    seeds 0-7 (all clean and fleet-equal); the pinned seeds are the first
    two.
    """
    scenarios = [
        Scenario(
            name=f"mlp-{seed}", seed=seed, model="tiny_mlp",
            num_requests=5 + seed % 4, burst=BURSTS[seed % 3],
            n_way=2 + (seed % 3), leaf_path=LEAF_PATHS[seed % 3],
            strict_localization=True,
        )
        for seed in range(6)
    ]
    for seed in range(2):
        scenarios.append(Scenario(
            name=f"mlp-weights-{seed}", seed=seed, model="tiny_mlp",
            num_requests=5, fault_rate=0.6,
            fault_kinds=("wrong_weight", "drop_selection"),
            burst=BURSTS[seed % 3], n_way=2 + (seed % 3),
            leaf_path=LEAF_PATHS[seed % 3], strict_localization=True,
        ))
        scenarios.append(Scenario(
            name=f"mlp-collusion-{seed}", seed=seed, model="tiny_mlp",
            num_requests=5, fault_rate=0.6,
            fault_kinds=("colluding_committee",), leaf_path="committee",
            colluding_committee=True,
        ))
    kinds = set()
    for scenario in scenarios:
        reference = run_scenario(scenario, sim_mlp_workload)
        kinds.update(event.kind for event in reference.schedule.events)
        fleet_run = run_scenario(
            replace(scenario, process_fleet=True, num_shards=2),
            sim_mlp_workload)
        _assert_clean(reference)
        _assert_clean(fleet_run)
        for ref_outcome, fleet_outcome in zip(reference.outcomes,
                                              fleet_run.outcomes):
            assert (fleet_outcome.status, fleet_outcome.flagged,
                    fleet_outcome.challenged) == \
                (ref_outcome.status, ref_outcome.flagged,
                 ref_outcome.challenged), \
                (scenario.name, ref_outcome.event.index)
        ref_chain = reference.service.coordinator.chain
        assert dict(fleet_run.service.chain.balances) == \
            dict(ref_chain.balances)
        assert fleet_run.service.chain.minted == ref_chain.minted
    assert set(DEFAULT_FAULT_KINDS) | {"colluding_committee"} <= kinds


def test_stale_trace_decoys_live_as_long_as_their_run(sim_mlp_workload):
    """The actor builder memoizes decoy traces per session, never across runs.

    The calibrated-committee twin and its reference-tolerance twin commit
    the same graph under different model commitments but draw the same
    decoy seeds.  Run in either order in one process, each twin's outcomes
    must be the same.  The memo is keyed by the run's session — holding
    exactly that run's decoys — and dies with it.
    """
    twins = [
        Scenario(name="decoy-memo", seed=1, model="tiny_mlp",
                 num_requests=5, fault_rate=0.7,
                 fault_kinds=("stale_trace",), calibrated_committee=flag)
        for flag in (True, False)
    ]
    forward = [run_scenario(s, sim_mlp_workload) for s in twins]
    backward = [run_scenario(s, sim_mlp_workload)
                for s in reversed(twins)][::-1]
    sessions = [run.service.model("tiny_mlp").session for run in forward]
    assert sessions[0].model_commitment.digest() != \
        sessions[1].model_commitment.digest()
    for first, second in zip(forward, backward):
        _assert_clean(first)
        assert first.outcomes == second.outcomes
    for run, session in zip(forward, sessions):
        decoy_seeds = {event.decoy_seed for event in run.schedule.events
                       if event.kind == "stale_trace"}
        assert len(decoy_seeds) >= 2
        assert set(sim_actors._DECOYS[session]) == decoy_seeds

    released = weakref.ref(sessions[0])
    del forward, backward, sessions, run, session, first, second
    gc.collect()
    assert released() is None


def test_fleet_rejects_scaled_thresholds(sim_mlp_workload):
    """Worker-side fault rebuilds require the registered == workload table."""
    scenario = Scenario(
        name="fleet-canary", seed=13, model="tiny_mlp", num_requests=2,
        process_fleet=True, threshold_scale=0.5,
    )
    with pytest.raises(ValueError, match="threshold_scale"):
        run_scenario(scenario, sim_mlp_workload)


def test_randomized_multicycle_scenarios_uphold_all_invariants(sim_mlp_workload):
    """24 seeded scenarios whose drains span several cycles, faults included.

    ``cycle_capacity`` 1-2 splits each burst into many cycles, so dispute
    stalls (dropped moves, late challenger moves) and tamper bisections of
    one cycle settle on chain between the submissions of later cycles of the
    same drain.  Every third scenario drains on 2-3 cluster shards — the
    fleet-wide invariant families (shared-ledger conservation, shard-tagged
    gas partition) must hold on multi-cycle shard drains too.

    The scenario names keep the ``pipelined-`` prefix: schedule expansion
    is seeded by the name, so renaming them would change every pinned
    schedule.
    """
    stall_kinds = ("drop_partition", "drop_selection", "late_move")
    for seed in range(24):
        scenario = Scenario(
            name=f"pipelined-{seed}",
            seed=3400 + seed,
            model="tiny_mlp",
            num_requests=6 + seed % 3,
            fault_rate=0.55,
            # Dispute stalls and late moves ride along with strong tampers,
            # so timeout forfeits, slow selections and full bisections land
            # in different cycles of one drain.
            fault_kinds=("bit_flip", "wrong_weight") + stall_kinds,
            burst="uniform",
            n_way=2 + (seed % 3),
            leaf_path=LEAF_PATHS[seed % 3],
            strict_localization=True,
            cycle_capacity=1 + seed % 2,
            num_shards=2 + seed % 2 if seed % 3 == 0 else 1,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        # Some drain really spans > 1 cycle: a burst exceeds the cap.
        assert max(len(burst) for burst in result.schedule.cycles) > \
            scenario.cycle_capacity, scenario.name
    stalls_seen = sum(RUN_STATS["kinds"][kind] for kind in stall_kinds)
    assert stalls_seen > 0, "multicycle sweep scheduled no dispute stalls"
    RUN_STATS["completed_sweeps"].add("multicycle")


#: The dispute-heavy committee-leaf template the defect seeds reproduce
#: under, kept verbatim: schedule expansion is seeded by the scenario *name*
#: as well as the seed, so changing any field here changes every event.
COMMITTEE_DEFECT_KINDS = ("bit_flip", "wrong_weight", "drop_partition",
                          "drop_selection", "late_move")


def _committee_defect_scenario(seed: int) -> Scenario:
    return Scenario(
        name="pipelined-1", seed=seed, model="tiny_mlp", num_requests=7,
        n_way=3, leaf_path="committee", strict_localization=True,
        fault_kinds=COMMITTEE_DEFECT_KINDS, fault_rate=0.55,
    )


def test_randomized_committee_leaf_scenarios_uphold_all_invariants(sim_mlp_workload):
    """24 dispute-heavy committee-leaf scenarios under the calibrated envelope.

    Elevated forced-challenge rate presses honest disputes toward the
    committee leaf and the fault mix covers both escape kinds of the ROADMAP
    defect — the slice of scenario space where the reference tolerance
    produced false verdicts at rare seeds.  Constructions were scanned
    seed-by-seed before pinning (expansion is seeded by scenario name too).
    """
    for i in range(24):
        scenario = Scenario(
            name=f"committee-{i}", seed=3600 + i, model="tiny_mlp",
            num_requests=6 + i % 3, fault_rate=0.55, force_challenge_rate=0.2,
            fault_kinds=COMMITTEE_DEFECT_KINDS, burst="uniform",
            n_way=2 + (i % 3), leaf_path="committee", strict_localization=True,
            cycle_capacity=1 + i % 2,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
    RUN_STATS["completed_sweeps"].add("committee")


@pytest.mark.parametrize("seed,rule,kind", [
    (3001, "S1", "honest"),        # honest forced-challenge proposer slashed
    (3201, "S3", "bit_flip"),      # flagged tamper escaped via committee_vote
    (3000, "S3", "wrong_weight"),  # flagged tamper escaped via committee_vote
])
def test_committee_defect_seeds_closed_by_calibrated_envelope(
        sim_mlp_workload, seed, rule, kind):
    """The ROADMAP committee-leaf defect seeds, pinned as regressions.

    Under the reference tolerance (``calibrated_committee=False``, the
    pre-calibration protocol) each seed reproduces its recorded safety
    violation; under the calibrated envelope the same schedule is
    invariant-clean.  ROADMAP recorded the escapes at seeds 3201/3304; 3304's
    exact pre-PR4 construction is name-seeded and was not reconstructible,
    so the wrong_weight escape is pinned at seed 3000, found by scanning
    this exact template across the 3000/3200/3300 neighbourhoods.
    """
    scenario = _committee_defect_scenario(seed)

    reference = run_scenario(replace(scenario, calibrated_committee=False),
                             sim_mlp_workload)
    assert reference.violations, (
        f"seed {seed} no longer reproduces the defect under the reference "
        f"tolerance — the regression baseline moved"
    )
    assert all(v.family == "safety" and v.rule == rule
               for v in reference.violations), reference.violations
    violating = {v.event_index for v in reference.violations}
    assert any(reference.schedule.events[i].kind == kind for i in violating)

    calibrated = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(calibrated)
    if rule == "S3":
        # The flagged tamper is not merely tolerated — it is now localized
        # and slashed.
        caught = [o for o in calibrated.outcomes
                  if o.event.kind == kind and o.flagged]
        assert caught and all(o.proposer_slashed for o in caught)


def test_committee_calibrated_matches_reference_on_non_defect_campaign(
        sim_mlp_workload):
    """Differential pin: the calibrated envelope is behaviour-preserving.

    On the first 20 seeds of the existing MLP campaign template (all three
    burst patterns, n-ways and leaf paths — none of them defect seeds) the
    calibrated and reference adjudication produce identical per-request
    statuses for every event with a defined verdict.  The one class exempted
    is ``bound_edge``: a perturbation riding *inside* the committed cap
    curve is the paper's tolerated sub-threshold cheat, whose conviction is
    incidental rather than guaranteed (it is excluded from S3 for the same
    reason) — there, either slash direction is protocol-conformant and only
    S2 (a flagged result never finalizes) is pinned.
    """
    bound_edge_events = 0
    for seed in range(20):
        scenario = Scenario(
            name=f"mlp-{seed}", seed=seed, model="tiny_mlp",
            num_requests=5 + seed % 4, burst=BURSTS[seed % 3],
            n_way=2 + (seed % 3), leaf_path=LEAF_PATHS[seed % 3],
            strict_localization=True,
        )
        calibrated = run_scenario(scenario, sim_mlp_workload)
        reference = run_scenario(replace(scenario, calibrated_committee=False),
                                 sim_mlp_workload)
        for cal_outcome, ref_outcome in zip(calibrated.outcomes,
                                            reference.outcomes):
            if cal_outcome.event.kind == "bound_edge":
                bound_edge_events += 1
                if cal_outcome.flagged:
                    assert not cal_outcome.finalized and not ref_outcome.finalized
                continue
            assert cal_outcome.status == ref_outcome.status, (
                scenario.name, cal_outcome.event.index, cal_outcome.event.kind)
        _assert_clean(calibrated)
        _assert_clean(reference)
    assert bound_edge_events > 0, "the template scheduled no bound_edge events"


def test_multicycle_cluster_drain_redispatches_exactly_once(sim_mlp_workload):
    """Mid-cycle shard drain on a one-request-per-cycle cluster: exactly-once
    re-dispatch.

    The home shard is administratively drained with a submitted cycle still
    queued; its events (faulty actors included) must be withdrawn and
    re-dispatched to the ring successor exactly once each — the multi-cycle
    drain on the fallback shard must neither lose a withdrawn request nor
    process one twice — and every invariant family must hold fleet-wide.
    The scenario name is kept verbatim: it seeds the schedule.
    """
    scenario = Scenario(
        name="pipelined-failover", seed=81, model="tiny_mlp",
        num_requests=8, fault_rate=0.6, force_challenge_rate=0.2,
        fault_kinds=("bit_flip", "wrong_weight", "late_move"),
        burst="front", strict_localization=True,
        num_shards=3, drain_home_at_cycle=1,
        cycle_capacity=1,
    )
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    cluster = result.service
    assert cluster.failovers >= 1
    # Cycles 0 and 1 were submitted to the home before its drain; the
    # requests still queued there were withdrawn and re-admitted, under the
    # same ids, on the shard that serves the tenant now.  Each request's
    # task lives on exactly one shard's coordinator: the one that served it.
    (drained,) = cluster.placement.drained_shards
    submitted = sum(len(cycle) for cycle in result.schedule.cycles[:2])
    serving = {}
    for request_id in range(submitted):
        record = cluster.request(request_id)
        assert record.status in TERMINAL_STATUSES
        task = record.report.task
        (serving[request_id],) = [
            shard.shard_id for shard in cluster.shards.values()
            if shard.coordinator.tasks.get(task.task_id) is task]
    redispatched = [request_id for request_id, shard_id in serving.items()
                    if shard_id != drained]
    assert redispatched, "the drain withdrew nothing — no failover exercised"
    assert cluster.redispatched_requests == len(redispatched)
    tasks = sum(len(shard.coordinator.tasks) for shard in cluster.shards.values())
    assert tasks == sum(cluster.request(request_id).report is not None
                        for request_id in range(scenario.num_requests))
    assert cluster.stats().requests_completed == scenario.num_requests


def test_cluster_failover_under_dispute(sim_mlp_workload):
    """Failover while the re-dispatched cycle carries dispute-bound faults.

    The drained cycle's events include strong tampers, so the fallback
    shard inherits requests that immediately escalate to disputes — the
    sharpest failover case: re-dispatched cheats must still be localized
    and slashed on the new shard, and every invariant family must hold
    fleet-wide.
    """
    scenario = Scenario(
        name="cluster-failover-dispute", seed=77, model="tiny_mlp",
        num_requests=6, fault_rate=0.9, force_challenge_rate=0.0,
        fault_kinds=("bit_flip", "wrong_weight"), burst="front",
        strict_localization=True, num_shards=3, drain_home_at_cycle=1,
    )
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    cluster = result.service
    assert cluster.failovers >= 1
    assert cluster.redispatched_requests >= 1
    # The drained shard serves nothing and the tenant moved off it.
    drained = cluster.placement.drained_shards
    assert len(drained) == 1
    assert cluster.location("tiny_mlp") != drained[0]
    # Re-dispatched tampers were caught on the fallback shard: disputes
    # opened on more than zero of the cycle-1+ events, all slashed.
    tampered = [o for o in result.outcomes
                if o.event.strong_tamper and o.flagged]
    assert tampered, "scenario scheduled no flagged strong tampers"
    assert all(o.proposer_slashed for o in tampered)
    # Fleet-wide gas partition: per-shard dispute gas tags are exact on the
    # shared log (dispute ids collide across shards; shard tags resolve them).
    tagged = sum(coordinator.dispute_gas(dispute_id)
                 for coordinator in service_coordinators(cluster)
                 for dispute_id in coordinator.disputes)
    untagged = sum(tx.gas_used for tx in cluster.chain.transactions
                   if tx.details.get("dispute_id") is None)
    assert tagged + untagged == cluster.chain.total_gas()


def test_colluding_committee_scenarios(sim_mlp_workload):
    """A bought committee majority lets localized cheats escape the leaf.

    Safety's strong form (S3) is conditioned on an honest majority, so the
    run must be invariant-clean — but the flagged cheats must visibly end in
    ``challenger_slashed`` (never ``finalized``: S2 is unconditional).
    """
    escaped = 0
    for seed in range(4):
        scenario = Scenario(
            name=f"collusion-{seed}",
            seed=500 + seed,
            model="tiny_mlp",
            num_requests=5,
            fault_rate=0.6,
            fault_kinds=("colluding_committee",),
            leaf_path="committee",
            colluding_committee=True,
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        for outcome in result.outcomes:
            if outcome.event.kind == "colluding_committee" and outcome.flagged:
                assert outcome.status == TaskStatus.CHALLENGER_SLASHED.value
                assert not outcome.finalized
                escaped += 1
    assert escaped > 0, "collusion scenarios never exercised the leaf escape"


# ----------------------------------------------------------------------
# Targeted fault-path pins
# ----------------------------------------------------------------------

def test_stale_trace_settled_by_input_binding_fraud(sim_mlp_workload):
    """A replayed trace is caught by the H(x) binding check, not a game."""
    scenario = Scenario(
        name="stale-pin", seed=42, model="tiny_mlp", num_requests=4,
        fault_rate=1.0, fault_kinds=("stale_trace",), force_challenge_rate=0.0,
    )
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    stale = [o for o in result.outcomes if o.event.kind == "stale_trace"]
    assert stale, "expansion scheduled no stale_trace events"
    for outcome in stale:
        assert outcome.status == TaskStatus.PROPOSER_SLASHED.value
        assert outcome.dispute_path == "input_binding"


def test_dropped_moves_resolve_by_timeout(sim_mlp_workload):
    """Dropped partition => proposer slashed; dropped selection => challenger."""
    dropped_partitions = dropped_selections = 0
    for seed in range(6):
        scenario = Scenario(
            name=f"drops-{seed}", seed=900 + seed, model="tiny_mlp",
            num_requests=4, fault_rate=0.9, force_challenge_rate=0.0,
            fault_kinds=("drop_partition", "drop_selection"),
        )
        result = run_scenario(scenario, sim_mlp_workload)
        _assert_clean(result)
        _record(result)
        for outcome in result.outcomes:
            if not outcome.flagged:
                continue
            if outcome.event.kind == "drop_partition":
                assert outcome.status == TaskStatus.PROPOSER_SLASHED.value
                dropped_partitions += 1
            elif outcome.event.kind == "drop_selection":
                assert outcome.status == TaskStatus.CHALLENGER_SLASHED.value
                dropped_selections += 1
    assert dropped_partitions > 0 and dropped_selections > 0


def test_device_drift_is_tolerated(sim_mlp_workload):
    """An honest proposer drifting across the calibrated fleet finalizes."""
    scenario = Scenario(
        name="drift-pin", seed=7, model="tiny_mlp", num_requests=6,
        fault_rate=1.0, fault_kinds=("device_drift",), force_challenge_rate=0.0,
    )
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    for outcome in result.outcomes:
        assert outcome.event.kind == "device_drift"
        assert outcome.status == TaskStatus.FINALIZED.value


# ----------------------------------------------------------------------
# The checker itself: canary + tamper detection per family
# ----------------------------------------------------------------------

def test_canary_broken_thresholds_caught_and_shrunk(sim_mlp_workload):
    """Zero thresholds slash honest proposers: S1 fires, ddmin shrinks to 1.

    This is the sanity canary for the whole harness: if the safety family
    ever stops catching a deliberately broken protocol, this test fails.
    """
    canary = Scenario(
        name="canary", seed=13, model="tiny_mlp", num_requests=8,
        fault_rate=0.0, force_challenge_rate=0.0, leaf_path="committee",
        threshold_scale=0.0,
    )
    schedule = expand(canary, sim_mlp_workload.graph, sim_mlp_workload.thresholds)
    result = run_schedule(schedule, sim_mlp_workload)
    assert result.violations, "broken thresholds were not caught"
    assert all(v.family == "safety" and v.rule == "S1" for v in result.violations)

    shrunk = shrink_schedule(schedule, sim_mlp_workload)
    assert shrunk.original_events == 8
    assert shrunk.minimal_events == 1, (
        f"expected a 1-minimal counterexample, got {shrunk.minimal_events} events"
    )
    assert any(v.rule == "S1" for v in shrunk.violations)

    emitted = emit_regression_test(
        shrunk, workload_expr="sim_mlp_workload", test_name="test_shrunk_canary")
    assert "def test_shrunk_canary()" in emitted
    assert "RequestEvent(" in emitted
    assert "run_schedule" in emitted
    assert "threshold_scale=0.0" in emitted
    compile(emitted, "<shrunk-regression>", "exec")  # paste-ready = parseable


def test_conservation_family_detects_ledger_tampering(sim_mlp_workload):
    """Minting out of thin air / burning into the void trips C1."""
    scenario = Scenario(name="ledger", seed=3, model="tiny_mlp", num_requests=3,
                        fault_rate=0.0, force_challenge_rate=0.0)
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    chain = result.service.coordinator.chain
    chain.balances["thief"] = chain.balances.get("thief", 0.0) + 1.0
    violations = check_invariants(result)
    assert any(v.rule == "C1" for v in violations)
    chain.balances["thief"] -= 2.0
    violations = check_invariants(result)
    assert any(v.rule == "C3" for v in violations)


@pytest.mark.parametrize("tier", ["service", "cluster", "fleet"])
def test_escrow_family_detects_a_planted_leak(sim_mlp_workload, tier):
    """C4: once every task is terminal the escrow is empty, so one unit
    left there (minted, so C1 still balances) is a violation on every
    tier — a fleet's included, whose coordinators are parent-side
    mirrors."""
    scenario = Scenario(name=f"escrow-{tier}", seed=21, model="tiny_mlp",
                        num_requests=6, fault_rate=0.7,
                        fault_kinds=("bit_flip", "wrong_weight"),
                        num_shards=1 if tier == "service" else 2,
                        process_fleet=tier == "fleet")
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    settlement_chain(result.service).fund(ESCROW_ACCOUNT, 1.0)
    violations = check_invariants(result)
    assert [v.rule for v in violations] == ["C4"]
    assert ESCROW_ACCOUNT in violations[0].message


def test_liveness_family_detects_stuck_tasks(sim_mlp_workload):
    """A task forced back to PENDING after the drain trips L1."""
    scenario = Scenario(name="stuck", seed=4, model="tiny_mlp", num_requests=3,
                        fault_rate=0.0, force_challenge_rate=0.0)
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    task = next(iter(result.service.coordinator.tasks.values()))
    task.status = TaskStatus.PENDING
    violations = check_invariants(result)
    assert any(v.family == "liveness" and v.rule == "L1" for v in violations)


def test_gas_partition_exactness_under_multiplexing(sim_mlp_workload):
    """C2 on a dispute-heavy run: tagged + untagged gas == total gas."""
    scenario = Scenario(name="gasful", seed=21, model="tiny_mlp",
                        num_requests=8, fault_rate=0.7,
                        fault_kinds=("bit_flip", "wrong_weight"))
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    coordinator = result.service.coordinator
    assert len(coordinator.disputes) >= 2, "scenario opened too few disputes"
    tagged = sum(coordinator.dispute_gas(d) for d in coordinator.disputes)
    untagged = sum(tx.gas_used for tx in coordinator.chain.transactions
                   if tx.details.get("dispute_id") is None)
    assert tagged + untagged == coordinator.chain.total_gas()


@pytest.mark.parametrize("tier", ["service", "cluster", "fleet"])
def test_gas_partition_detects_running_total_drift(sim_mlp_workload, tier):
    """C2 reads each game's running gas total, so one unit of drift in one
    dispute's accumulator (a fleet worker's parent-side mirror included)
    is a violation, and restoring the total clears it."""
    scenario = Scenario(name=f"drift-{tier}", seed=21, model="tiny_mlp",
                        num_requests=8, fault_rate=0.7,
                        fault_kinds=("bit_flip", "wrong_weight"),
                        num_shards=1 if tier == "service" else 2,
                        process_fleet=tier == "fleet")
    result = run_scenario(scenario, sim_mlp_workload)
    _assert_clean(result)
    _record(result)
    coordinator = next(c for c in service_coordinators(result.service)
                       if c.disputes)
    dispute_id = min(coordinator.disputes)
    gas = coordinator.dispute_gas(dispute_id)

    def set_gas(value):
        if tier == "fleet":
            dispute = coordinator.disputes[dispute_id]
            coordinator.apply({"tasks": [], "disputes": [{
                "dispute_id": dispute_id, "task_id": dispute.task_id,
                "phase": dispute.phase.value,
                "adjudication_path": dispute.adjudication_path,
                "gas_used": value}]})
        else:
            # Drift enters through one action's entry, the way a dropped
            # or doubled add would leave it.
            by_action = coordinator.dispute(dispute_id).gas_by_action
            action = min(by_action)
            by_action[action] += value - coordinator.dispute_gas(dispute_id)

    set_gas(gas + 1)
    violations = check_invariants(result)
    assert [v.rule for v in violations] == ["C2"]
    set_gas(gas)
    assert check_invariants(result) == []


# ----------------------------------------------------------------------
# Closing summary: the acceptance bar
# ----------------------------------------------------------------------

def test_adaptive_campaign_sweep_upholds_all_invariants():
    """The SPRT-bounded adaptive campaign slice (CI's long-horizon leg).

    An :class:`~repro.sim.adversary.AdaptiveAdversary` anneals tamper
    magnitudes toward the detection boundary, probes committee collusion,
    and conditions its cheat rate on the carried stake ledger — all cycles
    threaded through one persistent ledger.  The sequential tests bound the
    slice: each invariant family accepts after 29 clean cycles
    (``p1=0.1, beta=0.05``), so CI pays for exactly as much campaign as the
    error budget requires while the nightly sweep runs the same machinery
    10x deeper.
    """
    from repro.sim import Campaign, CampaignConfig, SPRTConfig

    config = CampaignConfig(
        cycles=36,
        batch_size=4,
        seed=11,
        sprt=SPRTConfig(p1=0.1, beta=0.05),
        early_stop=True,
        challenger_opening_stake=500.0,
    )
    result = Campaign(config).run()
    assert not result.violations, result.violations
    # The sequential tests genuinely bounded the slice: every family
    # accepted its zero-violation-rate hypothesis before the cycle budget.
    assert all(v == "accept_clean" for v in result.verdicts.values()), \
        result.verdicts
    assert result.scenarios_run < config.cycles
    assert result.scenarios_run >= config.sprt.acceptance_samples
    # The adversary adapted: annealed brackets narrowed from their initial
    # spans, and the stake-aware policy saw the weak-challenger regime.
    assert all(b.rounds > 0 for b in result.boundaries.values())
    assert any(r.challenger_weak for r in result.records)
    RUN_STATS["scenarios"] += result.scenarios_run
    RUN_STATS["workloads"].add(config.workload)
    for rows in result.event_rows:
        for row in rows:
            RUN_STATS["kinds"][row["kind"]] += 1
            RUN_STATS["statuses"][row["status"]] += 1
    RUN_STATS["completed_sweeps"].add("adaptive")


def test_simulation_campaign_meets_acceptance_bar():
    """>= 200 scenarios, >= 6 fault models, all four zoo workloads."""
    if RUN_STATS["completed_sweeps"] != CAMPAIGN_SWEEPS:
        pytest.skip("campaign sweeps were deselected or sharded; "
                    f"ran {sorted(RUN_STATS['completed_sweeps'])}")
    assert RUN_STATS["scenarios"] >= 200, RUN_STATS["scenarios"]
    fault_kinds_exercised = {
        kind for kind, count in RUN_STATS["kinds"].items()
        if kind != "honest" and count > 0
    }
    assert len(fault_kinds_exercised) >= 6, sorted(fault_kinds_exercised)
    assert fault_kinds_exercised <= set(FAULT_KINDS)
    assert set(ZOO_WORKLOADS) <= RUN_STATS["workloads"]
    # Every terminal status was reached somewhere in the campaign.
    for status in (TaskStatus.FINALIZED.value, TaskStatus.PROPOSER_SLASHED.value,
                   TaskStatus.CHALLENGER_SLASHED.value):
        assert RUN_STATS["statuses"][status] > 0, RUN_STATS["statuses"]
