"""Adaptive campaigns: determinism pin, annealing, stake dynamics, carry-over.

The load-bearing test here is the determinism pin: a campaign fanned across
worker processes must be *byte-identical* to the single-process reference —
same per-scenario verdict fingerprints, same final stake ledger, same minted
total — for the same seeds, under any completion interleaving.  Everything
the campaign reports (boundary estimates, economics series, SPRT verdicts)
inherits its reproducibility from that pin.

The annealer convergence seeds below were chosen by scanning (per the
seed-hazard guidance in ``docs/simulator.md``): seeds 0-7 all collapse the
``bound_edge`` bracket into the scanned detection band [0.05, 0.9] within 18
rounds with zero certain-zone escapes; the pinned subset is representative,
not cherry-picked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol.economics import EconomicParameters
from repro.sim import (
    BoundaryAnnealer,
    Campaign,
    CampaignConfig,
    CollusionConfig,
    CollusionStakeStrategy,
    Scenario,
    SPRTConfig,
    StakeAwareCheatPolicy,
    run_scenario,
)
from repro.sim.campaign import CampaignRunner, campaign_workload, run_campaign_scenario
from repro.utils.rng import derive_seed
from repro.utils.serialization import canonical_bytes, decode_canonical


@pytest.fixture(scope="module")
def campaign_mlp():
    return campaign_workload("campaign_mlp")


# ----------------------------------------------------------------------
# Determinism pin: multiprocess == inline, byte for byte
# ----------------------------------------------------------------------

def test_campaign_is_byte_identical_across_worker_counts():
    """2-worker campaign == single-process reference: fingerprints + ledger.

    The per-scenario verdict fingerprints (sha256 over the canonical event
    rows) and the final stake ledger must match exactly — not approximately
    — because both paths execute the same ``run_campaign_scenario`` code on
    the same carried snapshots and the fold consumes results in cycle
    order, regardless of which worker finished first.
    """
    base = dict(cycles=8, batch_size=4, seed=7,
                challenger_opening_stake=500.0)
    inline = Campaign(CampaignConfig(**base, num_workers=0)).run()
    fanned = Campaign(CampaignConfig(**base, num_workers=2)).run()
    assert inline.fingerprints == fanned.fingerprints
    assert inline.ledger == fanned.ledger
    assert inline.minted == fanned.minted
    assert inline.campaign_fingerprint() == fanned.campaign_fingerprint()
    assert inline.ledger_fingerprint() == fanned.ledger_fingerprint()
    assert [r.fingerprint for r in inline.records] == \
        [r.fingerprint for r in fanned.records]
    assert not inline.violations and not fanned.violations


def test_campaign_scenarios_round_trip_the_canonical_codec(campaign_mlp):
    """Scenario specs survive the wire framing workers actually receive."""
    scenario = Scenario(
        name="wire-trip", seed=3, model="campaign_mlp", num_requests=3,
        fault_kinds=("bit_flip", "device_drift"), drift_devices=(1, 3),
    ).with_magnitude("bit_flip", 7.0)
    payload = decode_canonical(canonical_bytes(scenario.to_payload()))
    assert Scenario.from_payload(payload) == scenario


def test_worker_errors_propagate_to_the_parent():
    runner = CampaignRunner("campaign_mlp", num_workers=1)
    try:
        # An unknown leaf path is rejected by the runner's service builder —
        # inside the worker, whose error must surface.
        bad = Scenario(name="bad", seed=0, model="campaign_mlp",
                       leaf_path="no_such_leaf")
        with pytest.raises(RuntimeError,
                           match="campaign worker 0 failed: ValueError"):
            runner.run_round([(0, bad)], {})
    finally:
        runner.close()


@pytest.mark.parametrize("num_workers", [0, 1])
def test_rounds_refuse_process_fleet_scenarios_at_every_worker_count(
        num_workers):
    """A campaign worker is daemonic and cannot spawn a fleet, so a round
    refuses ``process_fleet`` scenarios — inline too, so the verdict never
    depends on the worker count — before any job is dispatched."""
    clean = Scenario(name="clean", seed=1, model="campaign_mlp",
                     num_requests=2, fault_rate=0.0)
    fleet = Scenario(name="fleet-job", seed=0, model="campaign_mlp",
                     num_requests=2, process_fleet=True)
    with CampaignRunner("campaign_mlp", num_workers=num_workers) as runner:
        with pytest.raises(ValueError, match="fleet-job"):
            runner.run_round([(0, clean), (1, fleet)], {})
        # Nothing was dispatched: the next round's replies are its own.
        frames = runner.run_round([(5, clean)], {})
    assert list(frames) == [5]
    assert frames[5]["fingerprint"] == \
        run_campaign_scenario(clean, campaign_workload("campaign_mlp"),
                              {})["fingerprint"]


# ----------------------------------------------------------------------
# Stake carry-over across cycles
# ----------------------------------------------------------------------

def test_campaign_threads_stakes_across_cycles_and_conserves_value():
    """Balances carried cycle to cycle; sum(ledger) == total minted, exactly.

    Each scenario runs on a fresh chain seeded from the carried ledger, so
    within-scenario conservation (invariant C1) extends to the campaign:
    the final ledger sums to the pre-seeded stakes plus everything minted
    inside scenarios plus the recorded subsidies — no value appears or
    vanishes at the fold.
    """
    result = Campaign(CampaignConfig(cycles=8, batch_size=4, seed=3)).run()
    assert not result.violations
    assert sum(result.ledger.values()) == pytest.approx(result.minted, abs=1e-6)
    # Adversarial proposer stakes genuinely moved: slashes from earlier
    # cycles are visible in later cycles' policy reads.
    opening = result.config.initial_balance
    assert any(r.proposer_stake < opening for r in result.records)
    # The same standing accounts persist (not re-minted): every cycle's
    # scenario reuses the sim-proposer-* accounts the first round created.
    sim_accounts = [a for a in result.ledger if a.startswith("sim-proposer-")]
    assert len(sim_accounts) == result.config.requests_per_cycle


def test_carried_chain_is_not_reminted(campaign_mlp):
    """fund_once semantics: a carried account keeps its balance."""
    scenario = Scenario(name="carry", seed=1, model="campaign_mlp",
                        num_requests=2, fault_rate=0.0)
    frame = run_campaign_scenario(scenario, campaign_mlp,
                                  {"campaign_mlp-user": 1234.0})
    # The user account existed in the carried ledger, so setup's fund_once
    # skipped it: its delta reflects only fees paid, never a fresh mint.
    assert frame["balance_delta"]["campaign_mlp-user"] < 0
    assert frame["minted_delta"] > 0  # other standing accounts did mint


# ----------------------------------------------------------------------
# Boundary annealing (regression-pinned seeds; see module docstring)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_annealer_converges_into_the_detection_band(campaign_mlp, seed):
    """Stochastic bisection lands inside the cap-curve detection band.

    The scanned band for ``bound_edge`` on the campaign MLP: magnitudes
    below ~0.05 always escape, above ~0.9 are always caught, the middle is
    stochastic (victim and input dependent).  Within 18 rounds the bracket
    must collapse into the band — and nothing probed in the certain-
    detection zone may ever escape uncaught.
    """
    annealer = BoundaryAnnealer("bound_edge", seed)
    certain_zone_escapes = 0
    for round_index in range(18):
        magnitude = annealer.propose()
        scenario = Scenario(
            name=f"anneal-pin-{round_index}",
            seed=derive_seed(seed, "anneal-round", round_index),
            model="campaign_mlp", num_requests=2, fault_rate=1.0,
            fault_kinds=("bound_edge",),
        ).with_magnitude("bound_edge", magnitude)
        result = run_scenario(scenario, campaign_mlp)
        assert not result.violations, result.violations
        for outcome in result.outcomes:
            if outcome.event.kind != "bound_edge":
                continue
            caught = outcome.flagged or outcome.proposer_slashed
            if not caught and outcome.finalized and magnitude >= 0.9:
                certain_zone_escapes += 1
            annealer.observe(magnitude, caught)
    estimate = annealer.estimate()
    assert annealer.converged(0.05), (estimate.lo, estimate.hi)
    assert 0.05 <= estimate.lo <= estimate.hi <= 0.9, estimate
    assert certain_zone_escapes == 0
    assert estimate.caught > 0 and estimate.escaped > 0


def test_annealer_bracket_never_inverts():
    """Noisy verdicts are clamped: lo <= hi always, inversions counted."""
    annealer = BoundaryAnnealer("bound_edge", seed=0)
    annealer.observe(1.5, caught=True)   # hi -> 1.5
    annealer.observe(0.3, caught=False)  # lo -> 0.3
    annealer.observe(0.2, caught=True)   # catch below a known escape:
    assert annealer.inversions == 1      # counted, bracket untouched
    assert annealer.lo == 0.3 and annealer.hi == 1.5
    annealer.observe(0.8, caught=True)   # inside bracket: hi shrinks
    assert annealer.hi == 0.8
    annealer.observe(1.7, caught=False)  # escape above hi: inversion
    assert annealer.inversions == 2
    assert annealer.lo <= annealer.hi


# ----------------------------------------------------------------------
# Stake-aware EV policy
# ----------------------------------------------------------------------

def test_cheat_rate_conditions_on_challenger_stake():
    """The EV rule flips regimes exactly as the economics tables predict.

    Under low audit pressure (phi = 0.05) a healthy challenger keeps
    cheating EV-negative; a challenger whose stake cannot cover its deposit
    zeroes the voluntary-challenge channel and flips cheap cheating
    EV-positive (ev_cheat ~ 52.75 > ev_honest = 40 at the feasible-midpoint
    slash) — so the adversary's scheduled fault rate jumps.
    """
    policy = StakeAwareCheatPolicy(
        EconomicParameters(audit_probability=0.05))
    strong = policy.decide(proposer_stake=10_000.0, challenger_stake=10_000.0)
    weak = policy.decide(proposer_stake=10_000.0, challenger_stake=500.0)
    broke = policy.decide(proposer_stake=100.0, challenger_stake=500.0)
    assert strong.ev_cheat < strong.ev_honest
    assert not strong.challenger_weak
    assert weak.challenger_weak
    assert weak.ev_cheat > weak.ev_honest
    assert weak.fault_rate > strong.fault_rate
    assert broke.proposer_broke and broke.fault_rate == 0.0
    assert weak.detection < strong.detection


def test_campaigns_schedule_more_faults_against_a_weak_challenger():
    """End to end: the depleted-challenger campaign cheats at the ceiling."""
    base = dict(cycles=4, batch_size=4, seed=5)
    healthy = Campaign(CampaignConfig(**base)).run()
    depleted = Campaign(CampaignConfig(
        **base, challenger_opening_stake=500.0)).run()
    assert all(not r.challenger_weak for r in healthy.records)
    assert all(r.challenger_weak for r in depleted.records)
    assert depleted.records[0].fault_rate > healthy.records[0].fault_rate


# ----------------------------------------------------------------------
# Committee collusion and Sybil stake dynamics
# ----------------------------------------------------------------------

def test_collusion_wins_grow_colluder_stakes():
    strategy = CollusionStakeStrategy(seed=1)
    opening = strategy.stakes.copy()
    strategy.observe_cycle(adjudications=3, colluded=True, escaped=3)
    colluders = strategy.colluder_indices
    assert np.all(strategy.stakes[colluders] > opening[colluders])
    assert strategy.escapes == 3
    assert len(strategy.trajectory) == 2


def test_collusion_losses_drain_colluders_and_trigger_sybil_resplit():
    """A losing streak dries one Sybil identity first; the pool re-splits."""
    # Opening stakes [200, 186.7, 173.3]: the junior colluder dries first
    # (~33 losing adjudications), the pooled ~56 still floats two seats at
    # the 25 floor, so the re-split fires once before the pool itself dies.
    strategy = CollusionStakeStrategy(
        CollusionConfig(member_stake=200.0, seat_cost=5.0, stake_floor=25.0),
        seed=2)
    for _ in range(60):
        strategy.observe_cycle(adjudications=1, colluded=True, escaped=0)
        if not strategy.colluding_majority():
            break
    assert strategy.sybil_resplits >= 1
    # Eventually the pool itself cannot float the floor: collusion dies.
    assert not strategy.colluding_majority()


def test_extrapolation_is_seeded_and_shaped():
    strategy = CollusionStakeStrategy(seed=9)
    a = strategy.extrapolate(200, dispute_rate=1.5, escape_rate=0.9)
    b = CollusionStakeStrategy(seed=9).extrapolate(
        200, dispute_rate=1.5, escape_rate=0.9)
    assert a.shape == (201, strategy.config.committee_size)
    assert np.array_equal(a, b)
    # Winning collusion compounds; the honest seat merely collects fees.
    assert a[-1, 0] > a[0, 0]


def test_campaign_collusion_probes_feed_the_stake_game():
    result = Campaign(CampaignConfig(cycles=12, batch_size=4, seed=3)).run()
    collusion_cycles = [r for r in result.records if r.mode == "collusion"]
    assert collusion_cycles, "campaign never probed collusion"
    assert any(r.escaped > 0 for r in collusion_cycles)
    strategy = result.adversary.collusion
    assert strategy.cycles == len(collusion_cycles)
    assert len(strategy.trajectory) == len(collusion_cycles) + 1


# ----------------------------------------------------------------------
# Heterogeneous-fleet drift
# ----------------------------------------------------------------------

def test_drift_devices_enter_and_leave_mid_campaign():
    """The device pool varies across cycles and drift draws respect it."""
    result = Campaign(CampaignConfig(cycles=12, batch_size=4, seed=3)).run()
    pools = {r.drift_pool for r in result.records}
    assert len(pools) > 1, "drift schedule never changed the fleet mix"
    assert all(2 <= len(pool) <= 4 for pool in pools)
    drift_rows = [
        (record, row)
        for record, rows in zip(result.records, result.event_rows)
        for row in rows if row["kind"] == "device_drift"
    ]
    assert drift_rows, "campaign scheduled no device_drift events"
    for record, row in drift_rows:
        assert row["drift_device"] in record.drift_pool


def test_default_drift_pool_preserves_pinned_schedules(campaign_mlp):
    """The pool-indexed draw is RNG-stream-identical to the historical one.

    ``expand`` draws ``rng.integers(0, len(pool))``; with the default
    4-device pool that is call-for-call the historical
    ``rng.integers(0, 4)``, so every schedule pinned before pools existed
    expands unchanged.
    """
    from repro.sim import expand

    base = Scenario(name="pin", seed=77, model="campaign_mlp",
                    num_requests=8, fault_rate=0.9,
                    fault_kinds=("device_drift",))
    explicit = Scenario(name="pin", seed=77, model="campaign_mlp",
                        num_requests=8, fault_rate=0.9,
                        fault_kinds=("device_drift",),
                        drift_devices=(0, 1, 2, 3))
    a = expand(base, campaign_mlp.graph, campaign_mlp.thresholds)
    b = expand(explicit, campaign_mlp.graph, campaign_mlp.thresholds)
    assert a.events == b.events


# ----------------------------------------------------------------------
# Scenario value semantics (regression: with_magnitude aliasing)
# ----------------------------------------------------------------------

def test_scenario_magnitudes_never_alias_caller_state():
    """Mutating the dict a scenario was built from cannot change the spec.

    Regression for the adaptive adversary's planning loop: it keeps a
    working magnitude map and mutates it between cycles; a scenario that
    aliased that dict would silently retarget already-planned (possibly
    already-shipped) cycles.
    """
    magnitudes = {"bit_flip": 5.0, "bound_edge": 0.4}
    scenario = Scenario(name="alias", seed=0, model="m",
                        magnitudes=magnitudes)
    magnitudes["bit_flip"] = 99.0
    magnitudes["bound_edge"] = 99.0
    assert scenario.magnitude_for("bit_flip") == 5.0
    assert scenario.magnitude_for("bound_edge") == 0.4


def test_with_magnitude_returns_a_frozen_independent_copy():
    scenario = Scenario(name="copy", seed=0, model="m")
    bumped = scenario.with_magnitude("bit_flip", 3.0)
    assert bumped.magnitude_for("bit_flip") == 3.0
    assert scenario.magnitude_for("bit_flip") != 3.0
    assert isinstance(bumped.magnitudes, tuple)
    assert all(isinstance(pair, tuple) for pair in bumped.magnitudes)
    # Equal content => equal and hash-equal, however it was constructed.
    from_dict = Scenario(name="copy", seed=0, model="m",
                         magnitudes=dict(bumped.magnitudes))
    assert from_dict == bumped
    assert hash(from_dict) == hash(bumped)


def test_scenario_payload_round_trip_freezes_tuples():
    scenario = Scenario(name="trip", seed=2, model="m",
                        fault_kinds=["bit_flip"],  # lists normalize too
                        drift_devices=[0, 2],
                        magnitudes=[("bit_flip", 4.0)])
    assert scenario.fault_kinds == ("bit_flip",)
    assert scenario.drift_devices == (0, 2)
    restored = Scenario.from_payload(scenario.to_payload())
    assert restored == scenario
    assert isinstance(restored.magnitudes, tuple)
