"""Adaptive adversary policies for long-horizon campaigns.

Static scenarios probe the protocol at fixed tamper magnitudes; a rational
cheater instead *learns*.  This module supplies the three learning behaviours
the campaign driver (:mod:`repro.sim.campaign`) composes:

* :class:`BoundaryAnnealer` — seeded stochastic bisection of a fault kind's
  tamper magnitude toward the detection boundary, driven by past
  caught/escaped verdicts.  Detection is monotone in magnitude for the
  annealed kinds (a bigger bit flip, cap-curve factor or weight perturbation
  produces a strictly larger committed-threshold exceedance), so the
  caught/escaped outcomes bracket the boundary from both sides.
* :class:`StakeAwareCheatPolicy` — the economics tables' expected-value rule
  (:mod:`repro.protocol.economics`, paper Sec. 5.5) deciding *whether* to
  cheat at all, conditioned on the live chain stakes: a challenger whose
  carried stake cannot cover the challenger deposit contributes nothing to
  the detection probability, and a proposer whose own stake is nearly
  depleted stops cheating (it cannot afford the slashes) and regenerates by
  serving honestly.
* :class:`CollusionStakeStrategy` — a committee collusion/Sybil strategy
  whose per-member stakes evolve cycle over cycle: colluders split bribes
  when they hold the adjudicating majority, bleed seat costs when they do
  not, and the controlling adversary re-splits its pool across fresh Sybil
  identities when individual seats run dry.  Real protocol cycles feed the
  observed dispute/collusion rates; :meth:`CollusionStakeStrategy.extrapolate`
  then evolves the stake trajectories over thousands of cycles with the
  economics recurrence alone.

Everything is seeded through :func:`repro.utils.rng.derive_seed`, so an
adaptive campaign — despite conditioning on outcomes — is bit-for-bit
repeatable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.protocol.economics import (
    EconomicParameters,
    analyze_incentives,
    detection_probability,
    proposer_payoff_honest,
)
from repro.sim.scenario import Scenario
from repro.utils.rng import derive_seed, seeded_rng

#: Fault kinds whose magnitude the annealer bisects, with the initial
#: bracket (lo, hi) and whether the magnitude is integer-valued.  The
#: brackets span well past both sides of every calibrated workload's
#: detection band: 0 bits / factor 0 / zero perturbation always escapes,
#: while the upper ends are comfortably past the static campaign defaults
#: (``DEFAULT_MAGNITUDES``) that every workload detects.
ANNEALED_KINDS: Dict[str, Tuple[float, float, bool]] = {
    "bit_flip": (0.0, 24.0, True),
    "bound_edge": (0.0, 2.0, False),
    "wrong_weight": (0.0, 1.0, False),
}


@dataclass
class BoundaryEstimate:
    """Where one fault kind's detection boundary landed after annealing."""

    kind: str
    lo: float
    hi: float
    rounds: int
    caught: int
    escaped: int
    #: Observations that contradicted monotone detection (an escape above a
    #: prior catch, or vice versa).  Zero on cleanly monotone kinds; the
    #: annealer clamps rather than inverting its bracket when noise bites.
    inversions: int

    @property
    def estimate(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def width(self) -> float:
        return self.hi - self.lo


class BoundaryAnnealer:
    """Seeded stochastic bisection of one fault kind's tamper magnitude.

    ``lo`` tracks the largest magnitude known to escape, ``hi`` the smallest
    known to be caught.  Each proposal lands at a seeded random point inside
    the middle of the open bracket — stochastic rather than exact bisection,
    so one unlucky probe near the boundary cannot trap the schedule on a
    knife-edge magnitude forever — and observations shrink the bracket from
    whichever side the verdict supports.
    """

    def __init__(self, kind: str, seed: int,
                 bracket: Optional[Tuple[float, float]] = None,
                 integral: Optional[bool] = None) -> None:
        default = ANNEALED_KINDS.get(kind)
        if bracket is None or integral is None:
            if default is None:
                raise ValueError(
                    f"no default bracket for fault kind {kind!r}; pass one")
        self.kind = kind
        self.lo, self.hi = bracket if bracket is not None else default[:2]
        if not self.lo < self.hi:
            raise ValueError("bracket must satisfy lo < hi")
        self.integral = default[2] if integral is None else bool(integral)
        self.rng = seeded_rng(derive_seed(seed, "annealer", kind))
        self.rounds = 0
        self.caught = 0
        self.escaped = 0
        self.inversions = 0

    def propose(self) -> float:
        """Next magnitude to probe: a jittered midpoint of the open bracket."""
        span = self.hi - self.lo
        fraction = 0.35 + 0.3 * float(self.rng.random())
        magnitude = self.lo + span * fraction
        if self.integral:
            magnitude = float(round(magnitude))
            # Integer rounding can pin the proposal on an already-resolved
            # endpoint; nudge inward so every probe carries information.
            magnitude = min(max(magnitude, math.floor(self.lo) + 1.0),
                            math.ceil(self.hi) - 1.0 if self.hi - self.lo > 1
                            else magnitude)
        return float(magnitude)

    def observe(self, magnitude: float, caught: bool) -> None:
        """Fold one verdict into the bracket (clamped, never inverted)."""
        magnitude = float(magnitude)
        self.rounds += 1
        if caught:
            self.caught += 1
            if magnitude <= self.lo:
                self.inversions += 1
            else:
                self.hi = min(self.hi, magnitude)
        else:
            self.escaped += 1
            if magnitude >= self.hi:
                self.inversions += 1
            else:
                self.lo = max(self.lo, magnitude)

    def converged(self, tolerance: float) -> bool:
        return (self.hi - self.lo) <= float(tolerance)

    def estimate(self) -> BoundaryEstimate:
        return BoundaryEstimate(
            kind=self.kind, lo=self.lo, hi=self.hi, rounds=self.rounds,
            caught=self.caught, escaped=self.escaped,
            inversions=self.inversions,
        )


# ---------------------------------------------------------------------------
# Stake-aware expected-value cheating
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheatDecision:
    """One cycle's cheat/honest decision, with the EV terms that drove it."""

    fault_rate: float
    detection: float
    ev_cheat: float
    ev_honest: float
    challenger_weak: bool
    proposer_broke: bool


class StakeAwareCheatPolicy:
    """The economics tables' EV rule, conditioned on live chain stakes.

    The slash amount defaults to the feasible-region midpoint
    (:func:`~repro.protocol.economics.analyze_incentives`), exactly the
    operating point the economics benchmark reports.  The detection channel
    contributed by voluntary challengers (``phi_ch``) is zeroed whenever the
    standing challenger's carried stake cannot cover the challenger deposit
    — the stake-aware term: a rational proposer cheats *more* against a
    broke challenger.  A proposer whose own minimum stake falls below
    ``proposer_stake_floor`` stops scheduling cheats entirely (every slash
    costs a bond it can no longer replace) and regenerates through honest
    serving fees.
    """

    def __init__(self, params: Optional[EconomicParameters] = None,
                 slash: Optional[float] = None,
                 proposer_stake_floor: float = 2_000.0,
                 challenger_stake_floor: float = 1_000.0,
                 explore_rate: float = 0.45,
                 cheat_ceiling: float = 0.85) -> None:
        self.params = params or EconomicParameters()
        self.slash = float(analyze_incentives(self.params, slash=slash).slash)
        self.proposer_stake_floor = float(proposer_stake_floor)
        self.challenger_stake_floor = float(challenger_stake_floor)
        #: Probe rate when cheating is EV-negative: the adversary still pays
        #: for boundary information at a reduced rate, the way a rational
        #: attacker funds reconnaissance.
        self.explore_rate = float(explore_rate)
        self.cheat_ceiling = float(cheat_ceiling)

    def decide(self, proposer_stake: float,
               challenger_stake: float) -> CheatDecision:
        proposer_broke = proposer_stake < self.proposer_stake_floor
        challenger_weak = challenger_stake < self.challenger_stake_floor
        phi_ch = 0.0 if challenger_weak else self.params.challenge_probability
        detection = detection_probability(
            self.params.audit_probability, phi_ch,
            self.params.false_negative_rate)
        ev_cheat = (self.params.task_reward - self.params.cheap_cheat_cost
                    - detection * self.slash)
        ev_honest = proposer_payoff_honest(self.params, self.slash)
        if proposer_broke:
            rate = 0.0
        elif ev_cheat > ev_honest:
            rate = self.cheat_ceiling
        else:
            rate = self.explore_rate
        return CheatDecision(
            fault_rate=rate, detection=detection, ev_cheat=ev_cheat,
            ev_honest=ev_honest, challenger_weak=challenger_weak,
            proposer_broke=proposer_broke,
        )


# ---------------------------------------------------------------------------
# Committee collusion with Sybil stake dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollusionConfig:
    """Knobs of the collusion/Sybil stake game."""

    committee_size: int = 3
    colluders: int = 2
    #: Initial stake per committee seat (chain units).
    member_stake: float = 400.0
    #: Relative stagger of opening stakes across seats (seat ``i`` opens at
    #: ``member_stake * (1 - stake_stagger * i / committee_size)``).  Real
    #: seats never hold identical stakes; without the stagger the colluders
    #: would drain in perfect lockstep and the Sybil re-split leg (one
    #: identity running dry before its siblings) could never fire.
    stake_stagger: float = 0.2
    #: Per-adjudication participation cost every active seat pays (C_a).
    seat_cost: float = 5.0
    #: Fraction of the proposer's escape gain (R_p - C'_p) bribed to the
    #: colluding majority per successful escape.
    bribe_share: float = 0.5
    #: A seat whose stake falls below this can no longer post its
    #: participation bond and drops out of the committee.
    stake_floor: float = 25.0


class CollusionStakeStrategy:
    """Per-member committee stakes evolving under collusion and Sybil churn.

    Honest seats earn the committee fee (clean rulings) or their share of
    the slash (guilty rulings) per :func:`~repro.protocol.economics.committee_member_payoff`.
    Colluding seats vote for the proposer unconditionally: when they hold
    the active majority the ruling is clean and they additionally split the
    bribe pool; when they do not, the ruling goes against them and they eat
    the seat cost with no reward.  The controlling adversary treats its
    colluders as Sybil identities over one stake pool — whenever an
    identity drops below the floor, the pool is re-split equally across all
    ``colluders`` seats (fresh identities are free), unless the whole pool
    itself can no longer float them.
    """

    def __init__(self, config: Optional[CollusionConfig] = None,
                 params: Optional[EconomicParameters] = None,
                 seed: int = 0) -> None:
        self.config = config or CollusionConfig()
        if self.config.colluders > self.config.committee_size:
            raise ValueError("cannot buy more seats than the committee has")
        self.params = params or EconomicParameters()
        self.slash = float(analyze_incentives(self.params).slash)
        self.seed = int(seed)
        n = self.config.committee_size
        steps = np.arange(n, dtype=np.float64)
        self.stakes = self.config.member_stake * (
            1.0 - self.config.stake_stagger * steps / n)
        self.active = np.ones(n, dtype=bool)
        #: Stake trajectory: one row per observed cycle (row 0 = initial).
        self.trajectory: List[np.ndarray] = [self.stakes.copy()]
        self.cycles = 0
        self.collusions = 0
        self.escapes = 0
        self.sybil_resplits = 0

    # -- state ------------------------------------------------------------

    @property
    def colluder_indices(self) -> np.ndarray:
        return np.arange(self.config.colluders)

    def colluding_majority(self) -> bool:
        """Do the *active* colluders hold the adjudicating majority?"""
        needed = (self.config.committee_size // 2) + 1
        return int(self.active[:self.config.colluders].sum()) >= needed

    def should_collude(self) -> bool:
        """Collude only when the bought seats can actually swing the vote."""
        return self.colluding_majority()

    # -- one cycle of the stake game --------------------------------------

    def observe_cycle(self, adjudications: int, colluded: bool,
                      escaped: int = 0) -> None:
        """Fold one real (or extrapolated) protocol cycle into the stakes.

        ``adjudications`` is how many disputes reached the committee this
        cycle; ``colluded`` whether the colluders executed their strategy;
        ``escaped`` how many of those adjudications the collusion won.
        """
        cfg, params = self.config, self.params
        adjudications = int(adjudications)
        escaped = min(int(escaped), adjudications)
        self.cycles += 1
        if colluded:
            self.collusions += 1
        self.escapes += escaped
        for i in range(adjudications):
            collusion_won = colluded and i < escaped
            active = self.active
            self.stakes[active] -= cfg.seat_cost
            if collusion_won:
                # Clean ruling: every active seat collects the committee
                # fee, and the colluders split the proposer's bribe.
                self.stakes[active] += params.committee_fee
                bribe = cfg.bribe_share * (params.task_reward
                                           - params.cheap_cheat_cost)
                colluders = active.copy()
                colluders[cfg.colluders:] = False
                count = int(colluders.sum())
                if count:
                    self.stakes[colluders] += bribe / count
            else:
                # Guilty ruling: honest seats split the committee's reward
                # share of the slash; colluders (who voted clean, if they
                # colluded) get nothing beyond their sunk seat cost.
                reward = (params.committee_reward_share * self.slash
                          / cfg.committee_size)
                honest = active.copy()
                if colluded:
                    honest[:cfg.colluders] = False
                self.stakes[honest] += reward
            self._churn()
        self.trajectory.append(self.stakes.copy())

    def _churn(self) -> None:
        """Drop dry seats; re-split the Sybil pool across fresh identities."""
        cfg = self.config
        dry = self.active & (self.stakes < cfg.stake_floor)
        if not dry.any():
            return
        self.active[dry] = False
        # Sybil leg: the adversary pools its colluding stake and respawns
        # all of its identities whenever the pool still floats them.
        colluder_dry = dry[:cfg.colluders].any()
        if colluder_dry:
            pool = float(self.stakes[:cfg.colluders].sum())
            if pool / cfg.colluders >= cfg.stake_floor:
                self.stakes[:cfg.colluders] = pool / cfg.colluders
                self.active[:cfg.colluders] = True
                self.sybil_resplits += 1

    # -- long-horizon extrapolation ----------------------------------------

    def extrapolate(self, num_cycles: int, dispute_rate: float,
                    escape_rate: float = 1.0,
                    seed_label: str = "extrapolate") -> np.ndarray:
        """Evolve a *copy* of the stake game over thousands of cycles.

        The real campaign observes a few dozen protocol cycles; this runs
        the same per-cycle recurrence forward using the observed dispute
        rate (adjudications per cycle, Poisson-sampled) and the observed
        collusion escape rate, seeded so the trajectory is reproducible.
        Returns an array of shape ``(num_cycles + 1, committee_size)``.
        """
        clone = CollusionStakeStrategy(self.config, self.params, self.seed)
        clone.stakes = self.stakes.copy()
        clone.active = self.active.copy()
        rng = seeded_rng(derive_seed(self.seed, "collusion", seed_label))
        rows = [clone.stakes.copy()]
        for _ in range(int(num_cycles)):
            adjudications = int(rng.poisson(max(dispute_rate, 0.0)))
            colluded = clone.should_collude() and adjudications > 0
            escaped = sum(
                1 for _ in range(adjudications)
                if colluded and rng.random() < escape_rate
            )
            clone.observe_cycle(adjudications, colluded, escaped)
            rows.append(clone.stakes.copy())
        #: How many Sybil re-splits the extrapolated horizon needed (the
        #: real strategy's own counter is left untouched).
        self.last_extrapolation_resplits = clone.sybil_resplits
        return np.stack(rows)


# ---------------------------------------------------------------------------
# The composed adaptive adversary
# ---------------------------------------------------------------------------

class AdaptiveAdversary:
    """Plan each campaign cycle's scenario from everything observed so far.

    Per cycle the adversary:

    * reads the live stakes off the campaign ledger and runs the EV rule
      (:class:`StakeAwareCheatPolicy`) to set the cycle's fault rate;
    * rotates through the annealed fault kinds, probing each at the
      magnitude its :class:`BoundaryAnnealer` proposes — the tamper walks
      toward the detection boundary as verdicts accumulate;
    * every ``collusion_every`` cycles (while its bought seats still hold
      the committee majority) runs a collusion probe instead: a
      committee-leaf scenario with a bought majority, feeding the
      :class:`CollusionStakeStrategy` stake game;
    * draws the cycle's heterogeneous device pool from a seeded drift
      schedule — devices with distinct calibration profiles enter and leave
      mid-campaign, and ``device_drift`` events sample proposers from
      whichever subset is present.

    Scenario seeds derive as ``derive_seed(seed, "campaign-cycle", cycle)``
    and names embed only the cycle index and mode — *not* any observed
    quantity — so identical observation streams yield identical plans and
    the whole campaign replays bit-for-bit (the determinism pin depends on
    this).
    """

    def __init__(self, model: str, seed: int,
                 params: Optional[EconomicParameters] = None,
                 policy: Optional[StakeAwareCheatPolicy] = None,
                 collusion: Optional[CollusionStakeStrategy] = None,
                 requests_per_cycle: int = 5,
                 collusion_every: int = 6,
                 collusion_fault_rate: float = 0.6,
                 device_pool: Tuple[int, ...] = (0, 1, 2, 3),
                 initial_balance: float = 10_000.0,
                 name_prefix: str = "campaign") -> None:
        #: Low audit pressure by default: the regime in which a depleted
        #: challenger flips cheap cheating EV-positive (paper Sec. 5.5) — the
        #: stake-aware policy has something real to react to.
        self.params = params or EconomicParameters(audit_probability=0.05)
        self.policy = policy or StakeAwareCheatPolicy(self.params)
        self.collusion = collusion or CollusionStakeStrategy(
            params=self.params, seed=seed)
        self.annealers: Dict[str, BoundaryAnnealer] = {
            kind: BoundaryAnnealer(kind, seed) for kind in ANNEALED_KINDS
        }
        self.model = model
        self.seed = int(seed)
        self.requests_per_cycle = int(requests_per_cycle)
        self.collusion_every = int(collusion_every)
        self.collusion_fault_rate = float(collusion_fault_rate)
        self.device_pool = tuple(int(d) for d in device_pool)
        self.initial_balance = float(initial_balance)
        self.name_prefix = name_prefix
        self.decisions: List[CheatDecision] = []

    # -- stake reads -------------------------------------------------------

    def proposer_stake(self, ledger: Dict[str, float]) -> float:
        """Worst-off adversarial proposer stake (the EV rule's budget)."""
        stakes = [balance for account, balance in ledger.items()
                  if account.startswith("sim-proposer-")]
        return min(stakes) if stakes else self.initial_balance

    def challenger_stake(self, ledger: Dict[str, float]) -> float:
        return float(ledger.get(f"{self.model}-challenger",
                                self.initial_balance))

    # -- drift schedule ----------------------------------------------------

    def drift_pool(self, cycle: int) -> Tuple[int, ...]:
        """The device subset present during ``cycle`` (seeded, stateless).

        Between 2 and all of ``device_pool`` are present each cycle, so
        drifted proposers keep executing on a fleet whose calibration mix
        shifts mid-campaign.
        """
        rng = seeded_rng(derive_seed(self.seed, "drift", cycle))
        count = len(self.device_pool)
        size = 2 + int(rng.integers(0, count - 1)) if count > 2 else count
        picks = rng.choice(count, size=size, replace=False)
        return tuple(sorted(self.device_pool[int(p)] for p in picks))

    # -- planning ----------------------------------------------------------

    def next_scenario(self, cycle: int,
                      ledger: Dict[str, float]) -> Tuple[Scenario, Dict[str, object]]:
        """Plan cycle ``cycle`` against the current campaign ledger."""
        cycle = int(cycle)
        decision = self.policy.decide(self.proposer_stake(ledger),
                                      self.challenger_stake(ledger))
        self.decisions.append(decision)
        seed = derive_seed(self.seed, "campaign-cycle", cycle)
        pool = self.drift_pool(cycle)
        collusion_probe = (
            self.collusion_every > 0
            and cycle % self.collusion_every == self.collusion_every - 1
            and not decision.proposer_broke
            and self.collusion.should_collude()
        )
        if collusion_probe:
            scenario = Scenario(
                name=f"{self.name_prefix}-collusion-c{cycle}",
                seed=seed,
                model=self.model,
                num_requests=self.requests_per_cycle,
                fault_rate=self.collusion_fault_rate,
                fault_kinds=("colluding_committee",),
                leaf_path="committee",
                colluding_committee=True,
                drift_devices=pool,
            )
            meta: Dict[str, object] = {
                "cycle": cycle, "mode": "collusion", "kind": "colluding_committee",
                "magnitude": scenario.magnitude_for("colluding_committee"),
                "decision": decision, "drift_pool": pool,
            }
            return scenario, meta
        kinds = tuple(self.annealers)
        kind = kinds[cycle % len(kinds)]
        magnitude = self.annealers[kind].propose()
        scenario = Scenario(
            name=f"{self.name_prefix}-{kind}-c{cycle}",
            seed=seed,
            model=self.model,
            num_requests=self.requests_per_cycle,
            fault_rate=decision.fault_rate,
            fault_kinds=(kind, "device_drift"),
            # Annealed magnitudes deliberately straddle the boundary; on the
            # small end a localization-dependent tamper can legitimately
            # dead-end the bisection, so S3's strict form stays off.
            strict_localization=False,
            drift_devices=pool,
        ).with_magnitude(kind, magnitude)
        meta = {
            "cycle": cycle, "mode": "anneal", "kind": kind,
            "magnitude": magnitude, "decision": decision, "drift_pool": pool,
        }
        return scenario, meta

    # -- feedback ----------------------------------------------------------

    def observe(self, meta: Dict[str, object],
                rows: List[Dict[str, object]]) -> Tuple[int, int]:
        """Fold one finished scenario's event rows back into the policies.

        ``rows`` are the campaign result frame's per-event verdict rows.
        Returns ``(caught, escaped)`` for the cycle's planned fault kind.
        """
        kind = str(meta["kind"])
        caught = escaped = 0
        if meta["mode"] == "collusion":
            adjudications = sum(1 for row in rows if row["adjudicated"])
            for row in rows:
                # A collusion win ends with the *challenger* slashed: the
                # bought majority acquits the flagged cheat.
                if row["kind"] == kind and row["status"] == "challenger_slashed":
                    escaped += 1
                elif row["kind"] == kind and row["slashed"]:
                    caught += 1
            self.collusion.observe_cycle(adjudications, colluded=True,
                                         escaped=escaped)
            return caught, escaped
        annealer = self.annealers.get(kind)
        for row in rows:
            if row["kind"] != kind:
                continue
            row_caught = bool(row["flagged"] or row["slashed"])
            if row_caught:
                caught += 1
            elif row["finalized"]:
                escaped += 1
            if annealer is not None:
                annealer.observe(float(meta["magnitude"]), row_caught)
        return caught, escaped

    def boundary_estimates(self) -> Dict[str, BoundaryEstimate]:
        return {kind: annealer.estimate()
                for kind, annealer in self.annealers.items()}
