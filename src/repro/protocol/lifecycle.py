"""Phase 0 of the protocol (paper Sec. 2.2): one committed model.

:func:`commit_phase0` calibrates empirical thresholds across the device
fleet (unless a table is given) and commits weights/graph/thresholds (and
the committee envelope); :meth:`~repro.protocol.service.ServiceCore.register_model`,
the front end of every tier, runs it once per registration.
:class:`TAOSession` is the record the home backend then builds from that
commitment and ``register_model`` returns: born committed, it registers the
model with the coordinator and builds the role objects and dispute games
every request of that model uses.  Requests (Phases 1-3) are served by
:class:`~repro.protocol.service.TAOService`, the one request path;
:class:`SessionReport` is what happened to one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bounds.fp_model import BoundMode
from repro.calibration.calibrator import CalibrationConfig, Calibrator
from repro.calibration.thresholds import ExceedanceReport, ThresholdTable
from repro.graph.graph import GraphModule
from repro.merkle.cache import HashCache
from repro.merkle.commitments import ModelCommitment, commit_model
from repro.protocol.coordinator import Coordinator, TaskRecord
from repro.protocol.dispute import DisputeGame, DisputeOutcome
from repro.protocol.roles import (
    AdversarialProposer,
    Challenger,
    CommitteeMember,
    HonestProposer,
    ProposedResult,
    User,
)
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile

#: What a new account is funded with, unless a session is given another sum.
INITIAL_BALANCE = 10_000.0


@dataclass
class SessionReport:
    """Everything that happened to one request."""

    task: TaskRecord
    result: ProposedResult
    challenged: bool
    finalized_optimistically: bool
    verification_reports: List[ExceedanceReport] = field(default_factory=list)
    dispute: Optional[DisputeOutcome] = None

    @property
    def proposer_cheated(self) -> bool:
        return bool(self.dispute and self.dispute.proposer_cheated)

    @property
    def final_status(self) -> str:
        return self.task.status.value


def commit_phase0(graph_module: GraphModule, alpha: float,
                  hash_cache: Optional[HashCache],
                  calibration_inputs: Optional[Iterable[Dict[str, np.ndarray]]],
                  threshold_table: Optional[ThresholdTable], committee_envelope,
                  ) -> Tuple[ThresholdTable, ModelCommitment]:
    """Phase 0: calibrate across :data:`DEVICE_FLEET` unless a table is
    given, then commit weights, graph, thresholds and the committee
    envelope.  :meth:`~repro.protocol.service.ServiceCore.register_model`
    runs it once per registration; a fleet worker re-runs it only to check
    the front end's routing key."""
    if threshold_table is None:
        if calibration_inputs is None:
            raise ValueError("registering a model requires calibration inputs "
                             "or a threshold table")
        calibration = Calibrator(CalibrationConfig(devices=DEVICE_FLEET)) \
            .calibrate(graph_module, calibration_inputs)
        threshold_table = ThresholdTable.from_calibration(calibration, alpha=alpha)
    return threshold_table, commit_model(
        graph_module, threshold_table, cache=hash_cache,
        metadata={"alpha": alpha, "num_operators": graph_module.num_operators},
        committee_envelope=committee_envelope)


class TAOSession:
    """The full TAO pipeline for one committed model, born committed.

    Construction registers the commitment with the coordinator and builds
    the committee; it mints nothing.  The owner's account, like the
    standing roles', is funded once by the front end that registered the
    tenant (:meth:`~repro.protocol.service.ServiceCore.register_model`), so
    a backend re-hosting a tenant (a move, a journal replay) never creates
    money.
    """

    def __init__(
        self,
        graph_module: GraphModule,
        threshold_table: ThresholdTable,
        model_commitment: ModelCommitment,
        coordinator: Optional[Coordinator] = None,
        n_way: int = 2,
        committee_size: int = 3,
        bound_mode: BoundMode = BoundMode.PROBABILISTIC,
        leaf_path: str = "routed",
        initial_balance: float = INITIAL_BALANCE,
        hash_cache: Optional[HashCache] = None,
        committee_factory: Optional[Callable[[int, DeviceProfile], CommitteeMember]] = None,
        committee_envelope=None,
        owner: str = "model-owner",
    ) -> None:
        self.graph_module = graph_module
        self.devices = DEVICE_FLEET
        self.coordinator = coordinator or Coordinator()
        self.hash_cache = hash_cache
        self.n_way = int(n_way)
        self.committee_size = int(committee_size)
        self.bound_mode = bound_mode
        self.leaf_path = leaf_path
        self.initial_balance = float(initial_balance)
        #: Calibrated committee-leaf acceptance envelope
        #: (:class:`~repro.calibration.committee.CommitteeEnvelopeProfile`).
        #: Committed as root ``r_c`` in Phase 0, consulted by committee votes
        #: and by the challenger's selection floor; ``None`` keeps the
        #: reference (pre-calibration) tolerance everywhere.
        self.committee_envelope = committee_envelope
        self.thresholds = threshold_table
        self.model_commitment = model_commitment

        # A tenant re-homed to a worker that hosted it before (drain, then a
        # later rebalance routing it back) is hosted again against a
        # coordinator that already holds the model.  Registration is
        # idempotent for a byte-identical commitment — same guard
        # ``TAOService.adopt_model`` applies — while a *different* model
        # under the same name still trips the coordinator's conflict error.
        registered = self.coordinator.models.get(model_commitment.model_name)
        if registered is None or registered.digest() != model_commitment.digest():
            self.coordinator.register_model(model_commitment, owner=owner)

        # ``committee_factory`` builds committee member ``i`` on a given
        # device; the protocol simulator injects faulty (e.g. colluding)
        # adjudicators here without forking the session wiring.
        factory = committee_factory or (
            lambda i, device: CommitteeMember(f"committee-{i}", device)
        )
        self.committee: List[CommitteeMember] = [
            factory(i, self.devices[i % len(self.devices)])
            for i in range(self.committee_size)
        ]

    # ------------------------------------------------------------------
    # Role factories
    # ------------------------------------------------------------------

    def make_user(self, name: str = "user", fee: float = 10.0,
                  fund: bool = True) -> User:
        if fund:
            self.coordinator.chain.fund_once(name, self.initial_balance)
        return User(name=name, fee_per_request=fee)

    def make_honest_proposer(self, name: str = "proposer",
                             device: Optional[DeviceProfile] = None,
                             fund: bool = True) -> HonestProposer:
        if fund:
            self.coordinator.chain.fund_once(name, self.initial_balance)
        return HonestProposer(name, device or self.devices[0], hash_cache=self.hash_cache)

    def make_adversarial_proposer(self, name: str, perturbations,
                                  device: Optional[DeviceProfile] = None) -> AdversarialProposer:
        self.coordinator.chain.fund_once(name, self.initial_balance)
        return AdversarialProposer(name, device or self.devices[0], perturbations,
                                   hash_cache=self.hash_cache)

    def make_challenger(self, name: str = "challenger",
                        device: Optional[DeviceProfile] = None,
                        fund: bool = True) -> Challenger:
        if fund:
            self.coordinator.chain.fund_once(name, self.initial_balance)
        return Challenger(name, device or self.devices[-1], self.thresholds,
                          hash_cache=self.hash_cache,
                          committee_envelope=self.committee_envelope)

    def make_dispute_game(self) -> DisputeGame:
        """A dispute game wired to this session's commitments and policies.

        :class:`~repro.protocol.service.TAOService` opens one per dispute and
        multiplexes them round-robin over the shared coordinator.
        """
        return DisputeGame(
            coordinator=self.coordinator,
            graph_module=self.graph_module,
            model_commitment=self.model_commitment,
            thresholds=self.thresholds,
            committee=self.committee,
            n_way=self.n_way,
            bound_mode=self.bound_mode,
            leaf_path=self.leaf_path,
            committee_envelope=self.committee_envelope,
        )
