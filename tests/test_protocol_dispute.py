"""Integration-level tests for the dispute game."""

import numpy as np
import pytest

from repro.graph.interpreter import Interpreter
from repro.merkle.commitments import commit_model
from repro.protocol.coordinator import Coordinator
from repro.protocol.dispute import DisputeGame
from repro.protocol.roles import AdversarialProposer, Challenger, CommitteeMember, HonestProposer
from repro.sim.faults import ColludingCommitteeMember, SimProposer, StaleTraceProposer
from repro.tensorlib.device import DEVICE_FLEET

from test_protocol_coordinator import ENDINGS


@pytest.fixture(scope="module")
def commitment(mlp_graph, mlp_thresholds):
    return commit_model(mlp_graph, mlp_thresholds)


def _setup_dispute(mlp_graph, mlp_thresholds, commitment, proposer, n_way=2,
                   fee=10.0):
    coordinator = Coordinator()
    for account in ("owner", "user", proposer.name, "challenger"):
        coordinator.chain.fund(account, 10_000.0)
    coordinator.register_model(commitment, owner="owner")
    committee = [CommitteeMember(f"cm{i}", DEVICE_FLEET[i % 4]) for i in range(3)]
    game = DisputeGame(coordinator, mlp_graph, commitment, mlp_thresholds,
                       committee=committee, n_way=n_way)
    challenger = Challenger("challenger", DEVICE_FLEET[3], mlp_thresholds)
    return coordinator, game, challenger


def _run_dispute(mlp_graph, mlp_thresholds, commitment, mlp_inputs, proposer, n_way=2):
    coordinator, game, challenger = _setup_dispute(mlp_graph, mlp_thresholds, commitment,
                                                   proposer, n_way=n_way)
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    task = coordinator.submit_result(mlp_graph.name, "user", proposer.name,
                                     result.commitment, fee=10.0)
    outcome = game.run(task, proposer, challenger, result)
    return coordinator, outcome, result


@pytest.mark.parametrize("victim", ["layer_norm", "gelu", "linear_1", "relu"])
def test_dispute_localizes_exactly_the_perturbed_operator(mlp_graph, mlp_thresholds,
                                                          commitment, mlp_inputs, victim):
    proposer = AdversarialProposer("cheater", DEVICE_FLEET[0], {victim: np.float32(0.02)})
    _, outcome, _ = _run_dispute(mlp_graph, mlp_thresholds, commitment, mlp_inputs, proposer)
    assert outcome.proposer_cheated
    assert outcome.localized_operator == victim
    assert outcome.winner == "challenger"
    assert outcome.adjudication is not None


@pytest.mark.parametrize("n_way", [2, 3, 4, 8])
def test_dispute_round_count_scales_logarithmically(mlp_graph, mlp_thresholds, commitment,
                                                    mlp_inputs, n_way):
    proposer = AdversarialProposer("cheater", DEVICE_FLEET[0], {"gelu": np.float32(0.02)})
    _, outcome, _ = _run_dispute(mlp_graph, mlp_thresholds, commitment, mlp_inputs, proposer,
                                 n_way=n_way)
    n_ops = mlp_graph.num_operators
    expected = int(np.ceil(np.log(n_ops) / np.log(n_way))) + 1
    assert outcome.statistics.rounds <= expected
    assert outcome.proposer_cheated


def test_dispute_statistics_accounting(mlp_graph, mlp_thresholds, commitment, mlp_inputs):
    proposer = AdversarialProposer("cheater", DEVICE_FLEET[0], {"linear_1": np.float32(0.02)})
    coordinator, outcome, result = _run_dispute(mlp_graph, mlp_thresholds, commitment,
                                                mlp_inputs, proposer)
    stats = outcome.statistics
    assert stats.rounds == len(stats.per_round)
    # Per-round proof checks plus the input-binding hash check at open
    # (one per graph input).
    assert stats.merkle_checks == \
        len(result.inputs) + sum(r.merkle_checks for r in stats.per_round)
    assert stats.gas_used > 0
    assert stats.dcr_flops > 0
    assert 0.0 < stats.cost_ratio(result.forward_flops) < 20.0
    # Per-round substep times were measured.
    assert all(r.partition_time_s >= 0 and r.selection_time_s >= 0 for r in stats.per_round)
    # Gas recorded by the coordinator matches the outcome.
    assert coordinator.dispute_gas(outcome.dispute_id) == stats.gas_used


def test_unfounded_challenge_loses(mlp_graph, mlp_thresholds, commitment, mlp_inputs):
    """A challenger that disputes an honest result cannot find an offending child
    and loses by timeout (its bond goes to the proposer)."""
    proposer = HonestProposer("honest", DEVICE_FLEET[1])
    coordinator, outcome, _ = _run_dispute(mlp_graph, mlp_thresholds, commitment,
                                           mlp_inputs, proposer)
    assert not outcome.proposer_cheated
    assert outcome.winner == "honest"
    assert outcome.resolved_by_timeout
    assert coordinator.task(outcome.task_id).status.value == "challenger_slashed"


def test_small_perturbation_within_tolerance_survives(mlp_graph, mlp_thresholds, commitment,
                                                      mlp_inputs):
    """A deviation far below the committed thresholds is accepted (tolerance-aware
    verification accepts bounded deviations rather than requiring bitwise equality)."""
    proposer = AdversarialProposer("subtle", DEVICE_FLEET[0], {"gelu": np.float32(1e-9)})
    coordinator, game, challenger = _setup_dispute(mlp_graph, mlp_thresholds, commitment,
                                                   proposer)
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    looks_honest, reports = challenger.verify_result(mlp_graph, result)
    assert looks_honest, "a 1e-9 deviation must not trigger a dispute"


def test_invalid_n_way_rejected(mlp_graph, mlp_thresholds, commitment):
    coordinator = Coordinator()
    with pytest.raises(ValueError):
        DisputeGame(coordinator, mlp_graph, commitment, mlp_thresholds, n_way=1)
    with pytest.raises(ValueError):
        DisputeGame(coordinator, mlp_graph, commitment, mlp_thresholds, leaf_path="oracle")


@pytest.mark.parametrize("leaf_path", ["theoretical", "committee", "routed"])
def test_all_leaf_paths_convict_a_gross_cheat(mlp_graph, mlp_thresholds, commitment,
                                              mlp_inputs, leaf_path):
    proposer = AdversarialProposer("cheater", DEVICE_FLEET[0], {"relu": np.float32(0.05)})
    coordinator = Coordinator()
    for account in ("owner", "user", proposer.name, "challenger"):
        coordinator.chain.fund(account, 10_000.0)
    coordinator.register_model(commitment, owner="owner")
    committee = [CommitteeMember(f"cm{i}", DEVICE_FLEET[i % 4]) for i in range(3)]
    game = DisputeGame(coordinator, mlp_graph, commitment, mlp_thresholds,
                       committee=committee, n_way=4, leaf_path=leaf_path)
    challenger = Challenger("challenger", DEVICE_FLEET[2], mlp_thresholds)
    result = proposer.execute(mlp_graph, commitment, mlp_inputs)
    task = coordinator.submit_result(mlp_graph.name, "user", proposer.name,
                                     result.commitment, fee=10.0)
    outcome = game.run(task, proposer, challenger, result)
    assert outcome.proposer_cheated
    if leaf_path == "committee":
        assert outcome.adjudication.path == "committee_vote"
    elif leaf_path == "theoretical":
        assert outcome.adjudication.path == "theoretical_bound"


def _ending_roles(ending, mlp_graph, mlp_inputs):
    """A proposer, a committee and a leaf path that end a game as ``ending``
    names it (the coordinator-level endings of ``ENDINGS``)."""
    committee = [CommitteeMember(f"cm{i}", DEVICE_FLEET[i % 4]) for i in range(3)]
    cheat = {"gelu": np.float32(0.02)}
    if ending == "adjudicated_cheat":
        return AdversarialProposer("proposer", DEVICE_FLEET[0], cheat), committee, "routed"
    if ending == "adjudicated_clear":
        bought = [ColludingCommitteeMember(f"cm{i}", DEVICE_FLEET[i % 4]) for i in range(3)]
        return AdversarialProposer("proposer", DEVICE_FLEET[0], cheat), bought, "committee"
    if ending == "input_binding":
        stale = {name: value + np.float32(1.0) for name, value in mlp_inputs.items()}
        source = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, stale, record=True)
        return StaleTraceProposer("proposer", DEVICE_FLEET[0], source), committee, "routed"
    if ending == "partition_timeout":
        return (SimProposer("proposer", DEVICE_FLEET[0], partition_delay_s=10_000.0),
                committee, "routed")
    assert ending == "selection_timeout"
    return HonestProposer("proposer", DEVICE_FLEET[1]), committee, "routed"


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_challenger_flops_are_the_games_own_rounds(mlp_graph, mlp_thresholds,
                                                   commitment, mlp_inputs, ending):
    """However a game ends, its challenger FLOPs are the sum of its own
    rounds' — also while a second game, fought by the same challenger,
    is multiplexed with it on one coordinator."""
    _, actions, status = ENDINGS[ending]
    proposer, committee, leaf_path = _ending_roles(ending, mlp_graph, mlp_inputs)
    cheater = AdversarialProposer("cheater", DEVICE_FLEET[0], {"relu": np.float32(0.05)})
    coordinator = Coordinator()
    for account in ("owner", "user", "proposer", "cheater", "challenger"):
        coordinator.chain.fund(account, 10_000.0)
    coordinator.register_model(commitment, owner="owner")
    game = DisputeGame(coordinator, mlp_graph, commitment, mlp_thresholds,
                       committee=committee, n_way=2, leaf_path=leaf_path)
    challenger = Challenger("challenger", DEVICE_FLEET[3], mlp_thresholds)
    actives = []
    for party in (proposer, cheater):
        result = party.execute(mlp_graph, commitment, mlp_inputs)
        task = coordinator.submit_result(mlp_graph.name, "user", party.name,
                                         result.commitment, fee=10.0)
        actives.append(game.open(task, party, challenger, result))
    running = list(actives)
    while running:
        running = [active for active in running if game.step_round(active)]
    outcome, other = [game.conclude(active) for active in actives]

    assert coordinator.task(outcome.task_id).status is status
    assert set(coordinator.dispute_gas_by_action(outcome.dispute_id)) == actions
    assert other.statistics.challenger_flops > 0
    for played in (outcome, other):
        stats = played.statistics
        assert stats.challenger_flops == sum(r.challenger_flops for r in stats.per_round)
