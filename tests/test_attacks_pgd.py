"""Tests for the PGD attack and its evaluation campaign machinery."""

import numpy as np
import pytest

from repro.attacks.evaluation import (
    bucket_target_classes,
    false_positive_rate,
    run_attack_campaign,
)
from repro.attacks.pgd import AttackConfig, PGDAttack
from repro.attacks.projections import empirical_quantile_violation
from repro.bounds.coexec import BoundInterpreter
from repro.bounds.fp_model import BoundMode
from repro.graph.interpreter import Interpreter
from repro.protocol.service import TAOService
from repro.tensorlib.device import REFERENCE_DEVICE
from repro.utils.rng import seeded_rng


def _target(mlp_graph, inputs):
    logits = Interpreter(REFERENCE_DEVICE).run(mlp_graph, inputs).output[0]
    order = np.argsort(logits)
    return int(order[-1]), int(order[-2])  # (original argmax, runner-up)


def test_attack_constructor_validation(mlp_graph, mlp_thresholds):
    with pytest.raises(ValueError):
        PGDAttack(mlp_graph, mode="quantum")
    with pytest.raises(ValueError):
        PGDAttack(mlp_graph, mode="empirical", thresholds=None)
    attacker = PGDAttack(mlp_graph, mode="empirical", thresholds=mlp_thresholds)
    # The committed output is not a perturbation site.
    assert attacker.logits_node not in attacker.perturbation_nodes
    assert len(attacker.perturbation_nodes) > 0


def test_attack_rejects_trivial_target(mlp_graph, mlp_thresholds, mlp_inputs):
    attacker = PGDAttack(mlp_graph, mode="empirical", thresholds=mlp_thresholds,
                         config=AttackConfig(num_steps=2))
    original, _ = _target(mlp_graph, mlp_inputs)
    with pytest.raises(ValueError):
        attacker.attack(mlp_inputs, target_class=original)


def test_empirical_attack_stays_inside_feasible_set(mlp_graph, mlp_thresholds, mlp_inputs):
    attacker = PGDAttack(mlp_graph, mode="empirical", thresholds=mlp_thresholds,
                         config=AttackConfig(num_steps=8))
    _, target = _target(mlp_graph, mlp_inputs)
    result = attacker.attack(mlp_inputs, target_class=target)
    assert result.steps_used <= 8
    assert result.mode == "empirical"
    for name, delta in result.deltas.items():
        ranks, caps = mlp_thresholds.cap_curve(name)
        assert empirical_quantile_violation(delta, ranks, caps) <= 1.0 + 1e-6, name


def test_theoretical_attack_stays_inside_envelope(mlp_graph, mlp_inputs):
    attacker = PGDAttack(mlp_graph, mode="theoretical", bound_mode=BoundMode.PROBABILISTIC,
                         config=AttackConfig(num_steps=8))
    _, target = _target(mlp_graph, mlp_inputs)
    result = attacker.attack(mlp_inputs, target_class=target)
    bounds = BoundInterpreter(REFERENCE_DEVICE).run(mlp_graph, mlp_inputs)
    for name, delta in result.deltas.items():
        tau = bounds.bounds[name]
        assert (np.abs(delta) <= tau + 1e-15).all(), name


def test_attack_makes_nonnegative_progress(mlp_graph, mlp_thresholds, mlp_inputs):
    attacker = PGDAttack(mlp_graph, mode="theoretical", bound_mode=BoundMode.DETERMINISTIC,
                         config=AttackConfig(num_steps=10))
    _, target = _target(mlp_graph, mlp_inputs)
    result = attacker.attack(mlp_inputs, target_class=target)
    assert result.initial_margin > 0
    # The attack can only shrink the margin (or fail to move it), never help the model.
    assert result.final_margin <= result.initial_margin + 1e-9
    assert result.margin_change >= -1e-9
    assert 0.0 <= result.normalized_margin_change <= 1.5
    assert len(result.margin_history) == result.steps_used


def test_unconstrained_attack_succeeds_sanity_check(mlp_graph, mlp_thresholds, mlp_inputs):
    """With absurdly loosened thresholds the PGD machinery must be able to flip
    the decision — establishing that 0% ASR under real thresholds is due to the
    thresholds, not a broken attack."""
    huge = mlp_thresholds.scaled(1e9)
    attacker = PGDAttack(mlp_graph, mode="empirical", thresholds=huge,
                         config=AttackConfig(num_steps=60, step_size_fraction=0.25))
    _, target = _target(mlp_graph, mlp_inputs)
    result = attacker.attack(mlp_inputs, target_class=target)
    assert result.success
    assert result.final_margin < 0


def test_bucket_target_classes_covers_buckets(rng):
    logits = rng.standard_normal(16)
    buckets = bucket_target_classes(logits, seeded_rng(3))
    assert len(buckets) == 5
    original = int(np.argmax(logits))
    assert original not in buckets.values()
    # Lower buckets hold closer (smaller-margin) targets than higher buckets.
    margins = {b: logits[original] - logits[c] for b, c in buckets.items()}
    assert margins[(0.0, 20.0)] <= margins[(80.0, 100.0)]


def test_bucket_target_classes_few_classes(rng):
    logits = rng.standard_normal(3)
    buckets = bucket_target_classes(logits, seeded_rng(0))
    assert len(buckets) >= 1
    assert all(c != int(np.argmax(logits)) for c in buckets.values())


def test_run_attack_campaign_aggregation(mlp_graph, mlp_thresholds, mlp_input_factory):
    dataset = [mlp_input_factory(9100 + i, batch=1) for i in range(2)]
    campaign = run_attack_campaign(
        mlp_graph, dataset, mode="empirical", thresholds=mlp_thresholds,
        attack_config=AttackConfig(num_steps=4), seed=5,
    )
    assert campaign.model_name == "tiny_mlp"
    total_attempts = sum(b.attempts for b in campaign.buckets.values())
    assert total_attempts == len(campaign.results)
    assert total_attempts > 0
    assert 0.0 <= campaign.overall_asr <= 1.0
    rows = campaign.as_rows()
    assert len(rows) == 5
    for row in rows:
        assert row["attempts"] == campaign.buckets[(row["bucket_low"], row["bucket_high"])].attempts
    # Failed attacks under tight thresholds make almost no progress.
    if campaign.failed_normalized_changes:
        assert max(campaign.failed_normalized_changes) < 0.5


@pytest.mark.parametrize("factor, expected", [(None, 0.0), (0.0, 1.0)],
                         ids=["calibrated", "zero-thresholds"])
def test_false_positive_rate_serves_honest_requests(mlp_graph, mlp_thresholds,
                                                    mlp_input_factory, factor, expected):
    """Calibrated thresholds never dispute honest work; zero thresholds always do."""
    thresholds = mlp_thresholds if factor is None else mlp_thresholds.scaled(factor)
    service = TAOService()
    service.register_model(mlp_graph, threshold_table=thresholds)
    dataset = [mlp_input_factory(5000 + i) for i in range(6)]
    assert false_positive_rate(service, "tiny_mlp", dataset) == expected
    stats = service.stats()
    assert stats.requests_completed == 6 and stats.cache_hits == 0
    assert stats.disputes_opened == 6 * expected


def test_false_positive_rate_counts_only_its_dataset(mlp_graph, mlp_thresholds,
                                                     mlp_input_factory):
    """Earlier disputes on the same service do not leak into the rate."""
    service = TAOService()
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    service.submit("tiny_mlp", mlp_input_factory(4999), force_challenge=True)
    service.process()
    assert service.stats().disputes_opened == 1
    dataset = [mlp_input_factory(5000 + i) for i in range(6)]
    assert false_positive_rate(service, "tiny_mlp", dataset) == 0.0
    assert false_positive_rate(service, "tiny_mlp", []) == 0.0
    assert service.stats().disputes_opened == 1


def test_false_positive_rate_refuses_a_rejected_request(mlp_graph, mlp_thresholds,
                                                         mlp_input_factory):
    """A payload that never reaches the chain is an error, not a non-dispute."""
    service = TAOService()
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    with pytest.raises(ValueError, match="rejected: missing graph inputs"):
        false_positive_rate(service, "tiny_mlp", [mlp_input_factory(5000), {}])
