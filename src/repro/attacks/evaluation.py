"""Attack campaign evaluation: ASR, margin progress, bucketing, false positives.

Reproduces the paper's Table 2 / Fig. 5 measurement methodology:

* candidate target classes are bucketed by their logit-margin percentile in
  the honest prediction ([0-20%], ..., [80-100%]) and one target is sampled
  per bucket;
* for each (input, target) pair the PGD attack runs under the chosen bound
  check and scale; success flips the prediction while staying admissible;
* failed attacks report the mean margin change ``delta m_fail`` and the
  normalized change ``delta_fail``;
* false positives are measured by serving honest requests through
  :class:`~repro.protocol.service.TAOService` and counting spurious disputes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.pgd import AttackConfig, AttackResult, PGDAttack
from repro.bounds.fp_model import BoundMode
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.interpreter import Interpreter
from repro.tensorlib.device import DeviceProfile, REFERENCE_DEVICE
from repro.utils.rng import derive_seed, seeded_rng

#: The paper's five margin-percentile buckets.
DEFAULT_BUCKETS: Tuple[Tuple[float, float], ...] = (
    (0.0, 20.0), (20.0, 40.0), (40.0, 60.0), (60.0, 80.0), (80.0, 100.0)
)


def bucket_target_classes(
    logits_row: np.ndarray,
    rng: np.random.Generator,
    buckets: Sequence[Tuple[float, float]] = DEFAULT_BUCKETS,
) -> Dict[Tuple[float, float], int]:
    """Sample one target class per margin-percentile bucket.

    For the honestly predicted class ``c1 = argmax``, every other class ``c``
    has margin ``z_c1 - z_c``; classes are ranked by margin (ascending) and
    assigned to percentile buckets; one class is sampled uniformly from each
    non-empty bucket.
    """
    logits_row = np.asarray(logits_row, dtype=np.float64)
    c1 = int(np.argmax(logits_row))
    candidates = [c for c in range(logits_row.size) if c != c1]
    margins = np.array([logits_row[c1] - logits_row[c] for c in candidates])
    order = np.argsort(margins)
    ranked = [candidates[i] for i in order]
    n = len(ranked)
    chosen: Dict[Tuple[float, float], int] = {}
    for low, high in buckets:
        lo_idx = int(np.floor(low / 100.0 * n))
        hi_idx = int(np.ceil(high / 100.0 * n))
        pool = ranked[lo_idx:max(hi_idx, lo_idx + 1)]
        if not pool:
            continue
        chosen[(low, high)] = int(pool[int(rng.integers(0, len(pool)))])
    return chosen


@dataclass
class BucketOutcome:
    """Aggregated attack outcomes for one margin-percentile bucket."""

    bucket: Tuple[float, float]
    attempts: int = 0
    successes: int = 0
    failed_margin_changes: List[float] = field(default_factory=list)
    failed_normalized_changes: List[float] = field(default_factory=list)

    @property
    def asr(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    @property
    def mean_failed_margin_change(self) -> float:
        return float(np.mean(self.failed_margin_changes)) if self.failed_margin_changes else 0.0

    @property
    def mean_failed_normalized_change(self) -> float:
        return (float(np.mean(self.failed_normalized_changes))
                if self.failed_normalized_changes else 0.0)

    def as_row(self) -> Dict[str, float]:
        return {
            "bucket_low": self.bucket[0],
            "bucket_high": self.bucket[1],
            "attempts": self.attempts,
            "asr_percent": 100.0 * self.asr,
            "mean_dm_fail": self.mean_failed_margin_change,
            "mean_delta_fail": self.mean_failed_normalized_change,
        }


@dataclass
class AttackCampaignResult:
    """Full campaign outcome across buckets (one Table 2 row group)."""

    model_name: str
    mode: str
    bound_scale: float
    bound_mode: Optional[str]
    buckets: Dict[Tuple[float, float], BucketOutcome] = field(default_factory=dict)
    results: List[AttackResult] = field(default_factory=list)

    @property
    def overall_asr(self) -> float:
        attempts = sum(b.attempts for b in self.buckets.values())
        successes = sum(b.successes for b in self.buckets.values())
        return successes / attempts if attempts else 0.0

    @property
    def failed_normalized_changes(self) -> List[float]:
        return [r.normalized_margin_change for r in self.results if r.failed]

    def as_rows(self) -> List[Dict[str, float]]:
        return [self.buckets[key].as_row() for key in sorted(self.buckets)]


def run_attack_campaign(
    graph_module: GraphModule,
    dataset: Sequence[Mapping[str, np.ndarray]],
    mode: str,
    thresholds: Optional[ThresholdTable] = None,
    bound_mode: BoundMode = BoundMode.PROBABILISTIC,
    bound_scale: float = 1.0,
    attack_config: Optional[AttackConfig] = None,
    device: DeviceProfile = REFERENCE_DEVICE,
    buckets: Sequence[Tuple[float, float]] = DEFAULT_BUCKETS,
    seed: int = 0,
    batch_index: int = 0,
) -> AttackCampaignResult:
    """Run bucketed attacks over ``dataset`` and aggregate the Table 2 metrics."""
    config = attack_config or AttackConfig()
    config = AttackConfig(
        num_steps=config.num_steps,
        adam_beta1=config.adam_beta1,
        adam_beta2=config.adam_beta2,
        adam_epsilon=config.adam_epsilon,
        step_size_fraction=config.step_size_fraction,
        early_stop_tolerance=config.early_stop_tolerance,
        early_stop_window=config.early_stop_window,
        bound_scale=bound_scale,
    )
    attacker = PGDAttack(
        graph_module, mode=mode, thresholds=thresholds, bound_mode=bound_mode,
        config=config, device=device,
    )
    interpreter = Interpreter(device)
    campaign = AttackCampaignResult(
        model_name=graph_module.name,
        mode=mode,
        bound_scale=bound_scale,
        bound_mode=bound_mode.value if mode == "theoretical" else None,
        buckets={tuple(b): BucketOutcome(tuple(b)) for b in buckets},
    )
    rng = seeded_rng(derive_seed(seed, "attack-campaign", graph_module.name, mode, bound_scale))

    for sample_index, inputs in enumerate(dataset):
        honest = interpreter.run(graph_module, dict(inputs), record=False)
        logits_row = np.asarray(honest.output, dtype=np.float64)[batch_index]
        targets = bucket_target_classes(logits_row, rng, buckets)
        for bucket, target_class in targets.items():
            result = attacker.attack(inputs, target_class=target_class,
                                     batch_index=batch_index)
            campaign.results.append(result)
            outcome = campaign.buckets[bucket]
            outcome.attempts += 1
            if result.success:
                outcome.successes += 1
            else:
                outcome.failed_margin_changes.append(result.margin_change)
                outcome.failed_normalized_changes.append(result.normalized_margin_change)
    return campaign


def false_positive_rate(
    service,
    model_name: str,
    dataset: Sequence[Mapping[str, np.ndarray]],
) -> float:
    """Share of honest requests over ``dataset`` that the challenger disputes.

    ``service`` is a :class:`~repro.protocol.service.ServiceCore` front end
    with ``model_name`` registered; every payload is submitted to the
    tenant's standing honest proposer and the queue is drained.  The
    returned fraction is the Table 2 "False Positive (%)" column divided by
    100 — with calibrated thresholds it should be exactly 0.
    """
    if not dataset:
        return 0.0
    request_ids = service.submit_many(model_name, dataset)
    service.process()
    challenged = 0
    for request_id in request_ids:
        request = service.request(request_id)
        if request.report is None:
            raise ValueError(f"honest request {request_id} was {request.status}: "
                             f"{request.error}")
        challenged += request.report.challenged
    return challenged / len(request_ids)
