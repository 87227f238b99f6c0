"""Attack study: can a bound-aware adversary flip decisions undetected?

Reproduces the Sec. 4 methodology at example scale on the MiniBERT workload:

* calibrate empirical thresholds across the device fleet;
* bucket attack targets by their logit-margin percentile;
* run the PGD/Adam attack projected onto (a) the empirical-threshold feasible
  set at several scale factors alpha and (b) the theoretical IEEE-754
  envelopes (deterministic and probabilistic);
* report ASR and the margin progress of failed attacks, plus the false
  positive rate of honest requests served by ``TAOService``.

Run with:  python examples/attack_study.py            (≈ a minute on a laptop)
"""

from __future__ import annotations

import numpy as np

from repro import (
    BoundMode,
    TAOService,
    ThresholdTable,
    calibrate_committee_envelope,
    get_model_spec,
)
from repro.attacks import AttackConfig, false_positive_rate, run_attack_campaign
from repro.calibration import Calibrator


def print_campaign(label: str, campaign) -> None:
    print(f"\n  {label}")
    print("   bucket      attempts   ASR%    mean dm_fail   mean delta_fail")
    for row in campaign.as_rows():
        print(f"   {row['bucket_low']:>3.0f}-{row['bucket_high']:<4.0f}   "
              f"{row['attempts']:>8d}   {row['asr_percent']:5.1f}   "
              f"{row['mean_dm_fail']:12.4f}   {row['mean_delta_fail']:15.4%}")
    print(f"   overall ASR: {campaign.overall_asr:.1%}")


def main() -> None:
    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1)

    calibration_inputs = spec.dataset(module, num_samples=10, seed=5, batch_size=1)
    calibration = Calibrator().calibrate(graph, calibration_inputs)
    thresholds = ThresholdTable.from_calibration(calibration, alpha=3.0)

    attack_inputs = spec.dataset(module, num_samples=4, seed=77, batch_size=1)
    config = AttackConfig(num_steps=25)

    print(f"Attack study on {spec.paper_analogue} analogue "
          f"({graph.num_operators} operators, {len(attack_inputs)} inputs x 5 buckets)")

    # Empirical-threshold evasion at increasing looseness.
    for scale in (1.0, 2.0, 3.0):
        campaign = run_attack_campaign(
            graph, attack_inputs, mode="empirical", thresholds=thresholds,
            bound_scale=scale, attack_config=config, seed=1,
        )
        print_campaign(f"empirical thresholds, alpha x{scale:g}", campaign)

    # Theoretical-bound evasion: deterministic vs probabilistic envelopes.
    for mode, label in ((BoundMode.DETERMINISTIC, "theoretical (deterministic gamma_k)"),
                        (BoundMode.PROBABILISTIC, "theoretical (probabilistic gamma~_k)")):
        campaign = run_attack_campaign(
            graph, attack_inputs, mode="theoretical", bound_mode=mode,
            bound_scale=1.0, attack_config=config, seed=2,
        )
        print_campaign(label, campaign)

    # False positives: honest requests served through the full pipeline.
    service = TAOService()
    service.register_model(
        graph, threshold_table=thresholds,
        committee_envelope=calibrate_committee_envelope(graph, calibration_inputs))
    fp = false_positive_rate(service, graph.name,
                             spec.dataset(module, 5, seed=303, batch_size=1))
    print(f"\nHonest-run false positive rate through the full pipeline: {fp:.1%}")


if __name__ == "__main__":
    main()
