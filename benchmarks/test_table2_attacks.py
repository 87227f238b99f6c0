"""Table 2: bucketed attack outcomes under threshold scaling.

For each model the PGD/Adam adversary attacks targets bucketed by their logit
margin percentile, once per verification regime:

* empirical percentile thresholds at scale alpha in {1, 2, 3};
* theoretical bounds, deterministic (x1) and probabilistic (x1, x0.5).

Reported per regime: ASR and the mean margin progress of failed attacks, plus
the false-positive rate of honest requests served by ``TAOService``.  The
paper finds 0% ASR and 0% false positives under empirical thresholds for
every model, while worst-case theoretical bounds leave a small window on the
LLM (up to 2.4%).

This reproduction uses a reduced campaign (3 inputs x 5 buckets x 12 PGD
steps per regime) so the whole table regenerates in a few minutes on a CPU.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.evaluation import false_positive_rate, run_attack_campaign
from repro.attacks.pgd import AttackConfig
from repro.bounds.fp_model import BoundMode
from repro.protocol.service import TAOService
from repro.tensorlib.device import DEVICE_FLEET

from benchmarks.reporting import emit_table

MODELS = ("bert_mini", "qwen_mini", "resnet_mini")
ATTACK_INPUTS = 3
ATTACK_STEPS = 12

REGIMES = (
    ("empirical", None, 1.0, "empirical x1"),
    ("empirical", None, 2.0, "empirical x2"),
    ("empirical", None, 3.0, "empirical x3"),
    ("theoretical", BoundMode.DETERMINISTIC, 1.0, "theoretical d x1"),
    ("theoretical", BoundMode.PROBABILISTIC, 1.0, "theoretical p x1"),
    ("theoretical", BoundMode.PROBABILISTIC, 0.5, "theoretical p x0.5"),
)


def _run_campaigns(bench_model) -> Dict[str, object]:
    dataset = bench_model.dataset(ATTACK_INPUTS, seed=909)
    config = AttackConfig(num_steps=ATTACK_STEPS)
    campaigns = {}
    for mode, bound_mode, scale, label in REGIMES:
        campaigns[label] = run_attack_campaign(
            bench_model.graph, dataset, mode=mode,
            thresholds=bench_model.thresholds if mode == "empirical" else None,
            bound_mode=bound_mode or BoundMode.PROBABILISTIC,
            bound_scale=scale, attack_config=config, seed=13,
        )
    return campaigns


def _false_positives(bench_model) -> float:
    service = TAOService(n_way=4)
    service.register_model(bench_model.graph, threshold_table=bench_model.thresholds,
                           proposer_device=DEVICE_FLEET[1])
    return false_positive_rate(service, bench_model.graph.name,
                               bench_model.dataset(3, seed=2025))


def test_table2_attacks(benchmark, bench_all):
    def run():
        out = {}
        for name in MODELS:
            out[name] = {
                "campaigns": _run_campaigns(bench_all[name]),
                "false_positive": _false_positives(bench_all[name]),
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows: List[list] = []
    for name in MODELS:
        fp = results[name]["false_positive"]
        for _, _, _, label in REGIMES:
            campaign = results[name]["campaigns"][label]
            for bucket_row in campaign.as_rows():
                rows.append([
                    name, label,
                    f"{bucket_row['bucket_low']:.0f}-{bucket_row['bucket_high']:.0f}%",
                    bucket_row["asr_percent"],
                    bucket_row["mean_dm_fail"],
                    100.0 * bucket_row["mean_delta_fail"],
                    100.0 * fp if label.startswith("empirical") else float("nan"),
                ])
    emit_table(
        "table2_attacks",
        "Bucketed attack outcomes under threshold scaling",
        ["model", "bound check", "bucket", "ASR (%)", "mean dm_fail", "delta_fail (%)",
         "false positive (%)"],
        rows,
        notes=("Paper (Table 2): empirical thresholds give 0% ASR and 0% false positives for all "
               "models even at x3; deterministic theoretical bounds leave a window (up to 58.6% "
               "on BERT buckets / 12.6% on Qwen); probabilistic bounds shrink it to <= 2.4% on "
               "the LLM.  Failed-attack progress is smallest under empirical thresholds."),
    )

    for name in MODELS:
        campaigns = results[name]["campaigns"]
        # (1) Empirical thresholds are robust: 0% ASR at every scale, and honest
        #     executions never trigger disputes.
        for label in ("empirical x1", "empirical x2", "empirical x3"):
            assert campaigns[label].overall_asr == 0.0, (name, label)
        assert results[name]["false_positive"] == 0.0, name
        # (2) Looser admissible sets let failed attacks make more progress:
        #     empirical x1 <= empirical x3 <= theoretical deterministic.
        def mean_progress(label):
            changes = campaigns[label].failed_normalized_changes
            return sum(changes) / len(changes) if changes else 0.0

        assert mean_progress("empirical x1") <= mean_progress("empirical x3") + 1e-9, name
        assert mean_progress("empirical x1") <= mean_progress("theoretical d x1") + 1e-9, name
        # (3) Probabilistic theoretical bounds are tighter than deterministic ones.
        assert mean_progress("theoretical p x1") <= mean_progress("theoretical d x1") + 1e-9, name
