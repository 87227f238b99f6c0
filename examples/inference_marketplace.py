"""Inference marketplace: heterogeneous providers, a silent downgrader, economics.

Scenario (the paper's motivating setting): an open-model LLM (the MiniQwen
analogue) is served by several compute providers on different accelerators.
One provider silently "quantizes" the model to save compute — emulated here
by rounding every feed-forward linear output to a coarse grid, which is
exactly the kind of numerical deviation bitwise verification cannot tolerate
but TAO's thresholds catch.

The example shows:
* honest providers on *different* devices all finalize (tolerance-aware
  acceptance of genuine FP nondeterminism — no false positives);
* the downgrading provider is challenged, localized and slashed;
* the economic analysis (Sec. 5.5) confirming the chosen slash amount makes
  honesty the rational strategy.

Run with:  python examples/inference_marketplace.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DEVICE_FLEET,
    EconomicParameters,
    TAOService,
    analyze_incentives,
    calibrate_committee_envelope,
    get_model_spec,
)


def quantize_to_grid(step: float):
    """A downgrade: round tensor values to multiples of ``step`` (fake int8-ish)."""

    def apply(value: np.ndarray) -> np.ndarray:
        return (np.round(value / step) * step).astype(np.float32)

    return apply


def main() -> None:
    spec = get_model_spec("qwen_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1)
    print(f"Open model: {spec.paper_analogue} analogue with {graph.num_operators} operators")

    calibration_inputs = spec.dataset(module, num_samples=8, seed=3, batch_size=1)
    service = TAOService(n_way=4)
    session = service.register_model(
        graph, calibration_inputs=calibration_inputs,
        committee_envelope=calibrate_committee_envelope(graph, calibration_inputs))

    # ------------------------------------------------------------------
    # Honest providers on heterogeneous accelerators.
    # ------------------------------------------------------------------
    print("\n-- honest marketplace round ------------------------------------")
    request_ids = {
        device.name: service.submit(
            graph.name, spec.sample_inputs(module, 1, seed=500 + i),
            proposer=session.make_honest_proposer(f"provider-{device.name}", device))
        for i, device in enumerate(DEVICE_FLEET)
    }
    service.process()
    for device_name, request_id in request_ids.items():
        report = service.request(request_id).report
        print(f"  {device_name:12s} -> {report.final_status:10s} "
              f"(challenged={report.challenged})")

    # ------------------------------------------------------------------
    # A provider that silently downgrades the service.
    # ------------------------------------------------------------------
    print("\n-- silent quantization downgrade ---------------------------------")
    ffn_outputs = [n.name for n in graph.graph.operators if n.target == "linear"][-3:]
    downgrader = session.make_adversarial_proposer(
        "cut-rate-provider",
        {name: quantize_to_grid(step=1e-2) for name in ffn_outputs},
        DEVICE_FLEET[0],
    )
    request_id = service.submit(graph.name, spec.sample_inputs(module, 1, seed=999),
                                proposer=downgrader)
    service.process()
    report = service.request(request_id).report
    print(f"  status      : {report.final_status}")
    if report.dispute is not None:
        stats = report.dispute.statistics
        print(f"  localized at: {report.dispute.localized_operator}")
        print(f"  rounds      : {stats.rounds}, gas: {stats.gas_used / 1e3:.0f} kgas, "
              f"DCR: {stats.cost_ratio(report.result.forward_flops):.2f}x forward")

    # ------------------------------------------------------------------
    # Why cheating does not pay: the incentive analysis.
    # ------------------------------------------------------------------
    print("\n-- economic soundness (Sec. 5.5) ----------------------------------")
    params = EconomicParameters(
        task_reward=100.0, honest_cost=60.0, cheap_cheat_cost=20.0,
        challenge_cost=70.0, audit_probability=0.2, challenge_probability=0.3,
    )
    analysis = analyze_incentives(params)
    region = analysis.feasibility
    print(f"  feasible slash region: ({region.lower_bound:.1f}, {region.upper_bound:.1f}] "
          f"(L1={region.l1_deter_cheap_cheat:.1f}, L2={region.l2_profitable_challenge:.1f}, "
          f"L3={region.l3_committee_participation:.1f})")
    print(f"  chosen slash = {analysis.slash:.1f}")
    print(f"  honest payoff {analysis.honest_payoff:.1f} vs cheap-cheat payoff "
          f"{analysis.cheap_cheat_payoff:.1f} -> honesty dominates: "
          f"{analysis.honesty_beats_cheap_cheating}")
    print(f"  incentive compatible overall: {analysis.incentive_compatible}")


if __name__ == "__main__":
    main()
