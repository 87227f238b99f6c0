"""Quickstart: commit a model, serve requests, catch a cheating proposer.

This walks through all four protocol phases on the MiniBERT workload, every
request served by ``TAOService``:

1. Phase 0 — calibrate empirical error percentile thresholds and the
   committee-leaf envelope across the simulated device fleet and commit the
   model (weights, graph, thresholds, envelope).
2. Phase 1 — an honest proposer serves a request; the challenger re-executes,
   finds the result within tolerance, and the result finalizes after the
   challenge window.
3. Phases 2-3 — an adversarial proposer injects a perturbation into an
   intermediate linear output; the challenger's thresholds flag the result,
   the dispute game localizes the exact operator, and the proposer is slashed.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import DEVICE_FLEET, TAOService, calibrate_committee_envelope, get_model_spec


def serve(service, model_name, inputs, proposer):
    """Submit one request for ``proposer`` and drain it; returns its report."""
    request_id = service.submit(model_name, inputs, proposer=proposer)
    service.process()
    return service.request(request_id).report


def main() -> None:
    # ------------------------------------------------------------------
    # Phase 0: trace, calibrate, commit.
    # ------------------------------------------------------------------
    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=2)
    print(f"Traced {spec.paper_analogue} analogue: {graph.num_operators} operators, "
          f"{len(graph.parameters)} parameter tensors")

    calibration_inputs = spec.dataset(module, num_samples=10, seed=7)
    service = TAOService(n_way=4)
    session = service.register_model(
        graph, calibration_inputs=calibration_inputs,
        committee_envelope=calibrate_committee_envelope(graph, calibration_inputs))
    commitment = session.model_commitment
    print(f"Committed model: r_w={commitment.weight_root.hex()[:16]}..., "
          f"r_g={commitment.graph_root.hex()[:16]}..., "
          f"r_e={commitment.threshold_root.hex()[:16]}..., "
          f"r_c={commitment.committee_root.hex()[:16]}...")

    # ------------------------------------------------------------------
    # Phase 1: an honest request finalizes optimistically.
    # ------------------------------------------------------------------
    request = spec.sample_inputs(module, 2, seed=101)
    honest = session.make_honest_proposer("honest-gpu-provider", DEVICE_FLEET[1])
    report = serve(service, graph.name, request, honest)
    print(f"\nHonest request:   status={report.final_status}, "
          f"challenged={report.challenged}, "
          f"forward={report.result.forward_flops / 1e6:.1f} MFLOPs")

    # ------------------------------------------------------------------
    # Phases 2-3: a cheating proposer is localized and slashed.
    # ------------------------------------------------------------------
    # The cheat: add a small constant bias to one attention-output linear.
    victim_operator = next(
        node.name for node in graph.graph.operators if node.target == "linear"
    )
    cheater = session.make_adversarial_proposer(
        "cheating-provider", {victim_operator: np.float32(0.05)}, DEVICE_FLEET[1]
    )
    report = serve(service, graph.name, spec.sample_inputs(module, 2, seed=202), cheater)
    outcome = report.dispute
    print(f"\nCheating request: status={report.final_status}, challenged={report.challenged}")
    if outcome is not None:
        stats = outcome.statistics
        print(f"  dispute localized to operator : {outcome.localized_operator} "
              f"(injected at {victim_operator})")
        print(f"  dispute rounds                : {stats.rounds}")
        print(f"  leaf adjudication path        : {outcome.adjudication.path}")
        print(f"  challenger compute (DCR)      : "
              f"{stats.cost_ratio(report.result.forward_flops):.2f}x one forward pass")
        print(f"  coordinator gas               : {stats.gas_used / 1e3:.1f} kgas")
        print(f"  Merkle proof checks           : {stats.merkle_checks}")


if __name__ == "__main__":
    main()
