"""Multi-step diffusion serving with per-step commitments and prefix finality.

The paper's Sec. 7 discussion extends TAO to multi-step workloads (decoding,
diffusion sampling) by committing a temporal chain of step states and
bisecting first across time, then within the offending step's operator graph.
This example demonstrates that layering on the MiniUNet denoiser:

* a DDIM-style sampler runs N denoising steps, committing each step's latent;
* a verifier re-executes the chain, accepts every honest step within the
  calibrated tolerance (prefix finality), and
* when the proposer tampers with one step, the *earliest offending step* is
  identified across time and the in-step dispute game localizes the operator.

Run with:  python examples/diffusion_multistep.py
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import DEVICE_FLEET, TAOService, calibrate_committee_envelope, get_model_spec
from repro.merkle.commitments import hash_tensor
from repro.models.diffusion import DiffusionSampler, sinusoidal_time_embedding


def main() -> None:
    spec = get_model_spec("diffusion_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1)
    config = module.config
    print(f"Diffusion denoiser ({spec.paper_analogue} analogue): "
          f"{graph.num_operators} operators per step")

    calibration_inputs = spec.dataset(module, num_samples=8, seed=9, batch_size=1)
    service = TAOService(n_way=4)
    session = service.register_model(
        graph, calibration_inputs=calibration_inputs,
        committee_envelope=calibrate_committee_envelope(graph, calibration_inputs))

    # ------------------------------------------------------------------
    # The proposer samples with a committed per-step chain.
    # ------------------------------------------------------------------
    num_steps = 4
    sampler = DiffusionSampler(graph, config, device=DEVICE_FLEET[0])
    final_latent, trajectory = sampler.sample(batch_size=1, num_steps=num_steps, seed=42)
    step_commitments: List[bytes] = [hash_tensor(latent) for latent in trajectory]
    print(f"\nProposer committed a {num_steps}-step temporal chain:")
    for i, commitment in enumerate(step_commitments):
        print(f"  step {i}: H(latent) = {commitment.hex()[:16]}...")

    # ------------------------------------------------------------------
    # Verifier re-executes the chain on a different device: prefix finality.
    # ------------------------------------------------------------------
    verifier_sampler = DiffusionSampler(graph, config, device=DEVICE_FLEET[2])
    _, verifier_trajectory = verifier_sampler.sample(batch_size=1, num_steps=num_steps, seed=42)
    tolerance = 1e-3  # step-level latent tolerance derived from calibration
    print("\nCross-device verification of each committed step (prefix finality):")
    for i, (claimed, local) in enumerate(zip(trajectory, verifier_trajectory)):
        deviation = float(np.abs(claimed - local).max())
        print(f"  step {i}: max deviation {deviation:.2e} -> "
              f"{'accepted' if deviation <= tolerance else 'DISPUTED'}")

    # ------------------------------------------------------------------
    # Tampered chain: identify the earliest offending step, then dispute it.
    # ------------------------------------------------------------------
    tampered_step = 2
    tampered = [latent.copy() for latent in trajectory]
    tampered[tampered_step] = tampered[tampered_step] + np.float32(0.05)
    offending_step = next(
        (i for i, (claimed, local) in enumerate(zip(tampered, verifier_trajectory))
         if float(np.abs(claimed - local).max()) > tolerance),
        None,
    )
    print(f"\nTampered chain: earliest offending step identified = {offending_step} "
          f"(tampered at step {tampered_step})")

    # Within the offending step, run the ordinary operator-level dispute game:
    # the adversarial proposer recomputes that step but perturbs the final conv.
    final_conv = [n.name for n in graph.graph.operators if n.target == "conv2d"][-1]
    cheater = session.make_adversarial_proposer(
        "tampering-sampler", {final_conv: np.float32(0.05)}, DEVICE_FLEET[0]
    )
    # Reconstruct the offending step's inputs from the previous committed latent.
    previous_latent = trajectory[tampered_step - 1]
    timesteps = np.linspace(config.num_timesteps - 1, 0, num_steps).astype(int)
    step_inputs = {
        "noisy_latent": previous_latent,
        "time_features": sinusoidal_time_embedding(
            np.full((1,), timesteps[tampered_step]), config.time_embed_dim
        ),
    }
    request_id = service.submit(graph.name, step_inputs, proposer=cheater)
    service.process()
    report = service.request(request_id).report
    print(f"In-step dispute: status={report.final_status}")
    if report.dispute is not None:
        print(f"  localized operator: {report.dispute.localized_operator} "
              f"(perturbed {final_conv})")
        print(f"  rounds: {report.dispute.statistics.rounds}, "
              f"gas: {report.dispute.statistics.gas_used / 1e3:.0f} kgas")


if __name__ == "__main__":
    main()
