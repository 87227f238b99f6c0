"""TAOService demo: a mixed request stream through the service layer.

This drives the multi-request front end end to end on the MiniBERT workload:

1. register the model with the service (calibrate, commit, build standing
   proposer/challenger roles — all once, not per request);
2. submit a mixed stream: unique honest requests, repeated payloads (served
   from the content-addressed result cache), one cheating proposer and one
   spamming force-challenge;
3. process the queue — one run per request, multiplexed dispute games
   over the shared coordinator, one finalization sweep;
4. print per-request outcomes and the service throughput statistics.

Run with:  python examples/service_throughput.py
"""

from __future__ import annotations

import numpy as np

from repro import TAOService, calibrate_committee_envelope, get_model_spec


def main() -> None:
    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1)

    service = TAOService()
    calibration_inputs = spec.dataset(module, 10, seed=7, batch_size=1)
    session = service.register_model(
        graph, calibration_inputs=calibration_inputs,
        committee_envelope=calibrate_committee_envelope(graph, calibration_inputs),
    )
    print(f"Registered {spec.paper_analogue} analogue with the service: "
          f"{graph.num_operators} operators committed once, roles standing by.")

    # A mixed stream: 6 unique requests, then the first payload repeated 4x.
    payloads = [spec.sample_inputs(module, 1, seed=100 + i) for i in range(6)]
    request_ids = service.submit_many("bert_mini", payloads)
    repeated = spec.sample_inputs(module, 1, seed=100)  # same content as payloads[0]
    request_ids += service.submit_many("bert_mini", [repeated] * 4)

    # One cheating proposer (perturbs a linear output) and one spammer.
    victim = next(n.name for n in graph.graph.operators if n.target == "linear")
    cheater = session.make_adversarial_proposer(
        "cheating-provider", {victim: np.float32(0.05)})
    cheat_id = service.submit("bert_mini", spec.sample_inputs(module, 1, seed=777),
                              proposer=cheater)
    spam_id = service.submit("bert_mini", spec.sample_inputs(module, 1, seed=778),
                             force_challenge=True)

    processed = service.process()
    print(f"\nProcessed {len(processed)} requests:")
    for request in processed:
        flags = []
        if request.cache_hit:
            flags.append("cache-hit")
        if request.report.dispute is not None:
            flags.append(f"dispute->{request.report.dispute.localized_operator}")
        print(f"  #{request.request_id:<3} {request.status:<20} {' '.join(flags)}")

    cheat = service.request(cheat_id)
    print(f"\nCheater localized at {cheat.report.dispute.localized_operator} "
          f"(injected at {victim}); status={cheat.status}")
    print(f"Spamming challenger: status={service.request(spam_id).status}")

    stats = service.stats()
    print(f"\nService statistics:")
    print(f"  completed         : {stats.requests_completed}")
    print(f"  cache hits        : {stats.cache_hits}")
    print(f"  disputes opened   : {stats.disputes_opened}")
    print(f"  throughput        : {stats.throughput_rps:.1f} requests/s")
    print(f"  p50 latency       : {stats.latency.p50 * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
