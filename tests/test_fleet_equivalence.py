"""Cross-process differential test: the fleet is observationally transparent.

The tentpole guarantee of the process-fleet layer, pinned as a test: the
*same* seeded multi-tenant schedule the thread-cluster equivalence suite
plays (honest traffic, repeated payloads, adversarial proposers, forced
challenges — see ``test_cluster_equivalence``) is run through

* the plain single-process :class:`~repro.protocol.service.TAOService`,
* a thread :class:`~repro.cluster.cluster.TAOCluster`, and
* a :class:`~repro.fleet.fleet.ProcessFleet` of real worker *processes*
  driven over the serialized RPC transport — with and without a failover
  injected mid-schedule (the busiest worker is drained with requests still
  queued, so they are withdrawn and re-dispatched to the ring successor),

and every deployment must produce **byte-identical per-request verdicts**
(statuses, execution-commitment bytes, dispute localizations) and an
**exactly equal ledger** — float equality, no tolerance.  Settlement never
leaves the parent: workers reach the one shared chain through nested
``chain_call`` messages, which is precisely what makes this exactness
possible across process boundaries.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.protocol.service import ServiceCore

from test_cluster_equivalence import (  # noqa: F401 - fixture re-export
    _fingerprint,
    _ledger,
    _schedule,
    _victim,
    reference,
    tenant_graphs,
)


def _drive_fleet(fleet: ProcessFleet, graphs, thresholds, input_factory,
                 drain_midway: bool = False) -> List:
    """Play the shared schedule through a fleet; actors travel as specs."""
    for graph in graphs:
        fleet.register_model(graph, threshold_table=thresholds)

    events = _schedule()
    half = len(events) // 2
    request_ids: List[int] = []

    def submit(chunk):
        for tenant, payload_seed, kind in chunk:
            graph = graphs[tenant]
            proposer = None
            if kind == "cheat":
                # The wire twin of session.make_adversarial_proposer(...):
                # same name, same delta, rebuilt inside the worker.
                proposer = {
                    "type": "adversarial",
                    "name": f"{graph.name}-cheat-{payload_seed}",
                    "perturbations": {
                        _victim(graph): encode_perturbation(np.float32(0.05)),
                    },
                }
            request_ids.append(fleet.submit(
                graph.name, input_factory(payload_seed),
                proposer=proposer, force_challenge=(kind == "force"),
            ))

    submit(events[:half])
    fleet.process()
    submit(events[half:])
    if drain_midway:
        busiest = max(
            fleet._pending,
            key=lambda sid: (len(fleet._pending[sid]), sid),
        )
        fleet.drain_shard(busiest)
    fleet.process()
    return [fleet.request(request_id) for request_id in request_ids]


def _assert_equivalent(reference_service: ServiceCore, service_requests,
                       fleet: ProcessFleet, fleet_requests) -> None:
    assert len(fleet_requests) == len(service_requests)
    for index, (expected, got) in enumerate(zip(service_requests,
                                                fleet_requests)):
        assert _fingerprint(got) == _fingerprint(expected), f"request {index}"

    expected_balances, expected_minted = _ledger(reference_service)
    got_balances, got_minted = dict(fleet.chain.balances), fleet.chain.minted
    assert got_balances == expected_balances
    assert got_minted == expected_minted
    assert sum(got_balances.values()) == got_minted


@pytest.mark.parametrize("num_workers,drain", [(1, False), (2, False), (4, True)],
                         ids=["1-worker", "2-worker", "4-worker-failover"])
def test_fleet_matches_plain_service(reference, tenant_graphs, mlp_thresholds,
                                     mlp_input_factory, num_workers, drain):
    service, service_requests = reference
    fleet = ProcessFleet(num_workers=num_workers, n_way=2)
    try:
        fleet_requests = _drive_fleet(fleet, tenant_graphs, mlp_thresholds,
                                      mlp_input_factory, drain_midway=drain)
        _assert_equivalent(service, service_requests, fleet, fleet_requests)
        if drain:
            # The failover actually happened: requests moved workers.
            assert fleet.failovers >= 1
            assert fleet.redispatched_requests >= 1
            drained = fleet.placement.drained_shards
            assert drained
            for name in fleet.model_names:
                assert fleet.location(name) not in drained
        # Wall-clock accounting is live on the measured path.
        stats = fleet.stats()
        assert stats.workers == num_workers
        assert stats.measured_wall_s > 0.0
        assert stats.requests_completed == len(fleet_requests)
    finally:
        fleet.close()


def test_fleet_matches_thread_cluster(reference, tenant_graphs, mlp_thresholds,
                                      mlp_input_factory):
    """Three-way pin: plain service, thread cluster and process fleet agree.

    (The cluster suite already pins cluster == plain; driving both shared
    front-ends here closes the triangle on one schedule in one process.)
    """
    from test_cluster_equivalence import _drive

    service, service_requests = reference
    cluster = TAOCluster(num_shards=2, n_way=2)
    cluster_requests = _drive(cluster, tenant_graphs, mlp_thresholds,
                              mlp_input_factory)
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        fleet_requests = _drive_fleet(fleet, tenant_graphs, mlp_thresholds,
                                      mlp_input_factory)
        _assert_equivalent(service, service_requests, fleet, fleet_requests)
        for index, (expected, got) in enumerate(zip(cluster_requests,
                                                    fleet_requests)):
            assert _fingerprint(got) == _fingerprint(expected), \
                f"request {index}"
        cluster_balances, cluster_minted = _ledger(cluster)
        assert dict(fleet.chain.balances) == cluster_balances
        assert fleet.chain.minted == cluster_minted
    finally:
        fleet.close()

