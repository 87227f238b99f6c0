"""Golden digests of settlement on both sharded tiers.

One fixed, dispute-bearing schedule on the tiny MLP — two cheats, one forced
challenge and honest traffic over tenants on both shards — runs on
``TAOCluster(2)`` and ``ProcessFleet(2)``.  The pins are sha256 digests of

* the shared chain's transaction log, one
  ``(index, block, timestamp, sender, action, gas_used, payload_bytes,
  details, shard)`` row per transaction;
* each fleet journal's chain-call stream (call, arguments and reply, in
  sequence order) and its spec stream.

The drain is capped at the whole queue so shards settle one after another
in shard order and the shared log's interleaving is fixed.  Any change to
gas costing, transaction stamping, wire arguments or replies moves a digest.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.graph import trace_module
from repro.utils.serialization import canonical_bytes

from test_calibration_golden import TRACE_GOLDEN, trace_digest
from test_sharded_equivalence import _victim

#: Two tenants home on shard-0 and one on shard-1.
TENANTS = ("golden_0", "golden_6", "golden_1")

#: (tenant index, payload seed, kind) in submission order.
SCHEDULE = (
    (0, 40, "honest"), (1, 41, "honest"), (1, 42, "cheat"),
    (0, 43, "force"), (1, 44, "honest"), (0, 45, "cheat"),
    (2, 46, "honest"), (1, 41, "honest"),
)

#: The two tiers append the same log, so one digest pins both.  The fleet
#: streams hold only the workers' chain calls: the front end funds each
#: tenant's standing accounts itself, so no ``fund_once`` crosses the wire.
GOLDEN: Dict[str, str] = {
    "log": "a0b95e5ef48646182e44261dfe6dd90130f082f0caa0c4d03b79cf13386beea3",
    "fleet_chain": "2923be04072069a87391ae3e169b40d0b7c34dadc7a87c321b3966b3d4a0be81",
    "fleet_spec": "6835f6389f293fa008f6d4be93136dd7bd97ba8fcb15e6ec2fae3158b1ad1ff3",
}


def _digest(payload) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def _settle(front, graphs, thresholds, input_factory) -> None:
    fleet = isinstance(front, ProcessFleet)
    sessions = {graph.name: front.register_model(graph, threshold_table=thresholds)
                for graph in graphs}
    for tenant, payload_seed, kind in SCHEDULE:
        graph = graphs[tenant]
        proposer = None
        if kind == "cheat":
            name = f"{graph.name}-cheat-{payload_seed}"
            delta = np.float32(0.05)
            proposer = {
                "type": "adversarial", "name": name,
                "perturbations": {_victim(graph): encode_perturbation(delta)},
            } if fleet else sessions[graph.name].make_adversarial_proposer(
                name, {_victim(graph): delta})
        front.submit(graph.name, input_factory(payload_seed), proposer=proposer,
                     force_challenge=(kind == "force"))
    processed = front.process(max_requests=len(SCHEDULE))
    statuses = sorted(request.status for request in processed)
    assert statuses.count("proposer_slashed") == 2
    assert statuses.count("challenger_slashed") == 1


def _log_digest(chain) -> str:
    return _digest([
        (tx.index, tx.block, tx.timestamp, tx.sender, tx.action, tx.gas_used,
         tx.payload_bytes, tx.details, tx.shard)
        for tx in chain.transactions
    ])


@pytest.fixture(scope="module")
def golden_graphs(mlp_module, mlp_input_factory):
    if trace_digest("mlp_head") != TRACE_GOLDEN["mlp_head"]:
        pytest.skip("this host's BLAS traces different model outputs than the "
                    "host the goldens were recorded on")
    return [trace_module(mlp_module, mlp_input_factory(0), name=name)
            for name in TENANTS]


def test_cluster_settlement_matches_golden(golden_graphs, mlp_thresholds,
                                           mlp_input_factory):
    with TAOCluster(num_shards=2, n_way=2) as cluster:
        _settle(cluster, golden_graphs, mlp_thresholds, mlp_input_factory)
        assert {cluster.location(name) for name in TENANTS} == \
            {"shard-0", "shard-1"}
        assert _log_digest(cluster.chain) == GOLDEN["log"]


def test_fleet_settlement_matches_golden(golden_graphs, mlp_thresholds,
                                         mlp_input_factory):
    with ProcessFleet(num_workers=2, n_way=2) as fleet:
        _settle(fleet, golden_graphs, mlp_thresholds, mlp_input_factory)
        journals = [fleet.journals[shard_id] for shard_id in sorted(fleet.journals)]
        assert _log_digest(fleet.chain) == GOLDEN["log"]
        assert _digest([[journal._chain[seq] for seq in sorted(journal._chain)]
                        for journal in journals]) == GOLDEN["fleet_chain"]
        assert _digest([journal.spec_entries() for journal in journals]) == \
            GOLDEN["fleet_spec"]
