"""Phase 0 runs once per registration, at the front end, on every tier.

``ServiceCore.register_model`` is the only place a tier calibrates and
commits: it refuses a name the tier already hosts before any Phase-0 work,
runs ``commit_phase0`` once and hands the commitment to its backend's
``host_model``.  The tiers' constructor options are pinned here too, so a
new option shows up as a changed gate.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from repro.calibration.calibrator import Calibrator
from repro.cluster import ClusterError, TAOCluster
from repro.fleet import FleetError, ProcessFleet
from repro.protocol import lifecycle
from repro.protocol.service import TAOService

#: One small instance of each tier and the error it refuses a duplicate with.
TIERS = {
    "service": (TAOService, ValueError),
    "cluster": (lambda: TAOCluster(num_shards=2), ClusterError),
    "fleet": (lambda: ProcessFleet(num_workers=1), FleetError),
}


@pytest.fixture(params=sorted(TIERS))
def tier(request):
    make, error = TIERS[request.param]
    with make() as front:
        yield front, error


@pytest.fixture
def phase0_calls(monkeypatch):
    """Names of the graphs ``commit_phase0`` ran for in this process, by
    whichever module imported it."""
    calls = []
    original = lifecycle.commit_phase0

    def spy(graph_module, *args, **kwargs):
        calls.append(graph_module.name)
        return original(graph_module, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("commit_phase0") is original:
            monkeypatch.setattr(module, "commit_phase0", spy)
    return calls


def test_tier_options_are_pinned():
    shared = ("alpha", "n_way", "committee_size", "leaf_path", "hash_cache",
              "cycle_capacity")
    expected = {
        TAOService: ("coordinator", "result_cache_size") + shared,
        TAOCluster: ("num_shards", "chain") + shared,
        ProcessFleet: ("num_workers", "chain") + shared
        + ("actor_module", "start_method", "worker_timeout_s"),
    }
    for front, options in expected.items():
        assert tuple(inspect.signature(front).parameters) == options, front
    assert [len(options) for options in expected.values()] == [8, 8, 11]


def test_one_phase0_per_registration(tier, phase0_calls, mlp_graph,
                                     mlp_thresholds, mlp_envelope):
    front, _ = tier
    session = front.register_model(mlp_graph, threshold_table=mlp_thresholds,
                                   committee_envelope=mlp_envelope)
    assert phase0_calls == [mlp_graph.name]
    assert front.model_names == [mlp_graph.name]
    if not isinstance(front, ProcessFleet):
        # The session hosts the front end's commitment, registered once.
        assert front.model(mlp_graph.name).session is session
        assert session.model_commitment.committee_root is not None
    assert [tx.action for tx in front.chain.transactions] == ["register_model"]


def test_duplicate_registration_is_refused_before_phase0(
        tier, phase0_calls, mlp_graph, mlp_thresholds, mlp_input_factory,
        monkeypatch):
    front, error = tier
    front.register_model(mlp_graph, threshold_table=mlp_thresholds)
    minted, transactions = front.chain.minted, list(front.chain.transactions)
    balances = dict(front.chain.balances)
    phase0_calls.clear()

    def no_calibration(*args, **kwargs):
        raise AssertionError("a refused registration calibrated")

    monkeypatch.setattr(Calibrator, "calibrate", no_calibration)
    for source in ({"threshold_table": mlp_thresholds},
                   {"calibration_inputs": [mlp_input_factory(7)]}):
        with pytest.raises(error, match="already registered"):
            front.register_model(mlp_graph, **source)
    assert phase0_calls == []
    assert front.chain.minted == minted
    assert front.chain.transactions == transactions
    assert front.chain.balances == balances
    assert front.model_names == [mlp_graph.name]


def test_register_requires_some_calibration_source(tier, mlp_graph):
    front, _ = tier
    with pytest.raises(ValueError, match="calibration inputs or a threshold table"):
        front.register_model(mlp_graph)
    assert front.chain.minted == 0 and front.chain.balances == {}
    assert front.chain.transactions == []
    assert front.model_names == []
