"""The calibrated committee envelope travels the whole serving stack.

Commitment (root ``r_c`` beside ``r_e``), session wiring (challenger
selection floor, dispute game, committee votes), service clones, and cluster
shard adoption on failover — the envelope a model registered with must be
the envelope every adjudication of that model consults, wherever the tenant
currently lives.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.calibration import (
    CommitteeEnvelopeConfig,
    CommitteeEnvelopeProfile,
    calibrate_committee_envelope,
)
from repro.cluster import TAOCluster
from repro.merkle.cache import HashCache
from repro.merkle.commitments import commit_model
from repro.protocol.lifecycle import TAOSession, commit_phase0
from repro.protocol.service import TAOService
from repro.tensorlib import DEVICE_FLEET


@pytest.fixture(scope="module")
def envelope(mlp_graph, mlp_input_factory):
    return calibrate_committee_envelope(
        mlp_graph, [mlp_input_factory(1000 + i) for i in range(8)],
        CommitteeEnvelopeConfig(devices=DEVICE_FLEET),
    )


def test_commitment_gains_committee_root(mlp_graph, mlp_thresholds, envelope):
    plain = commit_model(mlp_graph, mlp_thresholds)
    with_envelope = commit_model(mlp_graph, mlp_thresholds,
                                 committee_envelope=envelope)
    assert plain.committee_root is None
    assert with_envelope.committee_root is not None
    assert len(with_envelope.committee_root) == 32
    # The other roots are untouched; the digest covers r_c only when present.
    assert with_envelope.weight_root == plain.weight_root
    assert with_envelope.threshold_root == plain.threshold_root
    assert with_envelope.digest() != plain.digest()
    # The public (coordinator-visible) view keeps the root but not the tree.
    view = with_envelope.public_view()
    assert view.committee_root == with_envelope.committee_root
    assert view.committee_tree is None


def test_hash_cache_keys_envelope_identity(mlp_graph, mlp_thresholds, envelope):
    """Same model committed with and without an envelope never alias."""
    cache = HashCache()
    plain = commit_model(mlp_graph, mlp_thresholds, cache=cache)
    with_envelope = commit_model(mlp_graph, mlp_thresholds, cache=cache,
                                 committee_envelope=envelope)
    assert plain.committee_root is None
    assert with_envelope.committee_root is not None
    # Memo hits return the exact same objects on re-commit.
    assert commit_model(mlp_graph, mlp_thresholds, cache=cache) is plain
    assert commit_model(mlp_graph, mlp_thresholds, cache=cache,
                        committee_envelope=envelope) is with_envelope


def test_session_threads_envelope_everywhere(mlp_graph, mlp_input_factory,
                                             mlp_thresholds, envelope):
    thresholds, commitment = commit_phase0(mlp_graph, 3.0, None, None,
                                           mlp_thresholds, envelope)
    session = TAOSession(mlp_graph, thresholds, commitment,
                         committee_envelope=envelope)
    assert session.model_commitment.committee_root is not None
    challenger = session.make_challenger()
    assert challenger.committee_envelope is envelope
    # The selection rule checks each child slice against the committed table
    # floored slice-aware: every entry at least the raw one and at least the
    # noisiest single-op envelope inside the slice.
    operators = mlp_graph.graph.operators
    record = SimpleNamespace(slice_start=0, slice_end=len(operators))
    floored = challenger._slice_checker(mlp_graph, record)
    assert isinstance(floored, CommitteeEnvelopeProfile)
    slice_floor = np.max([envelope.abs_thresholds[node.name] for node in operators
                          if envelope.has_operator(node.name)], axis=0)
    for name in mlp_thresholds.operator_names():
        assert np.all(floored.abs_thresholds[name]
                      >= mlp_thresholds.abs_thresholds[name])
        assert np.all(floored.abs_thresholds[name] >= slice_floor)
    game = session.make_dispute_game()
    assert game.committee_envelope is envelope


def test_service_clones_inherit_envelope(mlp_graph, mlp_input_factory,
                                         mlp_thresholds, envelope):
    service = TAOService()
    service.register_model(mlp_graph, threshold_table=mlp_thresholds,
                           committee_envelope=envelope)
    entry = service.model(mlp_graph.name)
    assert entry.session.committee_envelope is envelope
    assert entry.challenger.committee_envelope is envelope
    clone = service._challenger_clone(entry)
    assert clone.committee_envelope is envelope


def test_cluster_adoption_keeps_envelope_across_failover(
        mlp_graph, mlp_input_factory, mlp_thresholds, envelope):
    """A tenant fails over to its ring successor with its envelope intact —
    and the adjudication on the fallback shard still consults it."""
    cluster = TAOCluster(num_shards=3, leaf_path="committee")
    cluster.register_model(mlp_graph, threshold_table=mlp_thresholds,
                           committee_envelope=envelope)
    home = cluster.location(mlp_graph.name)

    # Run one dispute-bound request on the fallback shard after a drain.
    cluster.submit(mlp_graph.name, mlp_input_factory(77), force_challenge=True)
    cluster.drain_shard(home)
    assert cluster.location(mlp_graph.name) != home
    entry = cluster.model(mlp_graph.name)
    assert entry.session.committee_envelope is envelope
    assert entry.challenger.committee_envelope is envelope

    processed = cluster.process()
    assert len(processed) == 1
    report = processed[0].report
    assert report is not None and report.challenged
    # A forced challenge against an honest proposer under the calibrated
    # envelope dead-ends (no credible selection) rather than pressing a
    # false dispute: the challenger forfeits, the honest proposer survives.
    assert processed[0].status == "challenger_slashed"
