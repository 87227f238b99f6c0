"""Unit tests for the zk cost baseline and the protocol lifecycle.

Phase 0 is the :class:`TAOSession` record a registration builds; Phases 1-3
are requests served over it by :class:`TAOService`.
"""

import numpy as np
import pytest

from repro.protocol.lifecycle import TAOSession
from repro.protocol.service import TAOService
from repro.protocol.zk_baseline import ZkProverModel, compare_with_tao, estimate_zk_cost
from repro.tensorlib.device import DEVICE_FLEET


# ---------------------------------------------------------------------------
# zk baseline
# ---------------------------------------------------------------------------

def test_zk_cost_scales_with_flops():
    small = estimate_zk_cost("small", forward_flops=1e9, nonlinear_elements=1e6)
    large = estimate_zk_cost("large", forward_flops=1e11, nonlinear_elements=1e8)
    assert large.proving_seconds > small.proving_seconds * 50
    assert large.prover_memory_gb > small.prover_memory_gb
    assert not small.preserves_float_semantics


def test_zk_proving_dwarfs_tao_costs():
    comparison = compare_with_tao(
        "bert-like", forward_flops=19.47e9, nonlinear_elements=5e7,
        tao_optimistic_overhead_fraction=0.003, tao_dispute_cost_ratio=1.06,
        tao_dispute_gas=1_984_400,
    )
    assert comparison.zk.proving_seconds > 60.0          # tens of seconds at minimum
    assert comparison.latency_advantage > 10.0           # orders of magnitude in TAO's favour
    assert comparison.tao_preserves_float_semantics
    assert not comparison.zk.preserves_float_semantics
    assert comparison.tao_extra_memory_gb == 0.0


def test_custom_prover_model():
    fast_prover = ZkProverModel(name="fast", prover_constraints_per_second=1e9)
    estimate = estimate_zk_cost("m", 1e9, 1e6, prover=fast_prover)
    assert estimate.prover == "fast"
    assert estimate.proving_seconds < estimate_zk_cost("m", 1e9, 1e6).proving_seconds


# ---------------------------------------------------------------------------
# Protocol lifecycle: Phase 0 record, requests served by TAOService
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service(mlp_graph, mlp_thresholds):
    service = TAOService(n_way=3, committee_size=3)
    service.register_model(mlp_graph, threshold_table=mlp_thresholds)
    return service


@pytest.fixture(scope="module")
def session(service):
    return service.model("tiny_mlp").session


def _serve(service, inputs, **request_options):
    request_id = service.submit("tiny_mlp", inputs, **request_options)
    service.process()
    return service.request(request_id).report


def test_setup_requires_some_calibration_source(mlp_graph):
    with pytest.raises(ValueError):
        TAOSession(mlp_graph).setup()


def test_role_factories_require_setup(mlp_graph, mlp_thresholds):
    sess = TAOSession(mlp_graph, threshold_table=mlp_thresholds)
    with pytest.raises(RuntimeError):
        sess.make_challenger()
    with pytest.raises(RuntimeError):
        sess.make_dispute_game()


def test_honest_request_finalizes(service, session, mlp_input_factory):
    proposer = session.make_honest_proposer("honest-1", DEVICE_FLEET[1])
    report = _serve(service, mlp_input_factory(41), proposer=proposer)
    assert report.final_status == "finalized"
    assert report.finalized_optimistically
    assert not report.challenged
    assert not report.proposer_cheated


def test_cheating_request_is_slashed(service, session, mlp_input_factory):
    cheater = session.make_adversarial_proposer("cheater-1", {"relu": np.float32(0.03)},
                                                DEVICE_FLEET[1])
    report = _serve(service, mlp_input_factory(42), proposer=cheater)
    assert report.challenged
    assert report.final_status == "proposer_slashed"
    assert report.proposer_cheated
    assert report.dispute.localized_operator == "relu"
    assert report.dispute.statistics.gas_used > 0


def test_forced_challenge_on_honest_result_slashes_challenger(service, session,
                                                              mlp_input_factory):
    proposer = session.make_honest_proposer("honest-2", DEVICE_FLEET[0])
    challenger = session.make_challenger("eager-challenger", DEVICE_FLEET[2])
    before = service.coordinator.chain.balances["eager-challenger"]
    report = _serve(service, mlp_input_factory(43), proposer=proposer,
                    challenger=challenger, force_challenge=True)
    assert report.challenged
    assert report.final_status == "challenger_slashed"
    assert not report.proposer_cheated
    # The named challenger fought the dispute and lost its bond.
    assert service.coordinator.chain.balances["eager-challenger"] < before


def test_session_reuses_committed_model_for_many_requests(service, session,
                                                          mlp_input_factory):
    proposer = session.make_honest_proposer("honest-3", DEVICE_FLEET[3])
    request_ids = [service.submit("tiny_mlp", mlp_input_factory(100 + i),
                                  proposer=proposer) for i in range(3)]
    service.process()
    assert {service.request(i).status for i in request_ids} == {"finalized"}


def test_setup_with_calibration_inputs(mlp_graph, mlp_input_factory):
    sess = TAOSession(mlp_graph,
                      calibration_inputs=[mlp_input_factory(7000 + i) for i in range(3)],
                      n_way=2, committee_size=1)
    commitment = sess.setup()
    assert commitment.num_operators == mlp_graph.num_operators
    assert sess.thresholds is not None
    assert len(sess.committee) == 1
