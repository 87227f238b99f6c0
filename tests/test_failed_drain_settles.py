"""A drain that fails partway strands no request on a sharded front end.

When a drain raises mid-settle, the shard's service has already finished
some of the admitted requests: requests in closed cycles are terminal, and a
request whose task reached the chain before the failure is ``stranded``
(re-running it would double-submit its task).  The front end learns of
requests only from drain results, so a later, successful ``process()`` must
report every one of them.  Otherwise their front-end records stay ``queued``
and ``pending_count`` never returns to zero.  Both tiers run the same stream:
``ProcessFleet`` (the failure is a refused nested chain call) and
``TAOCluster`` (the failure is raised by the shared chain).

A stranded request that looked honest and was not going to be disputed is
finalized by that later drain once its challenge window has passed, so its
fee and bond leave escrow; one that was going to be disputed stays
``stranded`` with its task pending.
"""

from __future__ import annotations

import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet, WorkerError

FAILING_TRANSFER = 2  # the second transfer_all: mid-settle of the first request
TERMINAL = {"finalized", "proposer_slashed", "challenger_slashed"}


def _fail_fleet(front):
    calls = {"transfer_all": 0}

    def hook(shard_id, message):
        if message.get("method") == "transfer_all":
            calls["transfer_all"] += 1
            if calls["transfer_all"] == FAILING_TRANSFER:
                message["args"] = {}

    front._chain_call_hook = hook
    return WorkerError, lambda: setattr(front, "_chain_call_hook", None)


def _fail_cluster(front):
    calls = {"transfer_all": 0}
    real = front.chain.transfer_all

    def transfer_all(moves):
        calls["transfer_all"] += 1
        if calls["transfer_all"] == FAILING_TRANSFER:
            raise RuntimeError("transient chain failure")
        return real(moves)

    front.chain.transfer_all = transfer_all
    return RuntimeError, lambda: vars(front.chain).pop("transfer_all")


def _fail_then_retry(front, graph, thresholds, input_factory, forced):
    """Three requests; the first drain fails mid-settle of the second, after
    the first one's task reached the chain.  Returns the ids and the retry
    drain's return."""
    front.register_model(graph, threshold_table=thresholds)
    ids = [front.submit("tiny_mlp", input_factory(2100 + i),
                        force_challenge=forced and i == 0)
           for i in range(3)]
    error, disarm = (_fail_fleet if isinstance(front, ProcessFleet)
                     else _fail_cluster)(front)
    with pytest.raises(error):
        front.process()
    disarm()
    settled = front.process()
    assert sorted(view.request_id for view in settled) == ids
    assert front.pending_count == 0
    # The other two never reached the chain and were served by the retry.
    for request_id in ids[1:]:
        assert front.request(request_id).status in TERMINAL
    assert front.process() == []
    chain = front.chain
    assert sum(chain.balances.values()) == pytest.approx(chain.minted)
    return ids


def _front(tier):
    return ProcessFleet(num_workers=1) if tier == "fleet" else TAOCluster(num_shards=1)


@pytest.mark.parametrize("tier", ["fleet", "cluster"])
def test_a_later_drain_settles_what_a_failed_drain_left(
        tier, mlp_graph, mlp_thresholds, mlp_input_factory):
    with _front(tier) as front:
        ids = _fail_then_retry(front, mlp_graph, mlp_thresholds,
                               mlp_input_factory, forced=False)
        # The first request's task reached the chain before the failure and
        # is never re-submitted.  It looked honest, so the retry drain
        # finalized it after its window and escrow holds nothing.
        first = front.request(ids[0])
        assert first.status == "finalized"
        assert first.error is None
        assert first.report.task.status.value == "finalized"
        assert front.chain.balances.get("coordinator-escrow", 0.0) == 0


@pytest.mark.parametrize("tier", ["fleet", "cluster"])
def test_a_stranded_request_bound_for_dispute_stays_stranded(
        tier, mlp_graph, mlp_thresholds, mlp_input_factory):
    with _front(tier) as front:
        ids = _fail_then_retry(front, mlp_graph, mlp_thresholds,
                               mlp_input_factory, forced=True)
        # Forced into a dispute that never opened: it stays stranded with
        # its pending task named, and its escrow stays locked.
        first = front.request(ids[0])
        assert first.status == "stranded"
        assert "pending" in first.error
        assert front.chain.balances.get("coordinator-escrow", 0.0) > 0
