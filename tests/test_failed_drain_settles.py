"""A drain that fails partway strands no request on a sharded front end.

When a drain raises mid-settle, the shard's service has already finished
some of the admitted requests: requests in closed cycles are terminal, and a
request whose task reached the chain before the failure is ``stranded``
(re-running it would double-submit its task).  The front end learns of
requests only from drain results, so a later, successful ``process()`` must
report every one of them.  Otherwise their front-end records stay ``queued``
and ``pending_count`` never returns to zero.  Both tiers run the same stream:
``ProcessFleet`` (the failure is a refused nested chain call) and
``TAOCluster`` (the failure is raised by the shard's chain view).

The stream runs on one shard and on two.  With two shards only the second
shard's settle fails: the requests the first shard finished in the drain
that raised are returned by the next ``process()`` that completes, each
exactly once.

A stranded request that looked honest and was not going to be disputed is
finalized by that later drain once its challenge window has passed, so its
fee and bond leave escrow; one that was going to be disputed stays
``stranded`` with its task pending.
"""

from __future__ import annotations

import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet, WorkerError

from helpers import homed_tenants

FAILING_TRANSFER = 2  # the second transfer_all: mid-settle of the first request
TERMINAL = {"finalized", "proposer_slashed", "challenger_slashed"}
TENANTS_PER_SHARD = 4


def _fail_fleet(front, failing_shard):
    calls = {"transfer_all": 0}

    def hook(shard_id, message):
        if shard_id == failing_shard and message.get("method") == "transfer_all":
            calls["transfer_all"] += 1
            if calls["transfer_all"] == FAILING_TRANSFER:
                message["args"] = {}

    front._chain_call_hook = hook
    return WorkerError, lambda: setattr(front, "_chain_call_hook", None)


def _fail_cluster(front, failing_shard):
    calls = {"transfer_all": 0}
    view = front.shards[failing_shard].service.coordinator.chain
    real = view.transfer_all

    def transfer_all(moves):
        calls["transfer_all"] += 1
        if calls["transfer_all"] == FAILING_TRANSFER:
            raise RuntimeError("transient chain failure")
        return real(moves)

    view.transfer_all = transfer_all
    return RuntimeError, lambda: vars(view).pop("transfer_all")


def _stream(front, module, graph, thresholds, input_factory, forced):
    """The stream's ids, and the first request on the last shard (whose
    settle fails).  One shard: three requests to one tenant.  Two shards:
    one request to each of four tenants per shard."""
    if len(front.shards) == 1:
        front.register_model(graph, threshold_table=thresholds)
        names = [graph.name] * 3
    else:
        names = homed_tenants(front, module, input_factory, thresholds,
                              TENANTS_PER_SHARD)
    failing = max(front.shards)
    first = next(i for i, name in enumerate(names)
                 if front.location(name) == failing)
    ids = [front.submit(name, input_factory(2100 + i),
                        force_challenge=forced and i == first)
           for i, name in enumerate(names)]
    return ids, ids[first]


def _fail_then_retry(front, module, graph, thresholds, input_factory,
                     forced):
    """The first drain fails mid-settle of the last shard's second request,
    after its first one's task reached the chain.  Returns the id of that
    first request."""
    ids, first = _stream(front, module, graph, thresholds, input_factory,
                         forced)
    error, disarm = (_fail_fleet if isinstance(front, ProcessFleet)
                     else _fail_cluster)(front, max(front.shards))
    with pytest.raises(error):
        front.process()
    disarm()
    settled = front.process()
    # Every request exactly once, in submission order.
    views = [front.request(request_id) for request_id in ids]
    assert len(settled) == len(views)
    assert all(got is want for got, want in zip(settled, views))
    assert front.pending_count == 0
    # The rest never reached the chain before the failure, or were finished
    # by the other shard, and come back terminal.
    for request_id in ids:
        if request_id != first:
            assert front.request(request_id).status in TERMINAL
    assert front.process() == []
    chain = front.chain
    assert sum(chain.balances.values()) == pytest.approx(chain.minted)
    return first


#: (tier, shards) per run; the one-shard runs keep their plain tier ids.
STREAMS = [pytest.param(tier, shards,
                        id=tier if shards == 1 else f"{tier}-{shards}-shards")
           for shards in (1, 2) for tier in ("fleet", "cluster")]


def _front(tier, shards):
    return (ProcessFleet(num_workers=shards) if tier == "fleet"
            else TAOCluster(num_shards=shards))


@pytest.mark.parametrize("tier,shards", STREAMS)
def test_a_later_drain_settles_what_a_failed_drain_left(
        tier, shards, mlp_module, mlp_graph, mlp_thresholds,
        mlp_input_factory):
    with _front(tier, shards) as front:
        first = _fail_then_retry(front, mlp_module, mlp_graph,
                                 mlp_thresholds, mlp_input_factory,
                                 forced=False)
        # The first request's task reached the chain before the failure and
        # is never re-submitted.  It looked honest, so the retry drain
        # finalized it after its window and escrow holds nothing.
        first = front.request(first)
        assert first.status == "finalized"
        assert first.error is None
        assert first.report.task.status.value == "finalized"
        assert front.chain.balances.get("coordinator-escrow", 0.0) == 0


@pytest.mark.parametrize("tier,shards", STREAMS)
def test_a_stranded_request_bound_for_dispute_stays_stranded(
        tier, shards, mlp_module, mlp_graph, mlp_thresholds,
        mlp_input_factory):
    with _front(tier, shards) as front:
        first = _fail_then_retry(front, mlp_module, mlp_graph,
                                 mlp_thresholds, mlp_input_factory,
                                 forced=True)
        # Forced into a dispute that never opened: it stays stranded with
        # its pending task named, and its escrow stays locked.
        first = front.request(first)
        assert first.status == "stranded"
        assert "pending" in first.error
        assert front.chain.balances.get("coordinator-escrow", 0.0) > 0
