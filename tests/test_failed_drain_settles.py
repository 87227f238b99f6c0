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


@pytest.mark.parametrize("tier", ["fleet", "cluster"])
def test_a_later_drain_settles_what_a_failed_drain_left(
        tier, mlp_graph, mlp_thresholds, mlp_input_factory):
    front = ProcessFleet(num_workers=1) if tier == "fleet" else TAOCluster(num_shards=1)
    with front:
        front.register_model(mlp_graph, threshold_table=mlp_thresholds)
        ids = [front.submit("tiny_mlp", mlp_input_factory(2100 + i))
               for i in range(3)]
        error, disarm = (_fail_fleet if tier == "fleet" else _fail_cluster)(front)
        with pytest.raises(error):
            front.process()
        disarm()

        settled = front.process()
        assert sorted(view.request_id for view in settled) == ids
        assert front.pending_count == 0
        # The first request's task reached the chain before the failure:
        # it is stranded with its pending task named, never re-submitted.
        # The other two never reached it and were served by the retry.
        stranded = front.request(ids[0])
        assert stranded.status == "stranded"
        assert "pending" in stranded.error
        for request_id in ids[1:]:
            assert front.request(request_id).status in TERMINAL
        assert front.process() == []
        chain = front.chain
        assert sum(chain.balances.values()) == pytest.approx(chain.minted)
