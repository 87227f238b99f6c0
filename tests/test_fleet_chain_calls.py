"""The parent's chain-call server against malformed and hostile frames.

A worker settles through nested ``chain_call`` frames that the parent
serves while the worker blocks on its ``chain_reply``.  Every frame must
therefore get exactly one reply: an unknown verb, arguments that do not bind
(missing, extra, wrong type) or a non-finite amount is answered with an
``ok: False`` reply, journaled like any other reply, and leaves the shared
ledger untouched.  Raising instead would leave the worker reading the next
op's frame as its reply.
"""

from __future__ import annotations

import math

import pytest

from repro.fleet import ProcessFleet, WorkerError
from repro.utils.serialization import canonical_bytes, decode_canonical

MALFORMED = {
    "unknown_verb": {"method": "mint", "args": {"account": "a", "amount": 1.0}},
    "missing_argument": {"method": "fund", "args": {}},
    "extra_argument": {"method": "fund",
                       "args": {"account": "a", "amount": 1.0, "memo": "x"}},
    "wrong_type": {"method": "fund", "args": {"account": "a", "amount": "10"}},
    "non_finite": {"method": "transfer_all",
                   "args": {"moves": [["funded", "b", math.nan]]}},
}


@pytest.fixture(scope="module")
def fleet():
    with ProcessFleet(num_workers=1) as front:
        front.chain.fund("funded", 10.0)
        yield front


def _ledger(chain):
    return dict(chain.balances), chain.minted, len(chain.transactions)


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_chain_call_gets_an_error_reply(fleet, shape):
    journal = fleet.journals["shard-0"]
    seq = journal.chain_tail + 1
    frame = {"kind": "chain_call", "seq": seq, **MALFORMED[shape]}
    before = _ledger(fleet.chain)
    data = canonical_bytes(frame)
    reply = decode_canonical(fleet._serve_chain_call("shard-0", frame, data))
    assert reply["kind"] == "chain_reply"
    assert reply["ok"] is False
    assert reply["error"]
    assert _ledger(fleet.chain) == before
    # Journaled like any reply: a replayed call at this seq is answered
    # from the journal.
    assert journal.chain_reply(seq, data) == canonical_bytes(reply)


def test_rejected_chain_call_fails_the_op_and_keeps_the_channel(
        mlp_graph, mlp_thresholds):
    """A frame the parent cannot bind fails the worker's op as WorkerError;
    the conversation stays in step, so the next op is answered normally."""
    with ProcessFleet(num_workers=1) as front:
        def strip_arguments(shard_id, message):
            front._chain_call_hook = None
            message["args"] = {}

        front._chain_call_hook = strip_arguments
        before = _ledger(front.chain)
        with pytest.raises(WorkerError):
            front.register_model(mlp_graph, threshold_table=mlp_thresholds)
        assert _ledger(front.chain) == before
        journal = front.journals["shard-0"]
        assert journal.chain_entry_count == 1
        assert journal.commands()[-1]["ok"] is False
        handle = front.workers["shard-0"]
        assert front._call(handle, {"op": "ping"}) == {"shard_id": "shard-0"}
