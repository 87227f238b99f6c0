"""Concurrency regressions for the shared state behind cluster workers.

Three pieces of process-wide state are shared by concurrent shard workers
and must be thread-safe:

* :class:`~repro.merkle.cache.HashCache` — an identity-keyed memo whose
  entries are dropped by weak-reference callbacks when their arrays die,
  on whichever thread drops the last reference and without the lock.  The
  hammer pins exactness under real contention while every thread's churn
  arrays die (and their ``id()`` values are recycled) mid-run, and that
  the memo ends holding exactly the arrays still alive.
* :class:`~repro.protocol.chain.SimulatedChain` — balances/minted/log are
  settled by every shard; appends and transfers must stay exact under
  interleaving.
* :class:`~repro.protocol.chain.ShardChainView` — per-shard clocks over the
  shared ledger: one shard advancing (far) past its challenge windows must
  not move a sibling's clock one block.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.merkle.cache import HashCache, streaming_tensor_hash
from repro.protocol.chain import ShardChainView, SimulatedChain

NUM_THREADS = 8
ROUNDS = 60


def _run_threads(worker) -> None:
    """Run ``worker(thread_index)`` on NUM_THREADS threads, re-raising errors."""
    with ThreadPoolExecutor(max_workers=NUM_THREADS) as pool:
        futures = [pool.submit(worker, index) for index in range(NUM_THREADS)]
        for future in futures:
            future.result()  # propagate the first worker exception


# ----------------------------------------------------------------------
# HashCache
# ----------------------------------------------------------------------

def test_hash_cache_concurrent_hammer_is_exact_and_drops_dead_arrays():
    """Hot shared arrays + per-thread churn that dies at once: no corruption.

    Each churn array is released right after it is hashed, so its entry is
    dropped by the weak-reference callback while the other threads look up
    and store, and the next churn array of the same shape usually reuses
    its ``id()`` — a stale entry would hand it the wrong digest.
    """
    cache = HashCache()
    shared = [np.random.default_rng(index).standard_normal((24, 24)).astype(np.float32)
              for index in range(6)]
    expected = [streaming_tensor_hash(array) for array in shared]
    barrier = threading.Barrier(NUM_THREADS)

    def worker(thread_index: int) -> None:
        rng = np.random.default_rng(1000 + thread_index)
        barrier.wait()  # maximize interleaving
        for round_index in range(ROUNDS):
            for array, digest in zip(shared, expected):
                assert cache.hash_tensor(array) == digest
            churn = rng.standard_normal((8, 8)).astype(np.float32)
            assert cache.hash_tensor(churn) == streaming_tensor_hash(churn)
            del churn

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside lookups, stores and drops
    try:
        _run_threads(worker)
    finally:
        sys.setswitchinterval(interval)
    stats = cache.stats()
    # Every churn entry died with its array; the shared arrays stay memoized.
    assert stats["tensor_entries"] == len(shared)
    assert stats["tensor_misses"] >= len(shared) + NUM_THREADS * ROUNDS
    # Every lookup either hit or missed; the counters saw all of them.
    total = NUM_THREADS * ROUNDS * (len(shared) + 1)
    assert stats["tensor_hits"] + stats["tensor_misses"] == total


def test_hash_cache_concurrent_model_commitment_memo():
    """The model-commitment memo is race-free and returns one object."""
    cache = HashCache()
    graph_sentinel = object()
    table_sentinel = object()
    commitment = ("commitment",)
    barrier = threading.Barrier(NUM_THREADS)

    def worker(thread_index: int) -> None:
        barrier.wait()
        for _ in range(ROUNDS):
            found = cache.model_commitment(graph_sentinel, table_sentinel,
                                           {"alpha": 3.0})
            assert found is None or found is commitment
            cache.store_model_commitment(graph_sentinel, table_sentinel,
                                         {"alpha": 3.0}, commitment)
            assert cache.model_commitment(
                graph_sentinel, table_sentinel, {"alpha": 3.0}) is commitment

    _run_threads(worker)


# ----------------------------------------------------------------------
# SimulatedChain under concurrent settlement
# ----------------------------------------------------------------------

def test_shared_chain_concurrent_settlement_is_exact():
    """Funds, transfers and appends from many threads: exact conservation."""
    chain = SimulatedChain()
    chain.fund("hub", 0.0)
    barrier = threading.Barrier(NUM_THREADS)

    def worker(thread_index: int) -> None:
        account = f"acct-{thread_index}"
        view = ShardChainView(chain, f"shard-{thread_index}")
        barrier.wait()
        for round_index in range(ROUNDS):
            view.fund(account, 4.0)
            view.transfer(account, "hub", 1.5)
            view.submit(account, "submit_result", payload_bytes=round_index)

    _run_threads(worker)

    # Conservation is exact (all amounts are binary fractions).
    assert sum(chain.balances.values()) == chain.minted
    assert chain.minted == NUM_THREADS * ROUNDS * 4.0
    assert chain.balance("hub") == NUM_THREADS * ROUNDS * 1.5
    # The log saw every append exactly once, with unique contiguous indices.
    assert len(chain.transactions) == NUM_THREADS * ROUNDS
    assert sorted(tx.index for tx in chain.transactions) == \
        list(range(NUM_THREADS * ROUNDS))
    # Per-shard gas attribution partitions the whole log.
    by_shard = chain.gas_by_shard()
    assert set(by_shard) == {f"shard-{i}" for i in range(NUM_THREADS)}
    assert sum(by_shard.values()) == chain.total_gas()


# ----------------------------------------------------------------------
# ShardChainView clock isolation
# ----------------------------------------------------------------------

def test_shard_views_share_ledger_but_not_time():
    chain = SimulatedChain()
    view_a = ShardChainView(chain, "shard-a")
    view_b = ShardChainView(chain, "shard-b")

    view_a.fund("alice", 100.0)
    view_b.transfer("alice", "bob", 25.0)
    # One ledger: both views (and the parent) agree on balances and minted.
    for ledger in (chain, view_a, view_b):
        assert ledger.balance("alice") == 75.0
        assert ledger.balance("bob") == 25.0
        assert ledger.minted == 100.0

    # Independent clocks: a finalization sweep on A leaves B at genesis.
    view_a.advance_time(3600.0 + 1.0)
    assert view_a.timestamp >= 3600.0
    assert view_b.timestamp == 0.0
    assert view_b.block_number == 0
    assert chain.timestamp == 0.0

    # Appends land in the shared log, stamped with shard id and local clock.
    view_b.submit("bob", "submit_result")
    view_a.submit("alice", "finalize")
    assert [tx.shard for tx in chain.transactions] == ["shard-b", "shard-a"]
    assert chain.transactions[0].timestamp == 0.0          # B's genesis clock
    assert chain.transactions[1].timestamp == view_a.timestamp - \
        view_a.block_interval_s                            # A's advanced clock
    # Each view advanced only its own block height.
    assert view_a.block_number == int(3601.0 // chain.block_interval_s) + 1
    assert view_b.block_number == 1
    assert chain.block_number == 0

    # Time validation matches the parent chain's rules.
    with pytest.raises(ValueError):
        view_a.advance_time(-1.0)
    with pytest.raises(ValueError):
        view_a.advance_blocks(-1)
