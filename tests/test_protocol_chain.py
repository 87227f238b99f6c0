"""Unit tests for the simulated ledger and gas schedule."""

import math
import pathlib

import pytest

import repro
from repro.protocol.chain import GasSchedule, ShardChainView, SimulatedChain


def test_gas_schedule_components():
    schedule = GasSchedule()
    base = schedule.cost("finalize", calldata_bytes=0, storage_writes=0)
    assert base == 21_000 + schedule.action_surcharge["finalize"]
    with_data = schedule.cost("finalize", calldata_bytes=100, storage_writes=0)
    assert with_data == base + 16 * 100
    with_storage = schedule.cost("finalize", calldata_bytes=0, storage_writes=2)
    assert with_storage == base + 2 * 20_000
    with_checks = schedule.cost("finalize", merkle_checks=3, storage_writes=0)
    assert with_checks == base + 3 * schedule.action_surcharge["merkle_check"]


def test_unknown_action_uses_default_surcharge():
    schedule = GasSchedule()
    assert schedule.cost("bespoke_action", storage_writes=0) == 21_000 + 20_000


def test_submit_logs_transactions_and_advances_blocks():
    chain = SimulatedChain()
    assert chain.block_number == 0
    tx = chain.submit("alice", "submit_result", payload_bytes=128)
    assert tx.index == 0
    assert tx.gas_used > 21_000
    assert chain.block_number == 1
    assert chain.timestamp == pytest.approx(12.0)
    chain.submit("bob", "finalize")
    assert len(chain.transactions) == 2


def test_advance_time_moves_at_least_one_block():
    chain = SimulatedChain(block_interval_s=12.0)
    chain.advance_time(5.0)
    assert chain.block_number == 1
    chain.advance_time(60.0)
    assert chain.block_number == 6
    with pytest.raises(ValueError):
        chain.advance_time(-1.0)
    with pytest.raises(ValueError):
        chain.advance_blocks(-1)


def test_balances_and_transfers():
    chain = SimulatedChain()
    chain.fund("alice", 100.0)
    chain.transfer("alice", "bob", 30.0)
    assert chain.balance("alice") == pytest.approx(70.0)
    assert chain.balance("bob") == pytest.approx(30.0)
    with pytest.raises(ValueError):
        chain.transfer("alice", "bob", 1000.0)
    with pytest.raises(ValueError):
        chain.transfer("alice", "bob", -1.0)
    with pytest.raises(ValueError):
        chain.fund("alice", -5.0)


def test_transfer_insufficient_balance_is_exact():
    """No epsilon slack: a transfer of balance + 5e-13 must raise.

    Protocol amounts are binary fractions, so the balance check can (and
    must) be exact — the old ``1e-12`` tolerance let sub-resolution
    overdrafts through, minting dust out of thin air.
    """
    chain = SimulatedChain()
    chain.fund("alice", 100.0)
    with pytest.raises(ValueError, match="insufficient"):
        chain.transfer("alice", "bob", 100.0 + 5e-13)
    # The exact balance still moves in full.
    chain.transfer("alice", "bob", 100.0)
    assert chain.balance("alice") == 0.0
    assert chain.balance("bob") == 100.0
    assert sum(chain.balances.values()) == chain.minted


def test_gas_accounting_helpers():
    chain = SimulatedChain()
    chain.submit("a", "open_dispute")
    marker = len(chain.transactions)
    chain.submit("a", "post_partition", payload_bytes=200)
    chain.submit("b", "post_selection")
    total = chain.total_gas(since_index=marker)
    by_action = chain.gas_by_action(since_index=marker)
    assert total == by_action["post_partition"] + by_action["post_selection"]
    assert chain.total_gas(actions=["post_selection"], since_index=marker) == \
        by_action["post_selection"]
    assert chain.total_gas() > total


#: Calls that would move a non-finite amount into or across the ledger.
NON_FINITE_CALLS = {
    "fund_nan": lambda ledger: ledger.fund("alice", math.nan),
    "fund_inf": lambda ledger: ledger.fund("alice", math.inf),
    "fund_once_nan": lambda ledger: ledger.fund_once("carol", math.nan),
    "transfer_nan": lambda ledger: ledger.transfer("alice", "bob", math.nan),
    "transfer_all_inf": lambda ledger: ledger.transfer_all(
        [("alice", "bob", 1.0), ("bob", "carol", math.inf)]),
}


@pytest.mark.parametrize("over_view", [False, True], ids=["chain", "view"])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_amounts_are_rejected_before_any_mutation(call, over_view):
    """``have < nan`` is False, so without a guard a NaN transfer passes the
    overdraw check and poisons both balances and the conservation sum."""
    chain = SimulatedChain()
    chain.fund("alice", 10.0)
    ledger = ShardChainView(chain, "shard-0") if over_view else chain
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[call](ledger)
    assert chain.balances == {"alice": 10.0}
    assert chain.minted == 10.0


def test_gas_is_costed_in_one_place():
    """One transaction builder: ``SimulatedChain.append`` is the only code
    that costs gas, and the retired worker-side chain twin and stamped-append
    entry point do not come back under any name this guard knows."""
    package_root = pathlib.Path(repro.__file__).parent
    cost_sites, retired = [], []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        text = path.read_text(encoding="utf-8")
        cost_sites += [relative] * text.count("gas_schedule.cost(")
        retired += [relative for name in ("ChainClient", "append_stamped")
                    if name in text]
    assert cost_sites == ["protocol/chain.py"], cost_sites
    assert not retired, retired
