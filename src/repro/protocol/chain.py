"""Simulated coordination ledger with gas metering.

The paper instantiates the coordinator as Ethereum smart contracts on the
Holesky testnet and reports coordination cost in kgas (~2M gas per dispute,
Table 3).  TAO itself does not rely on blockchain assumptions, so this
reproduction models the ledger as an in-process object that provides exactly
what the protocol needs from it: an authenticated append-only transaction
log, block timestamps for challenge windows and per-round timeouts, account
balances for bonds/escrow, and a gas schedule so coordination cost can be
accounted the same way the paper reports it.

The gas schedule follows Ethereum's fee rules where they matter for the
accounting (21k base per transaction, 16 gas per non-zero calldata byte) plus
per-action execution surcharges tuned so that a typical 11-13 round dispute
lands near the paper's ~2M gas figure.

**Sharding.**  Both sharded tiers settle every shard on one chain:
balances, the minted total and the transaction log are shared fleet-wide
(appends and transfers are serialized by an internal lock, so concurrent
shard workers never corrupt the ledger), while each shard holds a
:class:`ShardChainView` with its **own block clock**.  Protocol time is a
per-shard notion — one shard advancing past its challenge windows must never
lapse another shard's still-open windows — so views advance independently and
stamp every transaction they append with their shard id, which is what makes
per-shard gas attribution (:meth:`SimulatedChain.gas_by_shard`) and exact
per-dispute gas accounting across shards possible.  A view sits over a
*ledger*: the :class:`SimulatedChain` itself in process, or a
:class:`~repro.fleet.chainproxy.RemoteLedger` in a fleet worker, which
forwards the same calls to the parent's chain.  Either way
:meth:`SimulatedChain.append` is the one place gas is costed and a
transaction is logged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def _require_finite(amount: float) -> None:
    """The ledger's amount gate: NaN or an infinity never reaches a balance.

    ``have < nan`` is False, so a NaN would pass every overdraw check and
    break ``sum(balances) == minted``.  A non-number raises ``TypeError``.
    """
    if not math.isfinite(amount):
        raise ValueError(f"amount must be finite, got {amount!r}")


@dataclass(frozen=True)
class GasSchedule:
    """Per-action gas model used to meter coordinator interactions."""

    base_tx: int = 21_000
    calldata_per_byte: int = 16
    storage_write: int = 20_000
    #: Execution surcharges per protocol action (rough EVM-footprint analogues).
    action_surcharge: Dict[str, int] = field(default_factory=lambda: {
        "register_model": 60_000,
        "submit_result": 45_000,
        "finalize": 15_000,
        "open_dispute": 70_000,
        "post_partition": 40_000,
        "post_selection": 25_000,
        "request_adjudication": 30_000,
        "post_adjudication": 55_000,
        "prove_input_binding": 35_000,
        "slash": 40_000,
        "committee_vote": 20_000,
        "merkle_check": 6_000,
    })

    def cost(self, action: str, calldata_bytes: int = 0, storage_writes: int = 1,
             merkle_checks: int = 0) -> int:
        surcharge = self.action_surcharge.get(action, 20_000)
        return (
            self.base_tx
            + self.calldata_per_byte * int(calldata_bytes)
            + self.storage_write * int(storage_writes)
            + surcharge
            + self.action_surcharge["merkle_check"] * int(merkle_checks)
        )


@dataclass
class Transaction:
    """One logged coordinator interaction."""

    index: int
    block: int
    timestamp: float
    sender: str
    action: str
    gas_used: int
    payload_bytes: int
    details: Dict[str, object] = field(default_factory=dict)
    #: Shard whose chain view appended this transaction (None outside clusters).
    shard: Optional[str] = None


class SimulatedChain:
    """Append-only transaction log with block time, balances and gas totals."""

    def __init__(self, gas_schedule: Optional[GasSchedule] = None,
                 block_interval_s: float = 12.0) -> None:
        self.gas_schedule = gas_schedule or GasSchedule()
        self.block_interval_s = float(block_interval_s)
        self.block_number = 0
        self.timestamp = 0.0
        self.transactions: List[Transaction] = []
        self.balances: Dict[str, float] = {}
        #: Total value ever minted via :meth:`fund`.  Every other balance
        #: movement is a :meth:`transfer`, so at any point the ledger must
        #: satisfy ``sum(balances.values()) == minted`` — the conservation
        #: invariant the protocol simulator checks after every scenario.
        self.minted = 0.0
        #: Serializes ledger mutation (balances/minted/log append) so that
        #: concurrent shard workers settling on one chain stay exact.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def advance_blocks(self, n_blocks: int = 1) -> None:
        if n_blocks < 0:
            raise ValueError("cannot advance a negative number of blocks")
        self.block_number += int(n_blocks)
        self.timestamp += self.block_interval_s * int(n_blocks)

    def advance_time(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        blocks = max(int(seconds // self.block_interval_s), 1)
        self.advance_blocks(blocks)

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------

    def fund(self, account: str, amount: float) -> None:
        _require_finite(amount)
        if amount < 0:
            raise ValueError("cannot fund a negative amount")
        with self._lock:
            self.balances[account] = self.balances.get(account, 0.0) + float(amount)
            self.minted += float(amount)

    def fund_once(self, account: str, amount: float) -> bool:
        """Mint ``amount`` into ``account`` only if the account is new.

        Standing-role funding goes through this entry point so that a chain
        *carried across* protocol episodes (the long-horizon campaign driver
        in :mod:`repro.sim.campaign`) keeps its depleted stakes: a proposer
        slashed down over earlier cycles re-enters the next cycle with what
        is left, not a fresh mint.  On a fresh chain every account is new, so
        the behaviour is exactly :meth:`fund` — the seed path is unchanged.
        Returns whether a mint happened.
        """
        _require_finite(amount)
        if amount < 0:
            raise ValueError("cannot fund a negative amount")
        with self._lock:
            if account in self.balances:
                return False
            self.balances[account] = float(amount)
            self.minted += float(amount)
            return True

    def carry_over(self, balances: Dict[str, float]) -> None:
        """Seed this (fresh) chain with a ledger carried from earlier cycles.

        Accounts are minted in sorted order so the float accumulation of
        ``minted`` is deterministic regardless of the dict's insertion
        history — the campaign determinism pin compares minted totals
        bit-exactly across worker interleavings.
        """
        for account in sorted(balances):
            self.fund(account, balances[account])

    def balance(self, account: str) -> float:
        return self.balances.get(account, 0.0)

    def transfer(self, source: str, destination: str, amount: float) -> None:
        self.transfer_all([(source, destination, amount)])

    def transfer_all(self, moves: Sequence[Tuple[str, str, float]]) -> None:
        """Apply ``(source, destination, amount)`` moves all-or-nothing.

        The moves are replayed in order on a scratch copy of the touched
        balances first; only if every source covers its move does the
        ledger change, so a short account leaves every balance untouched.
        """
        with self._lock:
            after: Dict[str, float] = {}
            for source, destination, amount in moves:
                _require_finite(amount)
                if amount < 0:
                    raise ValueError("cannot transfer a negative amount")
                have = after.get(source, self.balances.get(source, 0.0))
                # Exact check, no epsilon slack: every equivalence pin in the
                # repo claims bit-exact balance/minted equality, and protocol
                # amounts (fees, bonds, reward splits) are all exactly
                # representable, so a shortfall of any size is a real overdraw.
                if have < amount:
                    raise ValueError(
                        f"insufficient balance: {source} has {have}, needs {amount}")
                after[source] = have - amount
                after[destination] = after.get(
                    destination, self.balances.get(destination, 0.0)) + amount
            self.balances.update(after)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def append(self, sender: str, action: str, payload_bytes: int,
               storage_writes: int, merkle_checks: int,
               details: Optional[Dict[str, object]], block: int,
               timestamp: float, shard: Optional[str]) -> Transaction:
        """Cost and log one transaction stamped with the caller's clock.

        The only transaction builder: the chain's own :meth:`submit`, every
        in-process :class:`ShardChainView` and every fleet worker's view
        (over the wire) append through it.  Gas is costed with this chain's
        schedule and the log append is serialized under the chain lock.  No
        clock advances here; the caller owns the clock it stamped with.
        """
        gas = self.gas_schedule.cost(action, payload_bytes, storage_writes,
                                     merkle_checks)
        with self._lock:
            tx = Transaction(
                index=len(self.transactions),
                block=int(block),
                timestamp=float(timestamp),
                sender=sender,
                action=action,
                gas_used=gas,
                payload_bytes=int(payload_bytes),
                details=dict(details or {}),
                shard=shard,
            )
            self.transactions.append(tx)
        return tx

    def submit(self, sender: str, action: str, payload_bytes: int = 0,
               storage_writes: int = 1, merkle_checks: int = 0,
               details: Optional[Dict[str, object]] = None) -> Transaction:
        """Record a transaction; returns the logged entry with its gas cost."""
        tx = self.append(sender, action, payload_bytes, storage_writes,
                         merkle_checks, details, self.block_number,
                         self.timestamp, None)
        # Every transaction lands in a (new) block to keep timeouts simple.
        self.advance_blocks(1)
        return tx

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def total_gas(self, actions: Optional[List[str]] = None,
                  since_index: int = 0) -> int:
        txs = self.transactions[since_index:]
        if actions is not None:
            wanted = set(actions)
            txs = [tx for tx in txs if tx.action in wanted]
        return int(sum(tx.gas_used for tx in txs))

    def gas_by_action(self, since_index: int = 0) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for tx in self.transactions[since_index:]:
            out[tx.action] = out.get(tx.action, 0) + tx.gas_used
        return out

    def gas_by_shard(self, since_index: int = 0) -> Dict[Optional[str], int]:
        """Total gas attributed per shard tag (None = non-cluster traffic)."""
        out: Dict[Optional[str], int] = {}
        for tx in self.transactions[since_index:]:
            out[tx.shard] = out.get(tx.shard, 0) + tx.gas_used
        return out


class ShardChainView:
    """One shard's clock over a shared settlement *ledger*.

    The ledger is either the shared :class:`SimulatedChain` itself (a
    :class:`~repro.cluster.cluster.TAOCluster` shard, in process) or a
    :class:`~repro.fleet.chainproxy.RemoteLedger` that forwards the same
    calls to the parent's chain (a :class:`~repro.fleet.fleet.ProcessFleet`
    worker).  Either way the view **delegates** balances, the minted total,
    funding, transfers and the transaction append to the ledger, and **owns**
    its block number, timestamp and the list of transactions it appended.
    Challenge windows and round timeouts are judged against the owning
    shard's clock, so a shard advancing time past its own windows (the
    finalization sweep at the end of a processing cycle) can never lapse a
    sibling shard's still-open windows.  Every transaction appended through
    the view is stamped with the shard id at the view's local block height.

    The view quacks like a :class:`SimulatedChain` (same method surface), so
    a :class:`~repro.protocol.coordinator.Coordinator` runs over it
    unmodified; its ``transactions`` are the shard's own, in append order
    (in process, the very objects of the shared log).
    """

    def __init__(self, ledger, shard_id: str) -> None:
        self.ledger = ledger
        self.shard_id = str(shard_id)
        self.block_interval_s = ledger.block_interval_s
        self.block_number = 0
        self.timestamp = 0.0
        self.transactions: List[Transaction] = []

    # -- shared ledger state (delegated) --------------------------------

    @property
    def balances(self) -> Dict[str, float]:
        return self.ledger.balances

    @property
    def minted(self) -> float:
        return self.ledger.minted

    def fund(self, account: str, amount: float) -> None:
        self.ledger.fund(account, amount)

    def fund_once(self, account: str, amount: float) -> bool:
        return self.ledger.fund_once(account, amount)

    def balance(self, account: str) -> float:
        return self.ledger.balance(account)

    def transfer(self, source: str, destination: str, amount: float) -> None:
        self.ledger.transfer(source, destination, amount)

    def transfer_all(self, moves: Sequence[Tuple[str, str, float]]) -> None:
        self.ledger.transfer_all(moves)

    # -- per-shard protocol time (the chain's own rules, on this clock) ----

    advance_blocks = SimulatedChain.advance_blocks
    advance_time = SimulatedChain.advance_time

    # -- transactions ------------------------------------------------------

    def submit(self, sender: str, action: str, payload_bytes: int = 0,
               storage_writes: int = 1, merkle_checks: int = 0,
               details: Optional[Dict[str, object]] = None) -> Transaction:
        """Append a shard-stamped transaction to the ledger's shared log."""
        tx = self.ledger.append(sender, action, payload_bytes, storage_writes,
                                merkle_checks, details, self.block_number,
                                self.timestamp, self.shard_id)
        self.transactions.append(tx)
        # Every transaction lands in a (new) block, as on the chain itself.
        self.advance_blocks(1)
        return tx
