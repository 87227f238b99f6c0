"""Worker-side proxy over the parent's settlement chain.

A fleet worker runs a full coordinator, and the coordinator needs a chain.
:class:`ChainClient` gives it one with exactly the split a
:class:`~repro.protocol.chain.ShardChainView` has in-process:

* **Owned locally** — the shard's block clock (``block_number`` /
  ``timestamp``, advanced one block per transaction) and a mirror of the
  transactions this shard appended.  Protocol time is a per-shard notion and
  the coordinator's per-dispute gas accounting indexes into *its own* shard's
  transaction sequence (``gas_start_index``), so both must live with the
  coordinator, not behind an RPC.
* **Delegated over RPC** — every ledger mutation (fund / transfer) and read
  (balance / balances / minted), plus the append itself: the worker ships
  its clock stamp with the call, the parent costs gas under the shared
  chain's own :class:`~repro.protocol.chain.GasSchedule` and appends under
  the chain lock (:meth:`~repro.protocol.chain.SimulatedChain.append_stamped`),
  and the returned gas figure lands in the local mirror.  Balances, the
  minted total and shard-tagged gas therefore stay exact fleet-wide.

Insufficient-balance failures re-raise as :class:`ValueError` with the
parent's message, matching the in-process chain's contract, so coordinator
escrow logic is oblivious to the process boundary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.fleet.transport import MessageChannel
from repro.protocol.chain import GasSchedule, SimulatedChain, Transaction


class ChainClient:
    """Quacks like a :class:`~repro.protocol.chain.ShardChainView`."""

    def __init__(self, channel: MessageChannel, shard_id: str,
                 block_interval_s: float = 12.0) -> None:
        self._channel = channel
        self.shard_id = str(shard_id)
        self.block_interval_s = float(block_interval_s)
        self.block_number = 0
        self.timestamp = 0.0
        self.gas_schedule = GasSchedule()
        self._transactions: List[Transaction] = []
        #: Per-incarnation sequence id stamped on every chain call.  A
        #: worker restarted from its journal re-issues the same
        #: deterministic call stream from seq 1; the parent answers ids at
        #: or below its journal tail from the journal instead of
        #: re-applying them — at-most-once for every ledger mutation.
        self._seq = 0

    # -- per-shard protocol time (the chain's own rules, on this clock) ----

    advance_blocks = SimulatedChain.advance_blocks
    advance_time = SimulatedChain.advance_time

    @property
    def next_seq(self) -> int:
        """Sequence id the next chain call will carry.  Journal entries are
        stamped with it so a replayed worker's re-emitted write-ahead
        records land at the same position and dedupe exactly."""
        return self._seq + 1

    # -- RPC plumbing ------------------------------------------------------

    def _call(self, method: str, **kwargs: Any) -> Any:
        self._seq += 1
        self._channel.send({"kind": "chain_call", "method": method,
                            "args": kwargs, "seq": self._seq})
        reply = self._channel.recv()
        if not reply.get("ok"):
            message = str(reply.get("error", "chain call failed"))
            if reply.get("error_type") == "ValueError":
                raise ValueError(message)
            raise RuntimeError(message)
        return reply.get("value")

    # -- shared ledger state (delegated) --------------------------------

    def fund(self, account: str, amount: float) -> None:
        self._call("fund", account=account, amount=float(amount))

    def fund_once(self, account: str, amount: float) -> bool:
        return bool(self._call("fund_once", account=account,
                               amount=float(amount)))

    def transfer(self, source: str, destination: str, amount: float) -> None:
        self._call("transfer", source=source, destination=destination,
                   amount=float(amount))

    def transfer_all(self, moves) -> None:
        self._call("transfer_all", moves=[[source, destination, float(amount)]
                                          for source, destination, amount in moves])

    def balance(self, account: str) -> float:
        return float(self._call("balance", account=account))

    @property
    def balances(self) -> Dict[str, float]:
        return dict(self._call("balances"))

    @property
    def minted(self) -> float:
        return float(self._call("minted"))

    # -- transactions ------------------------------------------------------

    @property
    def transactions(self) -> List[Transaction]:
        """This shard's own appended transactions, in append order.

        The coordinator records ``gas_start_index = len(chain.transactions)``
        when a dispute opens and scans forward from it; the mirror is exactly
        that per-shard sequence (what a ShardChainView's shard-filtered slice
        of the global log would contain).
        """
        return self._transactions

    def submit(self, sender: str, action: str, payload_bytes: int = 0,
               storage_writes: int = 1, merkle_checks: int = 0,
               details: Optional[Dict[str, object]] = None) -> Transaction:
        """Append one shard-stamped transaction to the parent's shared log."""
        value = self._call(
            "submit", sender=sender, action=action,
            payload_bytes=int(payload_bytes),
            storage_writes=int(storage_writes),
            merkle_checks=int(merkle_checks),
            details=dict(details or {}),
            block=self.block_number, timestamp=self.timestamp,
            shard=self.shard_id,
        )
        tx = Transaction(
            index=len(self._transactions),
            block=self.block_number,
            timestamp=self.timestamp,
            sender=sender,
            action=action,
            gas_used=int(value["gas_used"]),
            payload_bytes=int(payload_bytes),
            details=dict(details or {}),
            shard=self.shard_id,
        )
        self._transactions.append(tx)
        # Every transaction lands in a (new) block, as on the parent chain.
        self.advance_blocks(1)
        return tx

    # -- accounting (this shard's own view) --------------------------------

    def total_gas(self, actions: Optional[List[str]] = None,
                  since_index: int = 0) -> int:
        txs = self._transactions[since_index:]
        if actions is not None:
            wanted = set(actions)
            txs = [tx for tx in txs if tx.action in wanted]
        return int(sum(tx.gas_used for tx in txs))

    def gas_by_action(self, since_index: int = 0) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for tx in self._transactions[since_index:]:
            out[tx.action] = out.get(tx.action, 0) + tx.gas_used
        return out

    def shard_gas(self) -> int:
        return self.total_gas()
