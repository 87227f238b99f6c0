"""A fleet worker's ledger, and the one table of chain verbs on the wire.

A fleet worker settles exactly as an in-process shard does: its coordinator
runs over a :class:`~repro.protocol.chain.ShardChainView`, which owns the
shard's block clock and the transactions the shard appended.  Only the
view's *ledger* differs.  In a worker it is a :class:`RemoteLedger`, which
turns every ledger call — fund / transfer, the balance reads and the
transaction append — into a nested ``chain_call`` frame to the parent.  The
parent serves the frame against its one shared
:class:`~repro.protocol.chain.SimulatedChain` with :func:`apply_chain_call`,
so gas is costed by :meth:`~repro.protocol.chain.SimulatedChain.append`
under the chain's own schedule and lock.  Balances, the minted total and
shard-tagged gas therefore stay exact fleet-wide.

:data:`CHAIN_VERBS` is the one verb table of that conversation: the ledger
names each frame's arguments from it and the parent binds them against it.
An unknown verb or arguments that do not bind raise ``TypeError``, which the
parent answers with an error reply, never by raising mid-conversation.
Insufficient-balance and other ``ValueError`` replies re-raise in the worker
as :class:`ValueError` with the parent's message, matching the in-process
chain's contract, so coordinator escrow logic is oblivious to the process
boundary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.fleet.transport import MessageChannel
from repro.protocol.chain import SimulatedChain, Transaction


def _receipt(chain: SimulatedChain, *args: Any) -> Dict[str, int]:
    tx = chain.append(*args)
    return {"gas_used": tx.gas_used, "index": tx.index}


#: Wire verb -> (argument names, the parent-side call on its chain that
#: returns the reply value).  The append travels as ``submit``.
CHAIN_VERBS: Dict[str, Tuple[Tuple[str, ...], Callable[..., Any]]] = {
    "fund": (("account", "amount"), SimulatedChain.fund),
    "fund_once": (("account", "amount"), SimulatedChain.fund_once),
    "transfer": (("source", "destination", "amount"), SimulatedChain.transfer),
    "transfer_all": (("moves",), SimulatedChain.transfer_all),
    "balance": (("account",), SimulatedChain.balance),
    "balances": ((), lambda chain: dict(chain.balances)),
    "minted": ((), lambda chain: chain.minted),
    "submit": (("sender", "action", "payload_bytes", "storage_writes",
                "merkle_checks", "details", "block", "timestamp", "shard"),
               _receipt),
}


def apply_chain_call(chain: SimulatedChain, verb: Any, args: Any) -> Any:
    """Apply one ``chain_call`` frame to ``chain``; returns the reply value.

    Raises ``TypeError`` before touching the chain when ``verb`` is not in
    :data:`CHAIN_VERBS` or ``args`` does not name exactly its arguments.
    """
    if verb not in CHAIN_VERBS:
        raise TypeError(f"unknown chain verb {verb!r}")
    names, call = CHAIN_VERBS[verb]
    if not isinstance(args, dict) or set(args) != set(names):
        raise TypeError(f"chain verb {verb!r} takes arguments {list(names)}, "
                        f"got {args!r}")
    return call(chain, *(args[name] for name in names))


class RemoteLedger:
    """The parent's chain, reached over a worker's channel.

    Holds only the RPC plumbing: the block interval the parent announced and
    the per-incarnation sequence id stamped on every call.  A worker
    restarted from its journal re-issues the same deterministic call stream
    from seq 1; the parent answers ids at or below its journal tail from the
    journal instead of re-applying them — at-most-once for every ledger
    mutation.
    """

    def __init__(self, channel: MessageChannel,
                 block_interval_s: float = 12.0) -> None:
        self._channel = channel
        self.block_interval_s = float(block_interval_s)
        self._seq = 0

    @property
    def next_seq(self) -> int:
        """Sequence id the next chain call will carry.  Journal entries are
        stamped with it so a replayed worker's re-emitted write-ahead
        records land at the same position and dedupe exactly."""
        return self._seq + 1

    def _call(self, verb: str, *values: Any) -> Any:
        self._seq += 1
        self._channel.send({"kind": "chain_call", "method": verb,
                            "args": dict(zip(CHAIN_VERBS[verb][0], values)),
                            "seq": self._seq})
        reply = self._channel.recv()
        if not reply.get("ok"):
            message = str(reply.get("error", "chain call failed"))
            if reply.get("error_type") == "ValueError":
                raise ValueError(message)
            raise RuntimeError(message)
        return reply.get("value")

    def fund(self, account: str, amount: float) -> None:
        self._call("fund", account, float(amount))

    def fund_once(self, account: str, amount: float) -> bool:
        return bool(self._call("fund_once", account, float(amount)))

    def transfer(self, source: str, destination: str, amount: float) -> None:
        self._call("transfer", source, destination, float(amount))

    def transfer_all(self, moves) -> None:
        self._call("transfer_all", [[source, destination, float(amount)]
                                    for source, destination, amount in moves])

    def balance(self, account: str) -> float:
        return float(self._call("balance", account))

    @property
    def balances(self) -> Dict[str, float]:
        return dict(self._call("balances"))

    @property
    def minted(self) -> float:
        return float(self._call("minted"))

    def append(self, sender: str, action: str, payload_bytes: int,
               storage_writes: int, merkle_checks: int, details,
               block: int, timestamp: float, shard: str) -> Transaction:
        """Append on the parent's log; returns the logged transaction."""
        details = dict(details or {})
        receipt = self._call("submit", sender, action, int(payload_bytes),
                             int(storage_writes), int(merkle_checks), details,
                             block, timestamp, shard)
        return Transaction(
            index=int(receipt["index"]), block=block, timestamp=timestamp,
            sender=sender, action=action, gas_used=int(receipt["gas_used"]),
            payload_bytes=int(payload_bytes), details=details, shard=shard)
