"""Deterministic consistent-hash ring with virtual nodes and drain support.

The placement controller (:mod:`repro.cluster.placement`) routes every
tenant model to a shard by hashing the model's commitment digest onto a ring
of virtual nodes (``vnodes`` per shard).  The ring answers three questions:

* **routing** — :meth:`ConsistentHashRing.node_for` returns the first live
  (non-drained) shard clockwise of the key;
* **failover** — :meth:`ConsistentHashRing.successor` applies the next-node
  rule: the first live shard clockwise of the key that is not in the
  excluded set, which is where a failed shard's tenants re-home;
* **resize** — adding or removing a shard moves only the keys that fall into
  the arcs the shard's virtual nodes gained or vacated (the classic minimal
  disruption property), and :meth:`assignments` makes the resulting migration
  plan explicit and deterministic.

All positions come from SHA-256 over stable strings — Python's seeded
``hash()`` never appears — so every process, thread and re-run agrees on
placement bit-for-bit.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


def _position(label: str) -> int:
    """Ring position of a label: the first 8 bytes of SHA-256, big-endian."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def key_position(key: bytes) -> int:
    """Ring position of a routing key (e.g. a model commitment digest)."""
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class RingError(RuntimeError):
    """Raised on invalid ring operations (unknown node, empty ring, ...)."""


class ConsistentHashRing:
    """Sorted ring of (position, node) virtual-node pairs."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = int(vnodes)
        self._nodes: Set[str] = set()
        self._drained: Set[str] = set()
        #: Parallel sorted arrays of virtual-node positions and their owners.
        self._positions: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    @property
    def live_nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes - self._drained))

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise RingError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for vnode in range(self.vnodes):
            position = _position(f"{node}#{vnode}")
            index = bisect.bisect_left(self._positions, position)
            self._positions.insert(index, position)
            self._owners.insert(index, node)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise RingError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        self._drained.discard(node)
        keep = [(p, o) for p, o in zip(self._positions, self._owners) if o != node]
        self._positions = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # ------------------------------------------------------------------
    # Drain (administrative removal from routing, membership kept)
    # ------------------------------------------------------------------

    def drain(self, node: str) -> None:
        """Stop routing to ``node`` without moving its virtual nodes.

        Draining skips the node during lookups, so only keys owned by the
        drained node move (to their next live successor) — every other key's
        mapping is untouched, mirroring the minimal disruption of a removal
        while keeping the node's positions for a later :meth:`undrain`.
        """
        if node not in self._nodes:
            raise RingError(f"node {node!r} is not on the ring")
        self._drained.add(node)

    def undrain(self, node: str) -> None:
        if node not in self._nodes:
            raise RingError(f"node {node!r} is not on the ring")
        self._drained.discard(node)

    def is_drained(self, node: str) -> bool:
        return node in self._drained

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node_for(self, key: bytes) -> str:
        """The live node owning ``key``: first non-drained owner clockwise."""
        return self.successor(key, exclude=())

    def successor(self, key: bytes, exclude: Iterable[str] = ()) -> str:
        """Next-node rule: first live owner clockwise of ``key`` not excluded.

        With ``exclude`` empty this is plain routing; with the key's current
        owner excluded it is the failover target.
        """
        if not self._positions:
            raise RingError("the ring has no nodes")
        skip = set(exclude) | self._drained
        candidates = self._nodes - skip
        if not candidates:
            raise RingError("no live node available on the ring")
        start = bisect.bisect_right(self._positions, key_position(key))
        count = len(self._owners)
        for offset in range(count):
            owner = self._owners[(start + offset) % count]
            if owner in candidates:
                return owner
        raise RingError("no live node available on the ring")  # pragma: no cover

    def assignments(self, keys: Sequence[bytes]) -> Dict[bytes, str]:
        """Deterministic key->node map for a batch of keys (migration plans)."""
        return {key: self.node_for(key) for key in keys}
