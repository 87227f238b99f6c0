"""SHA-256 Merkle tree with inclusion proofs.

Leaves are arbitrary byte strings; leaf hashes and internal hashes are domain
separated (``0x00`` / ``0x01`` prefixes) so a leaf can never be confused with
an internal node.  Odd nodes are promoted unchanged to the next level (Bitcoin
-style duplication is avoided to keep proofs unambiguous).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(payload: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + payload).digest()


def _hash_children(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the leaf index plus sibling hashes bottom-up.

    Each sibling entry is ``(hash, is_left)`` where ``is_left`` indicates the
    sibling sits to the left of the running hash.
    """

    leaf_index: int
    siblings: Tuple[Tuple[bytes, bool], ...]

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def size_bytes(self) -> int:
        """Approximate calldata size of this proof (32 bytes per sibling + index)."""
        return 8 + 33 * len(self.siblings)


class MerkleTree:
    """A static Merkle tree over an ordered list of byte-string leaves."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("cannot build a Merkle tree with zero leaves")
        self._leaves = [bytes(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = [[_hash_leaf(leaf) for leaf in self._leaves]]
        while len(self._levels[-1]) > 1:
            current = self._levels[-1]
            nxt: List[bytes] = []
            for i in range(0, len(current) - 1, 2):
                nxt.append(_hash_children(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                nxt.append(current[-1])
            self._levels.append(nxt)

    @classmethod
    def from_named_leaves(cls, named: Dict[str, bytes]) -> Tuple["MerkleTree", Dict[str, int]]:
        """Build a tree from a name->payload mapping (lexicographic leaf order).

        Returns the tree and the name->leaf-index mapping used to request
        proofs by name (the paper sorts ``state_dict`` keys the same way).
        """
        names = sorted(named)
        tree = cls([named[name] for name in names])
        return tree, {name: idx for idx, name in enumerate(names)}

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def num_leaves(self) -> int:
        return len(self._leaves)

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def leaf(self, index: int) -> bytes:
        return self._leaves[index]

    def prove(self, index: int) -> MerkleProof:
        """Produce the inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range [0, {len(self._leaves)})")
        siblings: List[Tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                if sibling_index < len(level):
                    siblings.append((level[sibling_index], False))
                # Odd node promoted unchanged: no sibling at this level.
            else:
                siblings.append((level[position - 1], True))
            position //= 2
        return MerkleProof(leaf_index=index, siblings=tuple(siblings))


def verify_proof(leaf_payload: bytes, proof: MerkleProof, root: bytes) -> bool:
    """Check that ``leaf_payload`` is included under ``root`` via ``proof``."""
    current = _hash_leaf(leaf_payload)
    for sibling, is_left in proof.siblings:
        if is_left:
            current = _hash_children(sibling, current)
        else:
            current = _hash_children(current, sibling)
    return current == root
