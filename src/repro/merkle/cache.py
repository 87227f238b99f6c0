"""Content-addressed hash and commitment caching (service hot path).

Phase 0/1 of the protocol hash the same bytes over and over when a model
serves a stream of requests: every weight tensor is re-canonicalized per
``commit_model`` call, dispute records hash the same boundary tensors on the
proposer side (building ``h_In``/``h_Out``) and again on the challenger side
(verifying them), and identical request payloads are re-hashed per
submission.  :class:`HashCache` memoizes those digests:

* **tensor hashes** — keyed by array identity through a weak reference, so
  a digest can never be confused with another array and never keeps its
  array alive: the entry is dropped when the array dies (a released trace
  takes its digests with it).  Commitment inputs are treated as immutable
  once hashed, which every call site in this repository honours (weights
  are frozen at registration, trace values are never written in place).
* **model commitments** — ``commit_model`` results keyed by the identity of
  (graph module, threshold table, metadata), so re-registering the same
  committed model (e.g. one service session per tenant) reuses the Merkle
  trees instead of re-merkleizing every weight.

Uncached tensor hashing additionally streams the canonical serialization
(:func:`~repro.utils.serialization.canonical_array_chunks`) straight into
SHA-256 instead of materializing the full canonical byte string — execution
commitments over large activations hash with zero extra copies.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.utils.serialization import canonical_array_chunks, canonical_json


def streaming_tensor_hash(value: np.ndarray) -> bytes:
    """``H(canon(z))`` computed incrementally (no canonical-bytes copy)."""
    hasher = hashlib.sha256()
    for chunk in canonical_array_chunks(np.asarray(value)):
        hasher.update(chunk)
    return hasher.digest()


class HashCache:
    """Memo of tensor digests and model commitments.

    The tensor memo is identity-keyed: an entry holds a weak reference to
    the array it was computed from, and a lookup only hits when the
    candidate *is* that object, so recycled ``id()`` values can never
    alias.  The reference's callback drops the entry when the array dies,
    so the memo holds exactly the digests of live arrays and pins none of
    them.

    The cache is **thread-safe**: one instance is shared by every shard
    worker of a :class:`~repro.cluster.cluster.TAOCluster` (the committed
    weights are the same arrays fleet-wide, so their digests are computed
    once).  A lock serializes lookups, stores and the hit/miss counters,
    while digests themselves are computed outside the lock (two threads
    racing on the same uncached array both compute the same digest; the
    second store is a harmless overwrite).  The drop callback never takes
    the lock: it can run during garbage collection on a thread that already
    holds it.  It pops its key only while the entry is still its own
    reference, which is safe without the lock because no other array can
    take the dying array's ``id()`` before the callback returns.
    """

    def __init__(self) -> None:
        tensors: Dict[int, Tuple[weakref.KeyedRef, bytes]] = {}

        def drop(ref: weakref.KeyedRef) -> None:
            if tensors.get(ref.key, (None,))[0] is ref:
                tensors.pop(ref.key, None)

        self._tensors = tensors
        self._drop = drop
        self._model_commitments: Dict[Tuple[int, int, int, str],
                                      Tuple[Any, Any, Any, Any]] = {}
        self.tensor_hits = 0
        self.tensor_misses = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Tensor digests
    # ------------------------------------------------------------------

    def hash_tensor(self, value: np.ndarray) -> bytes:
        arr = np.asarray(value)
        key = id(arr)
        with self._lock:
            entry = self._tensors.get(key)
            if entry is not None and entry[0]() is arr:
                self.tensor_hits += 1
                return entry[1]
            self.tensor_misses += 1
        digest = streaming_tensor_hash(arr)
        ref = weakref.KeyedRef(arr, self._drop, key)
        with self._lock:
            self._tensors[key] = (ref, digest)
        return digest

    # ------------------------------------------------------------------
    # Model commitments
    # ------------------------------------------------------------------

    def model_commitment(self, graph_module, threshold_table,
                         metadata: Optional[Dict[str, object]],
                         committee_envelope=None):
        """Return the memoized ``commit_model`` result for this identity tuple.

        Returns ``None`` on a miss; callers build the commitment and store it
        via :meth:`store_model_commitment`.
        """
        key = self._model_key(graph_module, threshold_table, metadata,
                              committee_envelope)
        with self._lock:
            entry = self._model_commitments.get(key)
        if entry is None:
            return None
        held_graph, held_table, held_envelope, commitment = entry
        if (held_graph is graph_module and held_table is threshold_table
                and held_envelope is committee_envelope):
            return commitment
        return None

    def store_model_commitment(self, graph_module, threshold_table,
                               metadata: Optional[Dict[str, object]], commitment,
                               committee_envelope=None) -> None:
        key = self._model_key(graph_module, threshold_table, metadata,
                              committee_envelope)
        with self._lock:
            self._model_commitments[key] = (graph_module, threshold_table,
                                            committee_envelope, commitment)

    @staticmethod
    def _model_key(graph_module, threshold_table,
                   metadata: Optional[Dict[str, object]],
                   committee_envelope=None) -> Tuple[int, int, int, str]:
        # The committee envelope participates in commitment identity the same
        # way the threshold table does: same model committed with and without
        # a leaf envelope must never alias one memo entry.
        return (id(graph_module), id(threshold_table),
                -1 if committee_envelope is None else id(committee_envelope),
                canonical_json(metadata or {}))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "tensor_entries": len(self._tensors),
            "tensor_hits": self.tensor_hits,
            "tensor_misses": self.tensor_misses,
            "model_commitments": len(self._model_commitments),
        }
