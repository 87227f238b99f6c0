"""Model, execution and subgraph commitments (paper Secs. 2.2 and 5.2).

* ``commit_weights`` merkleizes the ``state_dict`` (lexicographic key order,
  canonical tensor bytes) into the weight root ``r_w``.
* ``commit_graph`` merkleizes per-node canonical signatures into ``r_g``.
* ``commit_thresholds`` merkleizes the calibrated threshold table into ``r_e``.
* ``commit_committee_envelope`` merkleizes the committee leaf's calibrated
  acceptance envelope into ``r_c`` (present only for models calibrated with
  :func:`~repro.calibration.committee.calibrate_committee_envelope`).
* ``make_execution_commitment`` forms ``C0 = H(r_w || r_g || H(x) || H(y) || meta)``.
* ``make_subgraph_record`` / ``verify_subgraph_record`` produce and check the
  per-slice dispute message: slice indices, interface hashes ``h_In`` /
  ``h_Out`` and Merkle inclusion proofs for every operator signature and every
  referenced weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import GraphModule
from repro.graph.subgraph import SubgraphSlice, live_in, live_out
from repro.merkle.cache import HashCache, streaming_tensor_hash
from repro.merkle.tree import MerkleProof, MerkleTree, verify_proof
from repro.utils.hashing import hash_concat, sha256_bytes
from repro.utils.serialization import canonical_bytes, canonical_json


def hash_tensor(value: np.ndarray, cache: Optional[HashCache] = None) -> bytes:
    """``H(canon(z))`` — the canonical hash of one tensor.

    The digest is computed by streaming the canonical serialization into
    SHA-256 (no intermediate canonical-bytes copy); passing a
    :class:`~repro.merkle.cache.HashCache` additionally memoizes repeated
    hashes of the same tensor object.
    """
    if cache is not None:
        return cache.hash_tensor(value)
    return streaming_tensor_hash(np.asarray(value))


def interface_hash(values: Sequence[np.ndarray],
                   cache: Optional[HashCache] = None) -> bytes:
    """``h_D = H(concat_z H(canon(z)))`` over an ordered interface tensor list."""
    return hash_concat([hash_tensor(v, cache) for v in values])


def execution_input_hash(inputs: Mapping[str, np.ndarray],
                         cache: Optional[HashCache] = None) -> bytes:
    """``H(x)`` of an execution commitment: tensor hashes in sorted name order.

    The canonical identity of a request payload — used both inside ``C0``
    and as the service's content-addressed result-cache key, so the two can
    never diverge.
    """
    return hash_concat([hash_tensor(inputs[name], cache) for name in sorted(inputs)])


# ---------------------------------------------------------------------------
# Model commitment (Phase 0)
# ---------------------------------------------------------------------------

def commit_weights(parameters: Mapping[str, np.ndarray]) -> Tuple[MerkleTree, Dict[str, int]]:
    """Merkleize the state_dict; returns (tree, parameter name -> leaf index)."""
    named = {
        name: canonical_bytes({"name": name, "tensor": np.asarray(tensor)})
        for name, tensor in parameters.items()
    }
    return MerkleTree.from_named_leaves(named)


def commit_graph(graph_module: GraphModule) -> Tuple[MerkleTree, Dict[str, int]]:
    """Merkleize per-node canonical signatures sigma(n); leaf order is node order."""
    graph = graph_module.graph
    leaves = [graph.node_signature(node).encode("utf-8") for node in graph.nodes]
    tree = MerkleTree(leaves)
    index = {node.name: idx for idx, node in enumerate(graph.nodes)}
    return tree, index


def commit_thresholds(threshold_table) -> Tuple[MerkleTree, Dict[str, int]]:
    """Merkleize the per-operator threshold payloads into root r_e."""
    return MerkleTree.from_named_leaves(threshold_table.leaf_payloads())


def commit_committee_envelope(envelope) -> Tuple[MerkleTree, Dict[str, int]]:
    """Merkleize the committee leaf's acceptance-envelope payloads into r_c.

    ``envelope`` is a
    :class:`~repro.calibration.committee.CommitteeEnvelopeProfile`; its
    payloads carry the calibration provenance (safety factor, envelope
    percentile) so the committee's decision rule is pinned on chain exactly
    like the threshold table it sits beside.
    """
    return MerkleTree.from_named_leaves(envelope.leaf_payloads())


@dataclass
class ModelCommitment:
    """The Phase 0 commitment bundle recorded by the coordinator."""

    model_name: str
    weight_root: bytes
    graph_root: bytes
    threshold_root: bytes
    num_operators: int
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Root of the committee leaf's calibrated acceptance envelope (``r_c``);
    #: ``None`` for models committed without one (the reference tolerance).
    committee_root: Optional[bytes] = None

    #: Trees retained by the model owner / proposer for producing proofs.
    weight_tree: Optional[MerkleTree] = None
    weight_index: Optional[Dict[str, int]] = None
    graph_tree: Optional[MerkleTree] = None
    graph_index: Optional[Dict[str, int]] = None
    threshold_tree: Optional[MerkleTree] = None
    threshold_index: Optional[Dict[str, int]] = None
    committee_tree: Optional[MerkleTree] = None
    committee_index: Optional[Dict[str, int]] = None

    def public_view(self) -> "ModelCommitment":
        """The coordinator-visible part (roots only, no trees)."""
        return ModelCommitment(
            model_name=self.model_name,
            weight_root=self.weight_root,
            graph_root=self.graph_root,
            threshold_root=self.threshold_root,
            num_operators=self.num_operators,
            metadata=dict(self.metadata),
            committee_root=self.committee_root,
        )

    def digest(self) -> bytes:
        parts = [
            self.model_name.encode("utf-8"),
            self.weight_root,
            self.graph_root,
            self.threshold_root,
            canonical_json(self.metadata).encode("utf-8"),
        ]
        # Appended only when present so digests of committee-envelope-free
        # commitments (and everything keyed by them: cluster placement,
        # cached results) are unchanged from the pre-envelope protocol.
        if self.committee_root is not None:
            parts.append(self.committee_root)
        return hash_concat(parts)


def commit_model(graph_module: GraphModule, threshold_table,
                 metadata: Optional[Dict[str, object]] = None,
                 cache: Optional[HashCache] = None,
                 committee_envelope=None) -> ModelCommitment:
    """Produce the full Phase 0 model commitment for ``graph_module``.

    With a :class:`~repro.merkle.cache.HashCache`, re-committing the same
    (graph module, threshold table, metadata, committee envelope) tuple
    returns the memoized commitment instead of re-merkleizing every weight
    and node signature.  A registration commits once by construction
    (:meth:`~repro.protocol.service.ServiceCore.register_model`); the memo
    serves caches shared across registrations, such as the protocol
    simulator's, whose many short-lived services commit the same model.
    ``committee_envelope`` (a
    :class:`~repro.calibration.committee.CommitteeEnvelopeProfile`) adds the
    committee root ``r_c`` to the bundle when the model was leaf-calibrated.
    """
    if cache is not None:
        cached = cache.model_commitment(graph_module, threshold_table, metadata,
                                        committee_envelope)
        if cached is not None:
            return cached
    weight_tree, weight_index = commit_weights(graph_module.parameters)
    graph_tree, graph_index = commit_graph(graph_module)
    threshold_tree, threshold_index = commit_thresholds(threshold_table)
    committee_tree = committee_index = None
    if committee_envelope is not None:
        committee_tree, committee_index = commit_committee_envelope(committee_envelope)
    commitment = ModelCommitment(
        model_name=graph_module.name,
        weight_root=weight_tree.root,
        graph_root=graph_tree.root,
        threshold_root=threshold_tree.root,
        num_operators=graph_module.num_operators,
        metadata=dict(metadata or {}),
        committee_root=None if committee_tree is None else committee_tree.root,
        weight_tree=weight_tree,
        weight_index=weight_index,
        graph_tree=graph_tree,
        graph_index=graph_index,
        threshold_tree=threshold_tree,
        threshold_index=threshold_index,
        committee_tree=committee_tree,
        committee_index=committee_index,
    )
    if cache is not None:
        cache.store_model_commitment(graph_module, threshold_table, metadata,
                                     commitment, committee_envelope)
    return commitment


# ---------------------------------------------------------------------------
# Execution commitment (Phase 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionCommitment:
    """``C0 = H(r_w || r_g || H(x) || H(y) || meta)`` plus its components."""

    value: bytes
    input_hash: bytes
    output_hash: bytes
    meta: Dict[str, object]

    def size_bytes(self) -> int:
        return 32 * 3 + len(canonical_json(self.meta).encode("utf-8"))


def make_execution_commitment(
    model_commitment: ModelCommitment,
    inputs: Mapping[str, np.ndarray],
    outputs: Sequence[np.ndarray],
    meta: Optional[Dict[str, object]] = None,
    cache: Optional[HashCache] = None,
) -> ExecutionCommitment:
    meta = dict(meta or {})
    input_hash = execution_input_hash(inputs, cache)
    output_hash = interface_hash(list(outputs), cache)
    value = hash_concat([
        model_commitment.weight_root,
        model_commitment.graph_root,
        input_hash,
        output_hash,
        canonical_json(meta).encode("utf-8"),
    ])
    return ExecutionCommitment(value=value, input_hash=input_hash,
                               output_hash=output_hash, meta=meta)


# ---------------------------------------------------------------------------
# Subgraph records (Phase 2 dispute messages)
# ---------------------------------------------------------------------------

@dataclass
class SubgraphRecord:
    """The proposer's per-child dispute message.

    On-chain content: the slice indices, ``h_In``/``h_Out`` and the Merkle
    proofs.  The boundary tensors themselves are the off-chain payload the
    challenger downloads to run the selection rule (their hashes bind them to
    the on-chain record).
    """

    slice_start: int
    slice_end: int
    live_in_names: Tuple[str, ...]
    live_out_names: Tuple[str, ...]
    h_in: bytes
    h_out: bytes
    operator_proofs: Dict[str, Tuple[bytes, MerkleProof]]
    weight_proofs: Dict[str, Tuple[bytes, MerkleProof]]
    #: Off-chain payload: boundary tensor values keyed by node name.
    live_in_values: Dict[str, np.ndarray] = field(default_factory=dict)
    live_out_values: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def slice(self) -> SubgraphSlice:
        return SubgraphSlice(self.slice_start, self.slice_end)

    def num_merkle_proofs(self) -> int:
        return len(self.operator_proofs) + len(self.weight_proofs)

    def onchain_size_bytes(self) -> int:
        """Approximate calldata footprint of the on-chain part of this record."""
        size = 8 * 2 + 32 * 2
        for payload, proof in self.operator_proofs.values():
            size += 32 + proof.size_bytes()
        for payload, proof in self.weight_proofs.values():
            size += 32 + proof.size_bytes()
        return size


def make_subgraph_record(
    graph_module: GraphModule,
    model_commitment: ModelCommitment,
    slice_: SubgraphSlice,
    trace_values: Mapping[str, np.ndarray],
    cache: Optional[HashCache] = None,
) -> SubgraphRecord:
    """Build the proposer's dispute message for one child slice.

    ``trace_values`` is the proposer's recorded execution trace; the live-in /
    live-out tensors for the slice are pulled from it and hashed into
    ``h_In`` / ``h_Out``.
    """
    if model_commitment.graph_tree is None or model_commitment.weight_tree is None:
        raise ValueError("model commitment must retain its trees to produce proofs")
    graph = graph_module.graph
    in_names = tuple(live_in(graph, slice_))
    out_names = tuple(live_out(graph, slice_))
    in_values = {name: np.asarray(trace_values[name]) for name in in_names}
    out_values = {name: np.asarray(trace_values[name]) for name in out_names}

    operator_proofs: Dict[str, Tuple[bytes, MerkleProof]] = {}
    weight_proofs: Dict[str, Tuple[bytes, MerkleProof]] = {}
    operators = graph.operators[slice_.start:slice_.end]
    for node in operators:
        leaf = graph.node_signature(node).encode("utf-8")
        proof = model_commitment.graph_tree.prove(model_commitment.graph_index[node.name])
        operator_proofs[node.name] = (leaf, proof)
        for dep in node.input_nodes:
            if dep.op == "get_param" and dep.target not in weight_proofs:
                leaf_w = canonical_bytes({
                    "name": dep.target,
                    "tensor": np.asarray(graph_module.parameters[dep.target]),
                })
                proof_w = model_commitment.weight_tree.prove(
                    model_commitment.weight_index[dep.target]
                )
                weight_proofs[dep.target] = (leaf_w, proof_w)

    return SubgraphRecord(
        slice_start=slice_.start,
        slice_end=slice_.end,
        live_in_names=in_names,
        live_out_names=out_names,
        h_in=interface_hash([in_values[name] for name in in_names], cache),
        h_out=interface_hash([out_values[name] for name in out_names], cache),
        operator_proofs=operator_proofs,
        weight_proofs=weight_proofs,
        live_in_values=in_values,
        live_out_values=out_values,
    )


def verify_subgraph_record(
    record: SubgraphRecord,
    model_commitment: ModelCommitment,
    cache: Optional[HashCache] = None,
) -> Tuple[bool, int]:
    """Challenger/coordinator-side verification of a subgraph record.

    Checks (1) every operator-signature proof against ``r_g``, (2) every
    revealed weight proof against ``r_w`` and (3) that the off-chain boundary
    tensors hash to the committed ``h_In`` / ``h_Out``.  Returns
    ``(all_valid, number_of_merkle_checks)`` — the check count feeds the
    Fig. 8 "Merkle checks" microbenchmark.
    """
    checks = 0
    for leaf, proof in record.operator_proofs.values():
        checks += 1
        if not verify_proof(leaf, proof, model_commitment.graph_root):
            return False, checks
    for leaf, proof in record.weight_proofs.values():
        checks += 1
        if not verify_proof(leaf, proof, model_commitment.weight_root):
            return False, checks
    in_hash = interface_hash([record.live_in_values[name] for name in record.live_in_names], cache)
    out_hash = interface_hash([record.live_out_values[name] for name in record.live_out_names], cache)
    if in_hash != record.h_in or out_hash != record.h_out:
        return False, checks
    return True, checks
