"""Shared test helpers: finite-difference gradient checking for operator VJPs,
the log-scan reference for a dispute's running gas, and tenants homed evenly
on a sharded front end."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph import trace_module
from repro.ops.registry import get_op
from repro.tensorlib.device import REFERENCE_DEVICE


def finite_difference_vjp_check(
    op_name: str,
    tensors: Sequence[np.ndarray],
    attrs: Optional[Dict] = None,
    check_inputs: Optional[Sequence[int]] = None,
    epsilon: float = 1e-4,
    rtol: float = 5e-2,
    atol: float = 5e-4,
    seed: int = 0,
) -> None:
    """Compare an operator's VJP against central finite differences.

    The check contracts the Jacobian with a random cotangent: for a random
    ``g`` with the output's shape, ``<vjp_i, e>`` must match
    ``d/d eps <g, f(..., x_i + eps*e, ...)>`` for a random direction ``e``.
    All arithmetic is float64 to keep the finite differences meaningful.
    """
    attrs = attrs or {}
    spec = get_op(op_name)
    assert spec.vjp is not None, f"{op_name} has no registered VJP"
    rng = np.random.default_rng(seed)

    tensors64 = [np.asarray(t, dtype=np.float64) if np.asarray(t).dtype.kind == "f"
                 else np.asarray(t) for t in tensors]
    out = spec.forward(REFERENCE_DEVICE, *tensors64, **attrs)
    cotangent = rng.standard_normal(np.shape(out))

    grads = spec.vjp(REFERENCE_DEVICE, cotangent, out, *tensors64, **attrs)
    indices = check_inputs if check_inputs is not None else range(len(tensors64))

    for index in indices:
        tensor = tensors64[index]
        if np.asarray(tensor).dtype.kind != "f":
            continue
        grad = grads[index]
        assert grad is not None, f"{op_name}: missing gradient for input {index}"
        direction = rng.standard_normal(np.shape(tensor))
        analytic = float(np.sum(np.asarray(grad, dtype=np.float64) * direction))

        def perturbed(scale: float) -> float:
            shifted = list(tensors64)
            shifted[index] = tensor + scale * direction
            result = spec.forward(REFERENCE_DEVICE, *shifted, **attrs)
            return float(np.sum(np.asarray(result, dtype=np.float64) * cotangent))

        numeric = (perturbed(epsilon) - perturbed(-epsilon)) / (2.0 * epsilon)
        scale = max(abs(analytic), abs(numeric), 1.0)
        assert abs(analytic - numeric) <= rtol * scale + atol, (
            f"{op_name}: VJP mismatch on input {index}: "
            f"analytic={analytic:.6g}, numeric={numeric:.6g}"
        )


def scanned_dispute_gas_by_action(coordinator, dispute_id: int) -> Dict[str, int]:
    """The reference for ``Coordinator.dispute_gas_by_action``: a log scan.

    Every dispute action records its ``dispute_id`` in the transaction
    details, so the scan keeps the transactions that carry the id and the
    coordinator's shard tag.  A shard's chain view lists only the
    transactions it appended; the shard-tag match keeps the scan exact for
    a coordinator on a bare chain whose log also holds shard-tagged
    transactions.  Two coordinators on one untagged log share ids and tags,
    and the scan counts both — which is why the coordinator keeps running
    totals instead; this scan stays only as the tests' independent oracle.
    """
    coordinator.dispute(dispute_id)  # an unknown id raises, as the API does
    own_shard = getattr(coordinator.chain, "shard_id", None)
    out: Dict[str, int] = {}
    for tx in coordinator.chain.transactions:
        if tx.details.get("dispute_id") == dispute_id and tx.shard == own_shard:
            out[tx.action] = out.get(tx.action, 0) + tx.gas_used
    return out


def homed_tenants(front, module, input_factory, thresholds,
                  per_shard: int) -> List[str]:
    """Register ``tenant_<i>`` copies of ``module`` on a sharded front end
    until every shard homes ``per_shard`` of them; returns that many names
    per shard, in shard order.  The ring places tenants by commitment
    digest, so the names are chosen by where they land, not assumed."""
    homed: Dict[str, List[str]] = {shard_id: [] for shard_id in front.shards}
    index = 0
    while min(len(names) for names in homed.values()) < per_shard:
        assert index < 16 * per_shard * len(homed), \
            "the ring homed too few tenants on a shard"
        tenant = trace_module(module, input_factory(0), name=f"tenant_{index}")
        front.register_model(tenant, threshold_table=thresholds)
        homed[front.location(tenant.name)].append(tenant.name)
        index += 1
    return [name for shard_id in sorted(homed)
            for name in homed[shard_id][:per_shard]]
