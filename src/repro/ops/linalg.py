"""Linear-algebra operators: matmul, bmm, linear.

These carry the largest contraction dimensions in transformer/CNN workloads
and therefore dominate both the theoretical rounding-error budget (the
``gamma_k`` factor grows with the contraction length K) and the observed
cross-device divergence (split-K accumulation order differs per device).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ops.registry import OpSpec, register_op, unbroadcast
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import matmul_flops
from repro.tensorlib.kernels import device_matmul


def _matmul_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return device_matmul(a, b, device)


def _matmul_vjp(device, grad_out, out, a, b) -> Tuple[np.ndarray, np.ndarray]:
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    grad = np.asarray(grad_out, dtype=np.float64)
    grad_a = np.matmul(grad, np.swapaxes(b64, -1, -2))
    grad_b = np.matmul(np.swapaxes(a64, -1, -2), grad)
    return unbroadcast(grad_a, a64.shape), unbroadcast(grad_b, b64.shape)


def _bmm_forward(device: DeviceProfile, a, b) -> np.ndarray:
    if np.ndim(a) < 3 or np.ndim(b) < 3:
        raise ValueError(f"bmm expects batched inputs, got {np.shape(a)} and {np.shape(b)}")
    return device_matmul(a, b, device)


def _linear_forward(device: DeviceProfile, x, weight, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ weight.T + bias`` with device-split accumulation (torch.nn.Linear layout)."""
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    out = device_matmul(x, weight.T, device)
    if bias is not None:
        out = (out + np.asarray(bias, dtype=np.float32)).astype(np.float32)
    return out


def _linear_vjp(device, grad_out, out, x, weight, bias=None):
    x64 = np.asarray(x, dtype=np.float64)
    w64 = np.asarray(weight, dtype=np.float64)
    grad = np.asarray(grad_out, dtype=np.float64)
    grad_x = np.matmul(grad, w64)
    # Collapse any batch dimensions when accumulating the weight gradient.
    grad_2d = grad.reshape(-1, grad.shape[-1])
    x_2d = x64.reshape(-1, x64.shape[-1])
    grad_w = np.matmul(grad_2d.T, x_2d)
    grads = [grad_x, grad_w]
    if bias is not None:
        grads.append(grad_2d.sum(axis=0))
    return tuple(grads)


def _linear_flops(out, x, weight, bias=None, **attrs) -> float:
    x_shape = np.shape(x)
    w_shape = np.shape(weight)
    flops = matmul_flops(x_shape, (w_shape[1], w_shape[0]))
    if bias is not None:
        flops += float(np.size(out))
    return flops


register_op(OpSpec("matmul", _matmul_forward, _matmul_vjp,
                   lambda out, a, b, **k: matmul_flops(np.shape(a), np.shape(b)), "linalg"))
register_op(OpSpec("bmm", _bmm_forward, _matmul_vjp,
                   lambda out, a, b, **k: matmul_flops(np.shape(a), np.shape(b)), "linalg"))
register_op(OpSpec("linear", _linear_forward, _linear_vjp, _linear_flops, "linalg"))
