"""Activation operators: ReLU, GELU, SiLU, leaky ReLU.

GELU follows the exact (erf-based) formulation used by BERT/Qwen-style
transformers; SiLU (a.k.a. swish) is ``x * sigmoid(x)`` as used by modern LLM
feed-forward blocks and diffusion UNets.
"""

from __future__ import annotations

import numpy as np

from repro.ops.registry import OpSpec, register_op
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import elementwise_flops
from repro.tensorlib.transcendental import erf


def _f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def _relu_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.maximum(_f32(a), np.float32(0.0)).astype(np.float32)


def _relu_vjp(device, grad_out, out, a):
    return (grad_out * (np.asarray(a, dtype=np.float64) > 0.0),)


def _leaky_relu_forward(device: DeviceProfile, a, *, negative_slope: float = 0.01) -> np.ndarray:
    a32 = _f32(a)
    return np.where(a32 > 0, a32, np.float32(negative_slope) * a32).astype(np.float32)


def _leaky_relu_vjp(device, grad_out, out, a, *, negative_slope: float = 0.01):
    a64 = np.asarray(a, dtype=np.float64)
    slope = np.where(a64 > 0.0, 1.0, negative_slope)
    return (grad_out * slope,)


def _gelu_forward(device: DeviceProfile, a) -> np.ndarray:
    a32 = _f32(a)
    cdf = np.float32(0.5) * (np.float32(1.0) + erf(a32 / np.float32(np.sqrt(2.0))))
    return (a32 * cdf.astype(np.float32)).astype(np.float32)


def _gelu_vjp(device, grad_out, out, a):
    a64 = np.asarray(a, dtype=np.float64)
    cdf = 0.5 * (1.0 + erf(a64 / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * a64 ** 2) / np.sqrt(2.0 * np.pi)
    return (grad_out * (cdf + a64 * pdf),)


def _silu_forward(device: DeviceProfile, a) -> np.ndarray:
    a32 = _f32(a)
    sig = np.float32(1.0) / (np.float32(1.0) + np.exp(-a32))
    return (a32 * sig).astype(np.float32)


def _silu_vjp(device, grad_out, out, a):
    a64 = np.asarray(a, dtype=np.float64)
    sig = 1.0 / (1.0 + np.exp(-a64))
    return (grad_out * (sig + a64 * sig * (1.0 - sig)),)


register_op(OpSpec("relu", _relu_forward, _relu_vjp,
                   lambda out, *t, **k: elementwise_flops(np.shape(out)), "activation"))
register_op(OpSpec("leaky_relu", _leaky_relu_forward, _leaky_relu_vjp,
                   lambda out, *t, **k: elementwise_flops(np.shape(out), 2.0), "activation"))
register_op(OpSpec("gelu", _gelu_forward, _gelu_vjp,
                   lambda out, *t, **k: elementwise_flops(np.shape(out), 10.0), "activation"))
register_op(OpSpec("silu", _silu_forward, _silu_vjp,
                   lambda out, *t, **k: elementwise_flops(np.shape(out), 6.0), "activation"))
