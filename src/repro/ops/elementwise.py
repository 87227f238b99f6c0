"""Elementwise arithmetic and transcendental operators.

These operators apply one rounding per element (paper Appendix A.3 "basic
arithmetic and elementwise functions"); they carry no device-dependent
reduction, so their forward results are identical across simulated devices —
exactly as on real hardware, where cross-device divergence concentrates in
reduction-bearing kernels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ops.registry import OpSpec, register_op, unbroadcast
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import elementwise_flops
from repro.tensorlib.transcendental import erf


def _f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


# ---------------------------------------------------------------------------
# Binary arithmetic
# ---------------------------------------------------------------------------

def _add_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return (_f32(a) + _f32(b)).astype(np.float32)


def _add_vjp(device, grad_out, out, a, b) -> Tuple[np.ndarray, np.ndarray]:
    return unbroadcast(grad_out, np.shape(a)), unbroadcast(grad_out, np.shape(b))


def _sub_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return (_f32(a) - _f32(b)).astype(np.float32)


def _sub_vjp(device, grad_out, out, a, b):
    return unbroadcast(grad_out, np.shape(a)), unbroadcast(-grad_out, np.shape(b))


def _mul_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return (_f32(a) * _f32(b)).astype(np.float32)


def _mul_vjp(device, grad_out, out, a, b):
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    return unbroadcast(grad_out * b64, np.shape(a)), unbroadcast(grad_out * a64, np.shape(b))


def _div_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return (_f32(a) / _f32(b)).astype(np.float32)


def _div_vjp(device, grad_out, out, a, b):
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    grad_a = grad_out / b64
    grad_b = -grad_out * a64 / (b64 ** 2)
    return unbroadcast(grad_a, np.shape(a)), unbroadcast(grad_b, np.shape(b))


def _pow_forward(device: DeviceProfile, a, *, exponent: float) -> np.ndarray:
    return np.power(_f32(a), np.float32(exponent)).astype(np.float32)


def _pow_vjp(device, grad_out, out, a, *, exponent: float):
    a64 = np.asarray(a, dtype=np.float64)
    return (grad_out * exponent * np.power(a64, exponent - 1.0),)


def _maximum_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return np.maximum(_f32(a), _f32(b)).astype(np.float32)


def _maximum_vjp(device, grad_out, out, a, b):
    mask = np.asarray(a, dtype=np.float64) >= np.asarray(b, dtype=np.float64)
    return (
        unbroadcast(grad_out * mask, np.shape(a)),
        unbroadcast(grad_out * (~mask), np.shape(b)),
    )


def _minimum_forward(device: DeviceProfile, a, b) -> np.ndarray:
    return np.minimum(_f32(a), _f32(b)).astype(np.float32)


def _minimum_vjp(device, grad_out, out, a, b):
    mask = np.asarray(a, dtype=np.float64) <= np.asarray(b, dtype=np.float64)
    return (
        unbroadcast(grad_out * mask, np.shape(a)),
        unbroadcast(grad_out * (~mask), np.shape(b)),
    )


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

def _neg_forward(device: DeviceProfile, a) -> np.ndarray:
    return (-_f32(a)).astype(np.float32)


def _neg_vjp(device, grad_out, out, a):
    return (-grad_out,)


def _abs_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.abs(_f32(a)).astype(np.float32)


def _abs_vjp(device, grad_out, out, a):
    return (grad_out * np.sign(np.asarray(a, dtype=np.float64)),)


def _sqrt_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.sqrt(_f32(a)).astype(np.float32)


def _sqrt_vjp(device, grad_out, out, a):
    out64 = np.asarray(out, dtype=np.float64)
    return (grad_out * 0.5 / np.maximum(out64, 1e-30),)


def _rsqrt_forward(device: DeviceProfile, a) -> np.ndarray:
    return (np.float32(1.0) / np.sqrt(_f32(a))).astype(np.float32)


def _rsqrt_vjp(device, grad_out, out, a):
    a64 = np.asarray(a, dtype=np.float64)
    return (grad_out * (-0.5) * np.power(np.maximum(a64, 1e-30), -1.5),)


def _exp_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.exp(_f32(a)).astype(np.float32)


def _exp_vjp(device, grad_out, out, a):
    return (grad_out * np.asarray(out, dtype=np.float64),)


def _log_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.log(_f32(a)).astype(np.float32)


def _log_vjp(device, grad_out, out, a):
    return (grad_out / np.asarray(a, dtype=np.float64),)


def _sin_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.sin(_f32(a)).astype(np.float32)


def _sin_vjp(device, grad_out, out, a):
    return (grad_out * np.cos(np.asarray(a, dtype=np.float64)),)


def _cos_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.cos(_f32(a)).astype(np.float32)


def _cos_vjp(device, grad_out, out, a):
    return (grad_out * -np.sin(np.asarray(a, dtype=np.float64)),)


def _tanh_forward(device: DeviceProfile, a) -> np.ndarray:
    return np.tanh(_f32(a)).astype(np.float32)


def _tanh_vjp(device, grad_out, out, a):
    out64 = np.asarray(out, dtype=np.float64)
    return (grad_out * (1.0 - out64 ** 2),)


def _sigmoid_forward(device: DeviceProfile, a) -> np.ndarray:
    return (np.float32(1.0) / (np.float32(1.0) + np.exp(-_f32(a)))).astype(np.float32)


def _sigmoid_vjp(device, grad_out, out, a):
    out64 = np.asarray(out, dtype=np.float64)
    return (grad_out * out64 * (1.0 - out64),)


def _erf_forward(device: DeviceProfile, a) -> np.ndarray:
    return erf(_f32(a))


def _erf_vjp(device, grad_out, out, a):
    a64 = np.asarray(a, dtype=np.float64)
    return (grad_out * 2.0 / np.sqrt(np.pi) * np.exp(-(a64 ** 2)),)


def _clip_forward(device: DeviceProfile, a, *, minimum: Optional[float] = None,
                  maximum: Optional[float] = None) -> np.ndarray:
    return np.clip(_f32(a), minimum, maximum).astype(np.float32)


def _clip_vjp(device, grad_out, out, a, *, minimum=None, maximum=None):
    a64 = np.asarray(a, dtype=np.float64)
    mask = np.ones_like(a64)
    if minimum is not None:
        mask = mask * (a64 >= minimum)
    if maximum is not None:
        mask = mask * (a64 <= maximum)
    return (grad_out * mask,)


def _where_forward(device: DeviceProfile, condition, a, b) -> np.ndarray:
    return np.where(np.asarray(condition, dtype=bool), _f32(a), _f32(b)).astype(np.float32)


def _where_vjp(device, grad_out, out, condition, a, b):
    cond = np.asarray(condition, dtype=bool)
    return (
        None,
        unbroadcast(grad_out * cond, np.shape(a)),
        unbroadcast(grad_out * (~cond), np.shape(b)),
    )


def _unary_flops(out, *tensors, cost: float = 1.0, **attrs) -> float:
    return elementwise_flops(np.shape(out), cost)


def _register_elementwise() -> None:
    register_op(OpSpec("add", _add_forward, _add_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("sub", _sub_forward, _sub_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("mul", _mul_forward, _mul_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("div", _div_forward, _div_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("pow", _pow_forward, _pow_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=4.0), "elementwise"))
    register_op(OpSpec("maximum", _maximum_forward, _maximum_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("minimum", _minimum_forward, _minimum_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("neg", _neg_forward, _neg_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("abs", _abs_forward, _abs_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("sqrt", _sqrt_forward, _sqrt_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=2.0), "elementwise"))
    register_op(OpSpec("rsqrt", _rsqrt_forward, _rsqrt_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=2.0), "elementwise"))
    register_op(OpSpec("exp", _exp_forward, _exp_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=4.0), "elementwise"))
    register_op(OpSpec("log", _log_forward, _log_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=4.0), "elementwise"))
    register_op(OpSpec("sin", _sin_forward, _sin_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=4.0), "elementwise"))
    register_op(OpSpec("cos", _cos_forward, _cos_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=4.0), "elementwise"))
    register_op(OpSpec("tanh", _tanh_forward, _tanh_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=6.0), "elementwise"))
    register_op(OpSpec("sigmoid", _sigmoid_forward, _sigmoid_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=5.0), "elementwise"))
    register_op(OpSpec("erf", _erf_forward, _erf_vjp,
                       lambda out, *t, **k: _unary_flops(out, cost=8.0), "elementwise"))
    register_op(OpSpec("clip", _clip_forward, _clip_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))
    register_op(OpSpec("where", _where_forward, _where_vjp,
                       lambda out, *t, **k: _unary_flops(out), "elementwise"))


_register_elementwise()
