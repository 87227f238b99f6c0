"""Reduction operators: sum, mean, var, max, min, argmax.

Sum/mean/var route through the device-ordered reductions in
:mod:`repro.tensorlib.kernels`, so their outputs differ across simulated
devices — these are the operators whose rounding the paper's reduction bounds
(``gamma_k`` / ``gamma_tilde_k``) cover.  Max/min/argmax involve no rounding
and are device independent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ops.registry import OpSpec, register_op
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import reduction_flops
from repro.tensorlib.kernels import AxisSpec, device_mean, device_sum, device_var, normalize_axes


def _expand_reduced(grad: np.ndarray, original_shape, axis: AxisSpec, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced-shape gradient back to the input shape."""
    grad = np.asarray(grad, dtype=np.float64)
    axes = normalize_axes(axis, len(original_shape))
    if not keepdims:
        for a in axes:
            grad = np.expand_dims(grad, axis=a)
    return np.broadcast_to(grad, original_shape)


def _sum_forward(device: DeviceProfile, a, *, axis: AxisSpec = None,
                 keepdims: bool = False) -> np.ndarray:
    return device_sum(a, device, axis=axis, keepdims=keepdims)


def _sum_vjp(device, grad_out, out, a, *, axis: AxisSpec = None, keepdims: bool = False):
    return (_expand_reduced(grad_out, np.shape(a), axis, keepdims),)


def _mean_forward(device: DeviceProfile, a, *, axis: AxisSpec = None,
                  keepdims: bool = False) -> np.ndarray:
    return device_mean(a, device, axis=axis, keepdims=keepdims)


def _mean_vjp(device, grad_out, out, a, *, axis: AxisSpec = None, keepdims: bool = False):
    shape = np.shape(a)
    axes = normalize_axes(axis, len(shape))
    count = int(np.prod([shape[i] for i in axes])) if axes else 1
    grad = _expand_reduced(grad_out, shape, axis, keepdims) / float(count)
    return (grad,)


def _var_forward(device: DeviceProfile, a, *, axis: AxisSpec = None,
                 keepdims: bool = False, ddof: int = 0) -> np.ndarray:
    return device_var(a, device, axis=axis, keepdims=keepdims, ddof=ddof)


def _var_vjp(device, grad_out, out, a, *, axis: AxisSpec = None,
             keepdims: bool = False, ddof: int = 0):
    a64 = np.asarray(a, dtype=np.float64)
    shape = a64.shape
    axes = normalize_axes(axis, len(shape))
    count = int(np.prod([shape[i] for i in axes])) if axes else 1
    mean = a64.mean(axis=axes, keepdims=True)
    grad = _expand_reduced(grad_out, shape, axis, keepdims)
    denom = max(count - ddof, 1)
    return (grad * 2.0 * (a64 - mean) / denom,)


def _amax_forward(device: DeviceProfile, a, *, axis: AxisSpec = None,
                  keepdims: bool = False) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float32)
    axes = normalize_axes(axis, arr.ndim)
    return arr.max(axis=axes, keepdims=keepdims).astype(np.float32)


def _amax_vjp(device, grad_out, out, a, *, axis: AxisSpec = None, keepdims: bool = False):
    a64 = np.asarray(a, dtype=np.float64)
    axes = normalize_axes(axis, a64.ndim)
    # Recompute the argmax mask in float64: the forward output is float32, so
    # comparing against it directly would miss maxima for float64 inputs.
    out_expanded = a64.max(axis=axes, keepdims=True)
    mask = (a64 == out_expanded).astype(np.float64)
    # Split gradient evenly between ties (matches PyTorch semantics closely enough).
    counts = mask.sum(axis=axes, keepdims=True)
    grad = _expand_reduced(grad_out, a64.shape, axis, keepdims)
    return (grad * mask / np.maximum(counts, 1.0),)


def _amin_forward(device: DeviceProfile, a, *, axis: AxisSpec = None,
                  keepdims: bool = False) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float32)
    axes = normalize_axes(axis, arr.ndim)
    return arr.min(axis=axes, keepdims=keepdims).astype(np.float32)


def _amin_vjp(device, grad_out, out, a, *, axis: AxisSpec = None, keepdims: bool = False):
    a64 = np.asarray(a, dtype=np.float64)
    axes = normalize_axes(axis, a64.ndim)
    out_expanded = a64.min(axis=axes, keepdims=True)
    mask = (a64 == out_expanded).astype(np.float64)
    counts = mask.sum(axis=axes, keepdims=True)
    grad = _expand_reduced(grad_out, a64.shape, axis, keepdims)
    return (grad * mask / np.maximum(counts, 1.0),)


def _argmax_forward(device: DeviceProfile, a, *, axis: Optional[int] = None) -> np.ndarray:
    arr = np.asarray(a)
    return np.argmax(arr, axis=axis)


def _argmax_vjp(device, grad_out, out, a, *, axis: Optional[int] = None):
    return (None,)


register_op(OpSpec("sum", _sum_forward, _sum_vjp,
                   lambda out, a, **k: reduction_flops(np.shape(a)), "reduction"))
register_op(OpSpec("mean", _mean_forward, _mean_vjp,
                   lambda out, a, **k: reduction_flops(np.shape(a)) + float(np.size(out)),
                   "reduction"))
register_op(OpSpec("var", _var_forward, _var_vjp,
                   lambda out, a, **k: 3.0 * reduction_flops(np.shape(a)), "reduction"))
register_op(OpSpec("amax", _amax_forward, _amax_vjp,
                   lambda out, a, **k: reduction_flops(np.shape(a)), "reduction",
                   introduces_rounding=False))
register_op(OpSpec("amin", _amin_forward, _amin_vjp,
                   lambda out, a, **k: reduction_flops(np.shape(a)), "reduction",
                   introduces_rounding=False))
register_op(OpSpec("argmax", _argmax_forward, _argmax_vjp,
                   lambda out, a, **k: 0.0, "reduction", introduces_rounding=False))
