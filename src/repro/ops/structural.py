"""Structural / data-movement operators.

Reshape, transpose, concatenation, slicing, embedding lookup, masked fill and
eval-mode dropout move or select data without performing floating-point
arithmetic, so they introduce no rounding error (``introduces_rounding=False``
— the paper's bound templates assign them zero fresh error).  They still
appear as graph nodes because the dispute game partitions the full traced
operator sequence.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ops.registry import OpSpec, register_op, unbroadcast
from repro.tensorlib.device import DeviceProfile


def _identity_flops(out, *tensors, **attrs) -> float:
    return 0.0


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def _reshape_forward(device: DeviceProfile, x, *, shape: Sequence[int]) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x)).reshape(tuple(int(s) for s in shape))


def _reshape_vjp(device, grad_out, out, x, *, shape):
    return (np.asarray(grad_out, dtype=np.float64).reshape(np.shape(x)),)


def _flatten_forward(device: DeviceProfile, x, *, start_dim: int = 0) -> np.ndarray:
    arr = np.asarray(x)
    start = int(start_dim) % arr.ndim
    new_shape = arr.shape[:start] + (-1,)
    return np.ascontiguousarray(arr).reshape(new_shape)


def _flatten_vjp(device, grad_out, out, x, *, start_dim: int = 0):
    return (np.asarray(grad_out, dtype=np.float64).reshape(np.shape(x)),)


def _transpose_forward(device: DeviceProfile, x, *, axis0: int, axis1: int) -> np.ndarray:
    return np.ascontiguousarray(np.swapaxes(np.asarray(x), int(axis0), int(axis1)))


def _transpose_vjp(device, grad_out, out, x, *, axis0: int, axis1: int):
    return (np.swapaxes(np.asarray(grad_out, dtype=np.float64), int(axis0), int(axis1)),)


def _permute_forward(device: DeviceProfile, x, *, dims: Sequence[int]) -> np.ndarray:
    return np.ascontiguousarray(np.transpose(np.asarray(x), tuple(int(d) for d in dims)))


def _permute_vjp(device, grad_out, out, x, *, dims):
    dims = tuple(int(d) for d in dims)
    inverse = np.argsort(dims)
    return (np.transpose(np.asarray(grad_out, dtype=np.float64), inverse),)


def _expand_forward(device: DeviceProfile, x, *, shape: Sequence[int]) -> np.ndarray:
    return np.ascontiguousarray(np.broadcast_to(np.asarray(x), tuple(int(s) for s in shape)))


def _expand_vjp(device, grad_out, out, x, *, shape):
    return (unbroadcast(grad_out, np.shape(x)),)


# ---------------------------------------------------------------------------
# Concatenation / slicing / gathering
# ---------------------------------------------------------------------------

def _concat_forward(device: DeviceProfile, *tensors, axis: int = 0) -> np.ndarray:
    arrays = [np.asarray(t, dtype=np.float32) for t in tensors]
    return np.concatenate(arrays, axis=int(axis)).astype(np.float32)


def _concat_vjp(device, grad_out, out, *tensors, axis: int = 0):
    grad = np.asarray(grad_out, dtype=np.float64)
    sizes = [np.shape(t)[int(axis) % grad.ndim] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return tuple(np.split(grad, splits, axis=int(axis)))


def _slice_forward(device: DeviceProfile, x, *, axis: int, start: int,
                   stop: Optional[int] = None, step: int = 1) -> np.ndarray:
    arr = np.asarray(x)
    index = [slice(None)] * arr.ndim
    index[int(axis) % arr.ndim] = slice(int(start), None if stop is None else int(stop), int(step))
    return np.ascontiguousarray(arr[tuple(index)])


def _slice_vjp(device, grad_out, out, x, *, axis: int, start: int, stop=None, step: int = 1):
    grad_x = np.zeros(np.shape(x), dtype=np.float64)
    index = [slice(None)] * grad_x.ndim
    index[int(axis) % grad_x.ndim] = slice(int(start), None if stop is None else int(stop), int(step))
    grad_x[tuple(index)] = np.asarray(grad_out, dtype=np.float64)
    return (grad_x,)


def _index_select_forward(device: DeviceProfile, x, indices, *, axis: int = 0) -> np.ndarray:
    arr = np.asarray(x)
    idx = np.asarray(indices, dtype=np.int64)
    return np.ascontiguousarray(np.take(arr, idx, axis=int(axis)))


def _index_select_vjp(device, grad_out, out, x, indices, *, axis: int = 0):
    grad_x = np.zeros(np.shape(x), dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    grad = np.asarray(grad_out, dtype=np.float64)
    np.add.at(grad_x, tuple([slice(None)] * (int(axis) % grad_x.ndim) + [idx]), grad)
    return grad_x, None


def _embedding_forward(device: DeviceProfile, indices, weight) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    table = np.asarray(weight, dtype=np.float32)
    return np.ascontiguousarray(table[idx])


def _embedding_vjp(device, grad_out, out, indices, weight):
    idx = np.asarray(indices, dtype=np.int64)
    grad = np.asarray(grad_out, dtype=np.float64)
    grad_w = np.zeros(np.shape(weight), dtype=np.float64)
    np.add.at(grad_w, idx.reshape(-1), grad.reshape(-1, grad.shape[-1]))
    return None, grad_w


def _masked_fill_forward(device: DeviceProfile, x, mask, *, value: float) -> np.ndarray:
    x32 = np.asarray(x, dtype=np.float32)
    m = np.asarray(mask, dtype=bool)
    return np.where(m, np.float32(value), x32).astype(np.float32)


def _masked_fill_vjp(device, grad_out, out, x, mask, *, value: float):
    m = np.asarray(mask, dtype=bool)
    grad = np.asarray(grad_out, dtype=np.float64)
    # Reduce broadcast mask dims back to x's shape if necessary.
    return unbroadcast(np.where(m, 0.0, grad), np.shape(x)), None


def _dropout_forward(device: DeviceProfile, x, *, p: float = 0.1) -> np.ndarray:
    """Eval-mode dropout: the identity (the paper instruments inference graphs)."""
    return np.asarray(x, dtype=np.float32).copy()


def _dropout_vjp(device, grad_out, out, x, *, p: float = 0.1):
    return (np.asarray(grad_out, dtype=np.float64),)


def _pad_forward(device: DeviceProfile, x, *, pad_width: Sequence[Sequence[int]],
                 value: float = 0.0) -> np.ndarray:
    widths = tuple(tuple(int(v) for v in pair) for pair in pad_width)
    return np.pad(np.asarray(x, dtype=np.float32), widths, mode="constant",
                  constant_values=np.float32(value))


def _pad_vjp(device, grad_out, out, x, *, pad_width, value: float = 0.0):
    grad = np.asarray(grad_out, dtype=np.float64)
    index = tuple(
        slice(int(before), grad.shape[axis] - int(after))
        for axis, (before, after) in enumerate(pad_width)
    )
    return (grad[index],)


def _identity_forward(device: DeviceProfile, x) -> np.ndarray:
    return np.asarray(x).copy()


def _identity_vjp(device, grad_out, out, x):
    return (np.asarray(grad_out, dtype=np.float64),)


def _register_structural() -> None:
    no_round = dict(category="structural", introduces_rounding=False)
    register_op(OpSpec("reshape", _reshape_forward, _reshape_vjp, _identity_flops, **no_round))
    register_op(OpSpec("flatten", _flatten_forward, _flatten_vjp, _identity_flops, **no_round))
    register_op(OpSpec("transpose", _transpose_forward, _transpose_vjp, _identity_flops, **no_round))
    register_op(OpSpec("permute", _permute_forward, _permute_vjp, _identity_flops, **no_round))
    register_op(OpSpec("expand", _expand_forward, _expand_vjp, _identity_flops, **no_round))
    register_op(OpSpec("concat", _concat_forward, _concat_vjp, _identity_flops, **no_round))
    register_op(OpSpec("slice", _slice_forward, _slice_vjp, _identity_flops, **no_round))
    register_op(OpSpec("index_select", _index_select_forward, _index_select_vjp,
                       _identity_flops, **no_round))
    register_op(OpSpec("embedding", _embedding_forward, _embedding_vjp, _identity_flops, **no_round))
    register_op(OpSpec("masked_fill", _masked_fill_forward, _masked_fill_vjp,
                       _identity_flops, **no_round))
    register_op(OpSpec("dropout", _dropout_forward, _dropout_vjp, _identity_flops, **no_round))
    register_op(OpSpec("pad", _pad_forward, _pad_vjp, _identity_flops, **no_round))
    register_op(OpSpec("identity", _identity_forward, _identity_vjp, _identity_flops, **no_round))


_register_structural()
