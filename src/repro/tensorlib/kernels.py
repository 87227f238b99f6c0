"""Device-parameterized compute kernels.

Every reduction-bearing operator in the model zoo (matmul, bmm, linear,
conv2d, sum/mean/var, layer norm, softmax denominators, pooling) ultimately
calls one of the kernels in this module, passing the
:class:`~repro.tensorlib.device.DeviceProfile` it is being executed on.  A
device is three numbers — ``(reduction_chunk, matmul_split_k, strategy)`` —
and exactly two primitives read them:

* :func:`_contract`, the one split-K contraction: matmul, bmm, linear and
  (after im2col) conv2d split K into ``matmul_split_k`` chunks and combine
  the partial products in the device's ``strategy`` order;
* :func:`~repro.tensorlib.accumulate.chunked_sum`, the one chunked
  reduction: sum/mean/var flatten their axes and reduce in
  ``reduction_chunk`` tiles combined in ``strategy`` order.

Each primitive alone decides the FP64 reference path, so two devices produce
genuinely different FP32 outputs — precisely the nondeterminism TAO is
designed to tolerate — and a correctly rounded evaluation of each chunk
lands in one function per primitive.

All kernels accept and return ``float32`` arrays; inputs of other dtypes are
cast on entry (matching the paper's FP32-forward configuration).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensorlib.accumulate import (
    AccumulationStrategy,
    accumulate_partials,
    chunked_sum,
    split_chunks,
)
from repro.tensorlib.device import DeviceProfile

AxisSpec = Union[None, int, Sequence[int]]


def _as_f32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def normalize_axes(axes: AxisSpec, ndim: int) -> Tuple[int, ...]:
    """Sorted non-negative reduction axes; ``None`` means every axis."""
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, (int, np.integer)):
        return (int(axes) % ndim,)
    return tuple(sorted(int(a) % ndim for a in axes))


def _contract(a: np.ndarray, b: np.ndarray, splits: int,
              strategy: AccumulationStrategy) -> np.ndarray:
    """``a @ b`` with the contraction axis K split ``splits`` ways.

    The one split-K contraction every device-reading product runs through.
    Each contiguous chunk of K is multiplied natively and the partial
    products are combined in ``strategy``'s order; the ``FP64`` reference
    multiplies once in float64 and rounds once.
    """
    if strategy is AccumulationStrategy.FP64:
        return np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.float32)
    k = a.shape[-1]
    n_splits = min(splits, k)
    if n_splits <= 1:
        return np.matmul(a, b).astype(np.float32)
    slices = split_chunks(k, -(-k // n_splits))  # ceil division
    partials = np.stack(
        [np.matmul(a[..., s], b[..., s, :]).astype(np.float32) for s in slices], axis=0)
    return accumulate_partials(partials, strategy)


def device_matmul(a: np.ndarray, b: np.ndarray, device: DeviceProfile) -> np.ndarray:
    """Matrix product ``a @ b`` with device-specific split-K accumulation.

    Supports 1-D operands and broadcasting batched inputs (any leading batch
    dimensions, as with ``numpy.matmul``).  The contraction dimension K is
    split into ``device.matmul_split_k`` contiguous chunks by
    :func:`_contract`.
    """
    a = _as_f32(a)
    b = _as_f32(b)
    squeeze_rows = a.ndim == 1
    squeeze_cols = b.ndim == 1
    if squeeze_rows:
        a = a[None, :]
    if squeeze_cols:
        b = b[:, None]
    if b.shape[-2] != a.shape[-1]:
        raise ValueError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")

    out = _contract(a, b, device.matmul_split_k, device.strategy)
    if squeeze_rows:
        out = out[..., 0, :]
    if squeeze_cols:
        out = out[..., 0] if squeeze_rows else out[..., :, 0]
    return out


def _axes_and_count(values: np.ndarray, axis: AxisSpec) -> Tuple[Tuple[int, ...], int]:
    """Normalised reduction axes and the number of elements each output sums."""
    axes = normalize_axes(axis, values.ndim)
    return axes, int(np.prod([values.shape[a] for a in axes]))


def _reduce(values: np.ndarray, device: DeviceProfile, axes: Tuple[int, ...], count: int,
            keepdims: bool) -> np.ndarray:
    """Device-ordered sum of float32 ``values`` over ``count`` elements on ``axes``.

    The axes are flattened into a single reduction axis first (matching how
    fused reduction kernels treat e.g. the ``(N, H, W)`` axes of a batch
    norm), then reduced by the one chunked reduction,
    :func:`~repro.tensorlib.accumulate.chunked_sum`.
    """
    if not axes:
        return values.copy()
    moved = np.moveaxis(values, axes, range(len(axes)))
    flat = moved.reshape((count,) + moved.shape[len(axes):])
    reduced = chunked_sum(flat, axis=0, chunk=device.reduction_chunk, strategy=device.strategy)
    if keepdims:
        shape = list(values.shape)
        for a in axes:
            shape[a] = 1
        reduced = reduced.reshape(shape)
    return reduced


def _mean(values: np.ndarray, device: DeviceProfile, axes: Tuple[int, ...], count: int,
          keepdims: bool) -> np.ndarray:
    total = _reduce(values, device, axes, count, keepdims)
    return (total / np.float32(count)).astype(np.float32)


def device_sum(
    values: np.ndarray,
    device: DeviceProfile,
    axis: AxisSpec = None,
    keepdims: bool = False,
) -> np.ndarray:
    """Sum with device-specific chunked accumulation along ``axis``."""
    values = _as_f32(values)
    return _reduce(values, device, *_axes_and_count(values, axis), keepdims)


def device_mean(
    values: np.ndarray,
    device: DeviceProfile,
    axis: AxisSpec = None,
    keepdims: bool = False,
) -> np.ndarray:
    """Mean computed as a device-ordered sum followed by an FP32 division."""
    values = _as_f32(values)
    return _mean(values, device, *_axes_and_count(values, axis), keepdims)


def device_var(
    values: np.ndarray,
    device: DeviceProfile,
    axis: AxisSpec = None,
    keepdims: bool = False,
    ddof: int = 0,
) -> np.ndarray:
    """Variance via the two-pass formula with device-ordered reductions."""
    values = _as_f32(values)
    axes, count = _axes_and_count(values, axis)
    sq_dev = ((values - _mean(values, device, axes, count, True)) ** 2).astype(np.float32)
    total = _reduce(sq_dev, device, axes, count, keepdims)
    return (total / np.float32(max(count - ddof, 1))).astype(np.float32)


def pad_nchw(x: np.ndarray, padding: Tuple[int, int], value: float = 0.0) -> np.ndarray:
    """Pad the spatial axes of an (N, C, H, W) tensor with a constant.

    The bytes and memory order ``np.pad(mode="constant")`` returns, from one
    filled allocation and one slice assignment.
    """
    ph, pw = padding
    n, c, h, w = x.shape
    padded = np.full((n, c, h + 2 * ph, w + 2 * pw), value, dtype=x.dtype,
                     order="F" if x.flags.fnc else "C")
    padded[:, :, ph:ph + h, pw:pw + w] = x
    return padded


def im2col(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, OH*OW, C*kH*kW).

    Returns the column tensor and the spatial output size ``(OH, OW)``.
    """
    x = _as_f32(x)
    n, c, h, w = x.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}"
        )
    padded = pad_nchw(x, (ph, pw)) if ph or pw else x
    # Gather patches with stride tricks for speed, then reorder to columns.
    strides = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, oh, ow, kh, kw),
        strides=(strides[0], strides[1], strides[2] * sh, strides[3] * sw, strides[2], strides[3]),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols, dtype=np.float32), (oh, ow)


def device_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    device: DeviceProfile,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """2-D convolution via im2col + the device's split-K contraction.

    ``x`` is (N, C_in, H, W); ``weight`` is (C_out, C_in, kH, kW).  The
    contraction over ``C_in * kH * kW`` is split into
    ``device.matmul_split_k`` chunks and accumulated in the device's order,
    so convolutions diverge across devices just like cuDNN algorithm choices
    do in practice.
    """
    x = _as_f32(x)
    weight = _as_f32(weight)
    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"conv2d channel mismatch: input {x.shape}, weight {weight.shape}")
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_out, c_in * kh * kw).T  # (K, C_out)
    out = _contract(cols, w_mat, device.matmul_split_k, device.strategy)
    out = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out = (out + _as_f32(bias).reshape(1, c_out, 1, 1)).astype(np.float32)
    return np.ascontiguousarray(out, dtype=np.float32)
