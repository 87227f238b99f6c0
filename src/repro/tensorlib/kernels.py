"""Device-parameterized compute kernels.

Every reduction-bearing operator in the model zoo (matmul, linear, conv2d,
mean/var, layer norm, softmax denominators, pooling) ultimately calls one of
the kernels in this module, passing the :class:`~repro.tensorlib.device.DeviceProfile`
it is being executed on.  The kernel splits the contraction dimension
according to the profile and combines partial results in the profile's
accumulation order, so two devices produce genuinely different FP32 outputs —
which is precisely the nondeterminism TAO is designed to tolerate.

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


def _normalize_axes(axes: AxisSpec, ndim: int) -> Tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, (int, np.integer)):
        return (int(axes) % ndim,)
    return tuple(sorted(int(a) % ndim for a in axes))


def device_matmul(a: np.ndarray, b: np.ndarray, device: DeviceProfile) -> np.ndarray:
    """Matrix product ``a @ b`` with device-specific split-K accumulation.

    Supports 2-D inputs and broadcasting batched inputs (any leading batch
    dimensions, as with ``numpy.matmul``).  The contraction dimension K is
    split into ``device.matmul_split_k`` contiguous chunks; each chunk is
    multiplied natively and the partial products are combined in the device's
    accumulation order.
    """
    a = _as_f32(a)
    b = _as_f32(b)
    if a.ndim == 1:
        a = a[None, :]
        squeeze_rows = True
    else:
        squeeze_rows = False
    if b.ndim == 1:
        b = b[:, None]
        squeeze_cols = True
    else:
        squeeze_cols = False

    k = a.shape[-1]
    if b.shape[-2] != k:
        raise ValueError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")

    n_splits = min(device.matmul_split_k, k) if not device.is_reference else 1
    if device.is_reference:
        out = np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.float32)
    elif n_splits <= 1:
        out = np.matmul(a, b).astype(np.float32)
    else:
        chunk = -(-k // n_splits)  # ceil division
        slices = split_chunks(k, chunk)
        partials = np.stack(
            [np.matmul(a[..., s], b[..., s, :]).astype(np.float32) for s in slices],
            axis=0,
        )
        out = accumulate_partials(partials, device.strategy)

    if squeeze_rows:
        out = out[..., 0, :]
    if squeeze_cols:
        out = out[..., 0] if squeeze_rows else out[..., :, 0]
    return out


def device_bmm(a: np.ndarray, b: np.ndarray, device: DeviceProfile) -> np.ndarray:
    """Batched matrix multiply; thin wrapper over :func:`device_matmul`."""
    a = _as_f32(a)
    b = _as_f32(b)
    if a.ndim < 3 or b.ndim < 3:
        raise ValueError(f"bmm expects batched inputs, got {a.shape} and {b.shape}")
    return device_matmul(a, b, device)


def device_sum(
    values: np.ndarray,
    device: DeviceProfile,
    axis: AxisSpec = None,
    keepdims: bool = False,
) -> np.ndarray:
    """Sum with device-specific chunked accumulation along ``axis``.

    Multiple axes are flattened into a single reduction axis first (matching
    how fused reduction kernels treat e.g. the ``(N, H, W)`` axes of a batch
    norm), then reduced with :func:`~repro.tensorlib.accumulate.chunked_sum`.
    """
    values = _as_f32(values)
    axes = _normalize_axes(axis, values.ndim)
    if not axes:
        return values.copy()

    moved = np.moveaxis(values, axes, range(len(axes)))
    lead = int(np.prod([moved.shape[i] for i in range(len(axes))])) if axes else 1
    rest_shape = moved.shape[len(axes):]
    flat = moved.reshape((lead,) + rest_shape)
    if device.is_reference:
        reduced = flat.astype(np.float64).sum(axis=0).astype(np.float32)
    else:
        reduced = chunked_sum(flat, axis=0, chunk=device.reduction_chunk, strategy=device.strategy)

    if keepdims:
        shape = list(values.shape)
        for a in axes:
            shape[a] = 1
        reduced = reduced.reshape(shape)
    return reduced


def device_mean(
    values: np.ndarray,
    device: DeviceProfile,
    axis: AxisSpec = None,
    keepdims: bool = False,
) -> np.ndarray:
    """Mean computed as a device-ordered sum followed by an FP32 division."""
    values = _as_f32(values)
    axes = _normalize_axes(axis, values.ndim)
    count = int(np.prod([values.shape[a] for a in axes])) if axes else 1
    total = device_sum(values, device, axis=axes, keepdims=keepdims)
    return (total / np.float32(count)).astype(np.float32)


def device_var(
    values: np.ndarray,
    device: DeviceProfile,
    axis: AxisSpec = None,
    keepdims: bool = False,
    ddof: int = 0,
) -> np.ndarray:
    """Variance via the two-pass formula with device-ordered reductions."""
    values = _as_f32(values)
    axes = _normalize_axes(axis, values.ndim)
    count = int(np.prod([values.shape[a] for a in axes])) if axes else 1
    mean = device_mean(values, device, axis=axes, keepdims=True)
    sq_dev = ((values - mean) ** 2).astype(np.float32)
    total = device_sum(sq_dev, device, axis=axes, keepdims=keepdims)
    denom = max(count - ddof, 1)
    return (total / np.float32(denom)).astype(np.float32)


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
    """2-D convolution via im2col + device-split matmul.

    ``x`` is (N, C_in, H, W); ``weight`` is (C_out, C_in, kH, kW).  The
    contraction over ``C_in * kH * kW`` is split into ``device.conv_split``
    chunks and accumulated in the device's order, so convolutions diverge
    across devices just like cuDNN algorithm choices do in practice.
    """
    x = _as_f32(x)
    weight = _as_f32(weight)
    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"conv2d channel mismatch: input {x.shape}, weight {weight.shape}")
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_out, c_in * kh * kw).T  # (K, C_out)

    k = w_mat.shape[0]
    n_splits = min(device.conv_split, k) if not device.is_reference else 1
    if device.is_reference:
        out = np.matmul(cols.astype(np.float64), w_mat.astype(np.float64)).astype(np.float32)
    elif n_splits <= 1:
        out = np.matmul(cols, w_mat).astype(np.float32)
    else:
        chunk = -(-k // n_splits)
        slices = split_chunks(k, chunk)
        partials = np.stack(
            [np.matmul(cols[..., s], w_mat[s, :]).astype(np.float32) for s in slices],
            axis=0,
        )
        out = accumulate_partials(partials, device.strategy)

    out = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out = (out + _as_f32(bias).reshape(1, c_out, 1, 1)).astype(np.float32)
    return np.ascontiguousarray(out, dtype=np.float32)
