"""Convolution, pooling and upsampling operators.

``conv2d`` routes through the im2col + device-split matmul kernel so its
accumulation order (and therefore its low-order bits) depends on the device
profile, mirroring cuDNN algorithm divergence across GPUs.  Pooling and
nearest-neighbour upsampling are included for the ResNet and diffusion-UNet
workloads.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ops.registry import OpSpec, register_op
from repro.tensorlib.device import DeviceProfile
from repro.tensorlib.flops import conv2d_flops, elementwise_flops, reduction_flops
from repro.tensorlib.kernels import device_conv2d, device_mean, im2col, pad_nchw


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def _conv2d_forward(device: DeviceProfile, x, weight, bias: Optional[np.ndarray] = None, *,
                    stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    return device_conv2d(x, weight, bias, device, stride=_pair(stride), padding=_pair(padding))


def _conv2d_vjp(device, grad_out, out, x, weight, bias=None, *, stride=(1, 1), padding=(0, 0)):
    """Gradients of conv2d w.r.t. input, weight (and bias), computed in FP64."""
    x64 = np.asarray(x, dtype=np.float64)
    w64 = np.asarray(weight, dtype=np.float64)
    grad = np.asarray(grad_out, dtype=np.float64)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c_in, h, w = x64.shape
    c_out, _, kh, kw = w64.shape
    _, _, oh, ow = grad.shape

    # Weight gradient via explicit im2col in float64.
    cols, _ = im2col(x64.astype(np.float32), (kh, kw), (sh, sw), (ph, pw))
    cols64 = cols.astype(np.float64).reshape(n * oh * ow, c_in * kh * kw)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
    grad_w = np.matmul(grad_mat.T, cols64).reshape(c_out, c_in, kh, kw)

    # Input gradient via col2im (fold) of grad_cols = grad_mat @ w_mat.
    w_mat = w64.reshape(c_out, c_in * kh * kw)
    grad_cols = np.matmul(grad_mat, w_mat).reshape(n, oh, ow, c_in, kh, kw)
    grad_x_padded = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            grad_x_padded[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += (
                grad_cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    grad_x = grad_x_padded[:, :, ph:ph + h, pw:pw + w]

    grads = [grad_x, grad_w]
    if bias is not None:
        grads.append(grad.sum(axis=(0, 2, 3)))
    return tuple(grads)


def _conv2d_flops(out, x, weight, bias=None, *, stride=(1, 1), padding=(0, 0)) -> float:
    oh, ow = np.shape(out)[-2:]
    return conv2d_flops(np.shape(x), np.shape(weight), (oh, ow))


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _pool_windows(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
                  padding: Tuple[int, int], pad_value: float) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Return strided windows (N, C, OH, OW, kh, kw) of the padded input."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = x.shape
    padded = pad_nchw(x, (ph, pw), pad_value)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    strides = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, oh, ow, kh, kw),
        strides=(strides[0], strides[1], strides[2] * sh, strides[3] * sw, strides[2], strides[3]),
        writeable=False,
    )
    return view, (oh, ow)


def _max_pool2d_forward(device: DeviceProfile, x, *, kernel_size=(2, 2), stride=None,
                        padding=(0, 0)) -> np.ndarray:
    x32 = np.asarray(x, dtype=np.float32)
    kernel = _pair(kernel_size)
    stride_t = _pair(stride) if stride is not None else kernel
    windows, _ = _pool_windows(x32, kernel, stride_t, _pair(padding), pad_value=-np.inf)
    return windows.max(axis=(4, 5)).astype(np.float32)


def _max_pool2d_vjp(device, grad_out, out, x, *, kernel_size=(2, 2), stride=None, padding=(0, 0)):
    x64 = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad_out, dtype=np.float64)
    kernel = _pair(kernel_size)
    stride_t = _pair(stride) if stride is not None else kernel
    ph, pw = _pair(padding)
    kh, kw = kernel
    sh, sw = stride_t
    n, c, h, w = x64.shape
    _, _, oh, ow = grad.shape

    padded = pad_nchw(x64, (ph, pw), -np.inf)
    # Recompute the per-window maxima in float64 (the forward output is
    # float32, so float64 inputs would never compare equal against it).
    out64 = np.full((n, c, oh, ow), -np.inf, dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            window = padded[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
            out64 = np.maximum(out64, window)

    # Count ties so gradient mass is split evenly between equal maxima.
    tie_counts = np.zeros_like(out64)
    for i in range(kh):
        for j in range(kw):
            window = padded[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
            tie_counts += (window == out64)
    tie_counts = np.maximum(tie_counts, 1.0)

    grad_padded = np.zeros_like(padded)
    for i in range(kh):
        for j in range(kw):
            window = padded[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
            mask = (window == out64)
            grad_padded[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += grad * mask / tie_counts
    grad_x = grad_padded[:, :, ph:ph + h, pw:pw + w]
    return (grad_x,)


def _avg_pool2d_forward(device: DeviceProfile, x, *, kernel_size=(2, 2), stride=None,
                        padding=(0, 0)) -> np.ndarray:
    x32 = np.asarray(x, dtype=np.float32)
    kernel = _pair(kernel_size)
    stride_t = _pair(stride) if stride is not None else kernel
    windows, _ = _pool_windows(x32, kernel, stride_t, _pair(padding), pad_value=0.0)
    kh, kw = kernel
    # Sum within each window chunk-free (windows are tiny), divide by window size.
    summed = windows.astype(np.float32).sum(axis=(4, 5), dtype=np.float32)
    return (summed / np.float32(kh * kw)).astype(np.float32)


def _avg_pool2d_vjp(device, grad_out, out, x, *, kernel_size=(2, 2), stride=None, padding=(0, 0)):
    x64 = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad_out, dtype=np.float64)
    kernel = _pair(kernel_size)
    stride_t = _pair(stride) if stride is not None else kernel
    ph, pw = _pair(padding)
    kh, kw = kernel
    sh, sw = stride_t
    n, c, h, w = x64.shape
    _, _, oh, ow = grad.shape
    grad_padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    share = grad / float(kh * kw)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += share
    return (grad_padded[:, :, ph:ph + h, pw:pw + w],)


def _adaptive_avg_pool2d_forward(device: DeviceProfile, x, *, output_size=(1, 1)) -> np.ndarray:
    oh, ow = _pair(output_size)
    if (oh, ow) != (1, 1):
        raise NotImplementedError("adaptive_avg_pool2d currently supports output_size=(1, 1)")
    return device_mean(x, device, axis=(2, 3), keepdims=True)


def _adaptive_avg_pool2d_vjp(device, grad_out, out, x, *, output_size=(1, 1)):
    x_shape = np.shape(x)
    count = float(x_shape[2] * x_shape[3])
    grad = np.asarray(grad_out, dtype=np.float64)
    return (np.broadcast_to(grad / count, x_shape).copy(),)


def _upsample_nearest_forward(device: DeviceProfile, x, *, scale_factor: int = 2) -> np.ndarray:
    x32 = np.asarray(x, dtype=np.float32)
    s = int(scale_factor)
    return np.repeat(np.repeat(x32, s, axis=2), s, axis=3)


def _upsample_nearest_vjp(device, grad_out, out, x, *, scale_factor: int = 2):
    s = int(scale_factor)
    grad = np.asarray(grad_out, dtype=np.float64)
    n, c, oh, ow = grad.shape
    reshaped = grad.reshape(n, c, oh // s, s, ow // s, s)
    return (reshaped.sum(axis=(3, 5)),)


register_op(OpSpec("conv2d", _conv2d_forward, _conv2d_vjp, _conv2d_flops, "conv"))
register_op(OpSpec("max_pool2d", _max_pool2d_forward, _max_pool2d_vjp,
                   lambda out, x, **k: reduction_flops(np.shape(x)), "conv",
                   introduces_rounding=False))
register_op(OpSpec("avg_pool2d", _avg_pool2d_forward, _avg_pool2d_vjp,
                   lambda out, x, **k: reduction_flops(np.shape(x)), "conv"))
register_op(OpSpec("adaptive_avg_pool2d", _adaptive_avg_pool2d_forward, _adaptive_avg_pool2d_vjp,
                   lambda out, x, **k: reduction_flops(np.shape(x)), "conv"))
register_op(OpSpec("upsample_nearest", _upsample_nearest_forward, _upsample_nearest_vjp,
                   lambda out, x, **k: elementwise_flops(np.shape(out)), "conv",
                   introduces_rounding=False))
