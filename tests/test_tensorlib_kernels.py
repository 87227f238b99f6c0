"""Unit and property tests for device-parameterized kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ops import get_op
from repro.tensorlib.device import DEVICE_FLEET, REFERENCE_DEVICE
from repro.tensorlib.kernels import (
    device_conv2d,
    device_matmul,
    device_mean,
    device_sum,
    device_var,
    im2col,
    pad_nchw,
)


@pytest.mark.parametrize("device", list(DEVICE_FLEET) + [REFERENCE_DEVICE],
                         ids=lambda d: d.name)
def test_matmul_matches_fp64_reference(device, rng):
    a = rng.standard_normal((17, 33)).astype(np.float32)
    b = rng.standard_normal((33, 9)).astype(np.float32)
    exact = a.astype(np.float64) @ b.astype(np.float64)
    out = device_matmul(a, b, device)
    assert out.shape == (17, 9)
    assert out.dtype == np.float32
    assert np.allclose(out, exact, rtol=1e-4, atol=1e-4)


def test_matmul_batched_broadcasting(rng):
    a = rng.standard_normal((2, 3, 5, 7)).astype(np.float32)
    b = rng.standard_normal((2, 3, 7, 4)).astype(np.float32)
    out = device_matmul(a, b, DEVICE_FLEET[2])
    assert out.shape == (2, 3, 5, 4)
    assert np.allclose(out, np.matmul(a, b), atol=1e-4)


def test_matmul_shape_mismatch_raises(rng):
    a = rng.standard_normal((4, 5)).astype(np.float32)
    b = rng.standard_normal((6, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        device_matmul(a, b, DEVICE_FLEET[0])


def test_matmul_diverges_across_devices(rng):
    a = rng.standard_normal((64, 512)).astype(np.float32)
    b = rng.standard_normal((512, 64)).astype(np.float32)
    outputs = [device_matmul(a, b, d).tobytes() for d in DEVICE_FLEET]
    assert len(set(outputs)) >= 2, "devices with different split-K must disagree in low bits"


def test_bmm_requires_batched_inputs(rng):
    a = rng.standard_normal((4, 5)).astype(np.float32)
    b = rng.standard_normal((5, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        get_op("bmm")(DEVICE_FLEET[0], a, b)


def test_bmm_matches_matmul(rng):
    a = rng.standard_normal((3, 8, 16)).astype(np.float32)
    b = rng.standard_normal((3, 16, 4)).astype(np.float32)
    assert np.allclose(get_op("bmm")(DEVICE_FLEET[1], a, b), np.matmul(a, b), atol=1e-4)


@pytest.mark.parametrize("axis", [0, 1, -1, (0, 1), None])
def test_device_sum_matches_numpy(axis, rng):
    values = rng.standard_normal((13, 21)).astype(np.float32)
    for device in DEVICE_FLEET[:2]:
        out = device_sum(values, device, axis=axis)
        assert np.allclose(out, values.astype(np.float64).sum(axis=axis), atol=1e-4)


def test_device_sum_keepdims(rng):
    values = rng.standard_normal((4, 6, 8)).astype(np.float32)
    out = device_sum(values, DEVICE_FLEET[0], axis=(1, 2), keepdims=True)
    assert out.shape == (4, 1, 1)


def test_device_mean_and_var_match_numpy(rng):
    values = rng.standard_normal((10, 32)).astype(np.float32)
    device = DEVICE_FLEET[3]
    assert np.allclose(device_mean(values, device, axis=-1), values.mean(axis=-1), atol=1e-5)
    assert np.allclose(device_var(values, device, axis=-1), values.var(axis=-1),
                       rtol=1e-4, atol=1e-5)


def test_device_var_ddof(rng):
    values = rng.standard_normal((5, 64)).astype(np.float32)
    out = device_var(values, DEVICE_FLEET[0], axis=-1, ddof=1)
    assert np.allclose(out, values.var(axis=-1, ddof=1), rtol=1e-4, atol=1e-5)


def _naive_conv2d(x, w, stride, padding):
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for b in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = padded[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[b, co, i, j] = np.sum(patch.astype(np.float64) * w[co].astype(np.float64))
    return out


@pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1))])
def test_conv2d_matches_naive(stride, padding, rng):
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    expected = _naive_conv2d(x, w, stride, padding) + bias.reshape(1, 4, 1, 1)
    out = device_conv2d(x, w, bias, DEVICE_FLEET[0], stride=stride, padding=padding)
    assert out.shape == expected.shape
    assert np.allclose(out, expected, rtol=1e-4, atol=1e-4)


def test_conv2d_channel_mismatch_raises(rng):
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        device_conv2d(x, w, None, DEVICE_FLEET[0])


def test_conv2d_empty_output_raises(rng):
    x = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
    w = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
    with pytest.raises(ValueError):
        device_conv2d(x, w, None, DEVICE_FLEET[0])


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dtype,value", [(np.float32, 0.0), (np.float32, -np.inf),
                                         (np.float64, -np.inf)])
@pytest.mark.parametrize("padding", [(0, 0), (1, 0), (1, 2)])
def test_pad_nchw_matches_np_pad(rng, layout, dtype, value, padding):
    x = rng.standard_normal((2, 3, 5, 6)).astype(dtype)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = rng.standard_normal((2, 3, 6, 5)).astype(dtype).transpose(0, 1, 3, 2)
    ph, pw = padding
    expected = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant",
                      constant_values=value)
    padded = pad_nchw(x, padding, value)
    assert padded.dtype == expected.dtype and padded.shape == expected.shape
    assert padded.tobytes(order="A") == expected.tobytes(order="A")
    assert padded.strides == expected.strides


def test_im2col_shapes(rng):
    x = rng.standard_normal((2, 3, 10, 12)).astype(np.float32)
    cols, (oh, ow) = im2col(x, (3, 3), (1, 1), (1, 1))
    assert (oh, ow) == (10, 12)
    assert cols.shape == (2, 10 * 12, 3 * 3 * 3)


@settings(deadline=None, max_examples=20)
@given(
    m=st.integers(1, 12), k=st.integers(1, 48), n=st.integers(1, 12),
    device_index=st.integers(0, 3), seed=st.integers(0, 1000),
)
def test_matmul_property_close_to_fp64(m, k, n, device_index, seed):
    local_rng = np.random.default_rng(seed)
    a = local_rng.standard_normal((m, k)).astype(np.float32)
    b = local_rng.standard_normal((k, n)).astype(np.float32)
    out = device_matmul(a, b, DEVICE_FLEET[device_index])
    exact = a.astype(np.float64) @ b.astype(np.float64)
    assert np.allclose(out, exact, rtol=1e-4, atol=1e-4)
