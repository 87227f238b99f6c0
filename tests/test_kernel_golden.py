"""Golden digests of every device-reading kernel's output bytes.

A device is an accumulation order: the kernels in
:mod:`repro.tensorlib.kernels` split a contraction or a reduction and
combine the partials in the device's order.  Each case below runs one
kernel on every fleet device and on the FP64 reference device and pins the
sha256 of the canonical bytes of the five outputs.  The digests were
recorded before the split-K contraction and the chunked reduction were each
written once; any refactor of either primitive that moves a single bit
fails here.  Unlike the model traces of ``test_calibration_golden``, these
cover conv2d at several strides and paddings and every reduction axis form.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np
import pytest

from repro.ops import get_op
from repro.tensorlib import DEVICE_FLEET, REFERENCE_DEVICE
from repro.tensorlib.kernels import (
    device_conv2d,
    device_matmul,
    device_mean,
    device_sum,
    device_var,
)
from repro.utils.serialization import canonical_bytes

from test_calibration_golden import TRACE_GOLDEN, trace_digest

DEVICES = tuple(DEVICE_FLEET) + (REFERENCE_DEVICE,)


def _operand(seed: int, shape) -> np.ndarray:
    return (np.random.default_rng(seed).standard_normal(shape) * 4.0).astype(np.float32)


#: A (37, 300) operand: 300 exceeds every fleet reduction chunk, so each
#: device's chunking and combine order shows in the reduced bytes.
_VALUES = _operand(20, (37, 300))
_VALUES_3D = _operand(21, (6, 90, 70))


def _conv(stride, padding) -> Callable:
    x = _operand(30, (2, 5, 9, 9))
    w = _operand(31, (6, 5, 3, 3))
    bias = _operand(32, (6,))
    return lambda device: device_conv2d(x, w, bias, device, stride=stride, padding=padding)


CASES: Dict[str, Callable] = {
    "matmul_2d": lambda d: device_matmul(_operand(1, (19, 101)), _operand(2, (101, 23)), d),
    "matmul_batched": lambda d: device_matmul(_operand(3, (2, 3, 7, 66)),
                                              _operand(4, (3, 66, 5)), d),
    "matmul_vec_left": lambda d: device_matmul(_operand(5, (77,)), _operand(6, (77, 9)), d),
    "matmul_vec_right": lambda d: device_matmul(_operand(7, (4, 2, 77)), _operand(8, (77,)), d),
    "matmul_vec_both": lambda d: device_matmul(_operand(9, (77,)), _operand(10, (77,)), d),
    # K = 1 leaves nothing to split on any device.
    "matmul_k1": lambda d: device_matmul(_operand(18, (5, 1)), _operand(19, (1, 4)), d),
    "bmm": lambda d: get_op("bmm")(d, _operand(11, (4, 8, 53)), _operand(12, (4, 53, 6))),
    "linear_bias": lambda d: get_op("linear")(d, _operand(13, (3, 5, 45)), _operand(14, (11, 45)),
                                              _operand(15, (11,))),
    "linear_no_bias": lambda d: get_op("linear")(d, _operand(16, (12, 45)),
                                                 _operand(17, (11, 45))),
    "conv2d_s1_p0": _conv((1, 1), (0, 0)),
    "conv2d_s1_p1": _conv((1, 1), (1, 1)),
    "conv2d_s2_p1": _conv((2, 2), (1, 1)),
    "sum_int": lambda d: device_sum(_VALUES, d, axis=-1),
    "sum_tuple": lambda d: device_sum(_VALUES_3D, d, axis=(0, 2), keepdims=True),
    "sum_none": lambda d: device_sum(_VALUES, d),
    "mean_int": lambda d: device_mean(_VALUES, d, axis=1, keepdims=True),
    "mean_tuple": lambda d: device_mean(_VALUES_3D, d, axis=(1, 2)),
    "mean_none": lambda d: device_mean(_VALUES_3D, d),
    "var_int": lambda d: device_var(_VALUES, d, axis=-1),
    "var_tuple": lambda d: device_var(_VALUES_3D, d, axis=(0, 1), keepdims=True, ddof=1),
    "var_none": lambda d: device_var(_VALUES, d),
}

GOLDEN: Dict[str, str] = {
    "bmm": "a373687b9351ec539cda36d9951f1b15113c06e037298d1aec594728642241ef",
    "conv2d_s1_p0": "2d8d1e0c71e6ebabdaefa5a9bce9eb6cbeddfaf2e84dfd412c83136c0e19af17",
    "conv2d_s1_p1": "e4228e5f3adcbbdd64333d5ff7ad2357fd96c2b4484f6881f85aafb24fed38fc",
    "conv2d_s2_p1": "3e65a6a4fa33c243c9b0c100540253581ccdcd8868c4aa6999f325558b9f75d6",
    "linear_bias": "596cad1390f4236f1a8e32b784eb3dbffb1a8a6ddb553670daffc92dea9175f8",
    "linear_no_bias": "d8cd7cde84ab74664c36679b85045ce9a82a1443625534235cba7a6cfd29f783",
    "matmul_2d": "2cdc163ae1065d5b6268178457a8d80ad3439ca267da323fee5cb8580846f71d",
    "matmul_batched": "01f10df9efd2a0fc2ca201b8abd9c79465737efc265ae62a10c083e44560d068",
    "matmul_k1": "28fb63c04a1e7048932fd004438209b6d0e957ea0a43e49d3b1ae1265eeb2a2d",
    "matmul_vec_both": "513ecb3689c3301be2e9458d3e92091a4184c811bb747d87bf365e6fd7e27ad2",
    "matmul_vec_left": "71595ef4e6bde34438e17af6cc1b6eeb72ab91a8e24e6ff229eb98550ffe19b8",
    "matmul_vec_right": "25bea7c5c20639834cbf1a6f766260d187756dc35efed6a01bd1c7b24219c103",
    "mean_int": "ac28c6f5b7a85d56db2366f1a0e4d7fe78af6feff17ca31f9624064ee2c6683a",
    "mean_none": "158a5f25ae9f0af833a3f57171c8e6dc596f6527367263fc571eaad9011115bf",
    "mean_tuple": "c1eb934c8a2ad021891c1d0ad97ca50e3139b8c49062910cff0991f1543a576a",
    "sum_int": "73b65ec6b15b2189c8d707585ebca7436b8ed42449d4c7a14621878e0f5323bf",
    "sum_none": "f0548f3c20f3f74fc834d0b169dab7ab79b7f2a78ebeb8b5b7d55f3f2fc85611",
    "sum_tuple": "8ea0f10da8fad0c145c38ba4fab98ac3c08a91a647f1cb122b6ebd5d8ecf1a43",
    "var_int": "72c963dac30c54dfcede366b012689575bd919a2123e2fecd744693a1e4ba535",
    "var_none": "e6f7f92bade4e5a5994fbb91a2310a7a8d76b25893ffc9d84dc6c62d3a4685d3",
    "var_tuple": "ee87d7a4dc55d164d4f71d946bf8e54db274da21fce341a1b2c2c7b0b1a8ba8b",
}


def kernel_digest(case: str) -> str:
    outputs = [CASES[case](device) for device in DEVICES]
    return hashlib.sha256(canonical_bytes(outputs)).hexdigest()


@pytest.fixture(scope="module")
def golden_host() -> None:
    if trace_digest("bert_mini") != TRACE_GOLDEN["bert_mini"]:
        pytest.skip("this host's BLAS traces different model outputs than the "
                    "host the goldens were recorded on")


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_outputs_match_golden_digests(golden_host, case):
    assert kernel_digest(case) == GOLDEN[case]
