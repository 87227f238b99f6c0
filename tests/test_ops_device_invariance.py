"""Device-invariant operators never read the device.

The committee-envelope pass records an exactly zero profile for every
operator that :attr:`~repro.ops.registry.OpSpec.device_invariant`
classifies as such, without re-executing it: each member would recompute
the proposer's own traced bytes.  This file holds that premise to the code.
Every such operator runs its forward under a device that raises on any
attribute access, and the result must equal the forward on every fleet
device bit for bit.  The probe table must name exactly the classified
operators, so a newly registered operator (whose default category,
``"elementwise"``, classifies it as invariant) fails here until it is probed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ops.registry import get_op, list_ops
from repro.tensorlib import DEVICE_FLEET

_RNG = np.random.default_rng(0)


def _tensor(*shape) -> np.ndarray:
    return _RNG.standard_normal(shape).astype(np.float32)


_X = _tensor(2, 3, 4, 4)
_M = _tensor(3, 5)
_POSITIVE = np.abs(_tensor(3, 5)) + np.float32(0.1)

#: op name -> (operands, attributes) of one probe call.
PROBES = {
    "abs": ((_M,), {}),
    "add": ((_M, _tensor(5)), {}),
    "amax": ((_X,), {"axis": (2, 3)}),
    "amin": ((_X,), {"axis": -1, "keepdims": True}),
    "argmax": ((_M,), {"axis": 1}),
    "clip": ((_M,), {"minimum": -0.5, "maximum": 0.5}),
    "concat": ((_M, _tensor(2, 5)), {"axis": 0}),
    "cos": ((_M,), {}),
    "div": ((_M, _POSITIVE), {}),
    "dropout": ((_M,), {"p": 0.1}),
    "embedding": ((np.array([[0, 2, 1]]), _tensor(4, 6)), {}),
    "erf": ((_M,), {}),
    "exp": ((_M,), {}),
    "expand": ((_tensor(1, 5),), {"shape": (3, 5)}),
    "flatten": ((_X,), {"start_dim": 1}),
    "gelu": ((_M,), {}),
    "identity": ((_M,), {}),
    "index_select": ((_M, np.array([2, 0])), {"axis": 0}),
    "leaky_relu": ((_M,), {"negative_slope": 0.02}),
    "log": ((_POSITIVE,), {}),
    "masked_fill": ((_M, _M > 0), {"value": -1e9}),
    "max_pool2d": ((_X,), {"kernel_size": (2, 2), "padding": (1, 1)}),
    "maximum": ((_M, _tensor(3, 5)), {}),
    "minimum": ((_M, _tensor(3, 5)), {}),
    "mul": ((_M, _tensor(3, 5)), {}),
    "neg": ((_M,), {}),
    "pad": ((_X,), {"pad_width": ((0, 0), (0, 0), (1, 1), (2, 0))}),
    "permute": ((_X,), {"dims": (0, 2, 3, 1)}),
    "pow": ((_POSITIVE,), {"exponent": 1.5}),
    "relu": ((_M,), {}),
    "reshape": ((_X,), {"shape": (2, 48)}),
    "rsqrt": ((_POSITIVE,), {}),
    "sigmoid": ((_M,), {}),
    "silu": ((_M,), {}),
    "sin": ((_M,), {}),
    "slice": ((_X,), {"axis": 3, "start": 1, "stop": 4, "step": 2}),
    "sqrt": ((_POSITIVE,), {}),
    "sub": ((_M, _tensor(3, 5)), {}),
    "tanh": ((_M,), {}),
    "transpose": ((_X,), {"axis0": 1, "axis1": 3}),
    "upsample_nearest": ((_X,), {"scale_factor": 2}),
    "where": ((_M > 0, _M, _tensor(3, 5)), {}),
}


class _NoDevice:
    """A device whose every attribute access fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"a device-invariant forward read device.{name}")


def _invariant_ops():
    return [name for name in list_ops() if get_op(name).device_invariant]


def test_probe_table_names_exactly_the_device_invariant_ops():
    assert sorted(PROBES) == _invariant_ops()


@pytest.mark.parametrize("name", _invariant_ops())
def test_forward_reads_no_device_and_is_bit_identical_on_the_fleet(name):
    if name not in PROBES:
        pytest.fail(f"device-invariant operator {name!r} has no probe in PROBES")
    operands, attrs = PROBES[name]
    spec = get_op(name)
    blind = np.asarray(spec.forward(_NoDevice(), *operands, **attrs))
    for device in DEVICE_FLEET:
        out = np.asarray(spec.forward(device, *operands, **attrs))
        assert (out.dtype, out.shape) == (blind.dtype, blind.shape), device.name
        assert out.tobytes() == blind.tobytes(), device.name
