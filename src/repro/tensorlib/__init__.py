"""FP32 tensor substrate with simulated heterogeneous accelerators.

The paper's entire premise is that IEEE-754 floating point is non-associative,
so the *same* operator run on different GPUs (or twice on the same GPU)
legitimately produces slightly different results because vendor kernels
reorder reductions.  This subpackage reproduces that mechanism in software:

* :mod:`repro.tensorlib.accumulate` implements several FP32 reduction
  orderings (sequential, reversed, chunked, pairwise-tree, Kahan-compensated).
* :mod:`repro.tensorlib.device` defines :class:`DeviceProfile`, a simulated
  accelerator that is three numbers — ``(reduction_chunk, matmul_split_k,
  strategy)`` — plus a four-device fleet standing in for the paper's
  RTX 4090 / RTX 6000 / A100 / H100 testbed.
* :mod:`repro.tensorlib.kernels` provides the matmul / conv2d / reduction
  kernels.  Only two primitives read a device: one split-K contraction
  (matmul, bmm, linear, conv2d) and one chunked reduction (sum, mean, var),
  so cross-device output differences are genuine IEEE-754 rounding
  divergence — the same physical effect the paper calibrates against — and
  a correctly rounded evaluation of each chunk changes exactly those two
  functions.
* :mod:`repro.tensorlib.transcendental` provides :func:`erf`, Cephes' error
  function evaluated with numpy (float32 results bit-identical to
  ``scipy.special.erf``), so the runtime needs only numpy.
* :mod:`repro.tensorlib.flops` provides the FLOP accounting used by the
  Table 3 cost experiments.
"""

from repro.tensorlib.accumulate import (
    AccumulationStrategy,
    accumulate_partials,
    chunked_sum,
)
from repro.tensorlib.device import (
    DeviceProfile,
    DEVICE_FLEET,
    REFERENCE_DEVICE,
    get_device,
    list_devices,
)
from repro.tensorlib.kernels import (
    device_matmul,
    device_conv2d,
    device_sum,
    device_mean,
    device_var,
)
from repro.tensorlib.flops import FlopCounter
from repro.tensorlib.transcendental import erf

__all__ = [
    "AccumulationStrategy",
    "accumulate_partials",
    "chunked_sum",
    "DeviceProfile",
    "DEVICE_FLEET",
    "REFERENCE_DEVICE",
    "get_device",
    "list_devices",
    "device_matmul",
    "device_conv2d",
    "device_sum",
    "device_mean",
    "device_var",
    "FlopCounter",
    "erf",
]
