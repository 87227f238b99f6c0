"""Simulated accelerator profiles.

The paper calibrates its empirical error thresholds across a fleet of four
GPUs (RTX 4090, RTX 6000 Ada, A100, H100).  No GPUs are available in this
reproduction, so a :class:`DeviceProfile` stands in for each accelerator: it
fixes the reduction chunk size and the chunk-combination order used by every
kernel in :mod:`repro.tensorlib.kernels`.  Because FP32 addition is not
associative, two profiles produce outputs that differ in the low-order bits —
the same physical mechanism (reduction reordering) that makes real GPU fleets
disagree, exercised on the same code path the paper's runtime exercises.

``REFERENCE_DEVICE`` accumulates in float64 and rounds once; it is used as the
high-precision reference when *measuring* errors, mirroring the paper's use of
FP64 for error-bound arithmetic, and is never part of the calibration fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.tensorlib.accumulate import AccumulationStrategy


@dataclass(frozen=True)
class DeviceProfile:
    """A simulated accelerator: three numbers, ``(reduction_chunk,
    matmul_split_k, strategy)``.

    Only the two primitives of :mod:`repro.tensorlib.kernels` read them — the
    split-K contraction behind matmul, bmm, linear and conv2d, and the
    chunked reduction behind sum, mean and var — and those two functions are
    where a correctly rounded evaluation of each chunk lands.

    Attributes
    ----------
    name:
        Stable identifier recorded in commitments and calibration artifacts.
    reduction_chunk:
        Number of elements each "tile" reduces natively before partials are
        combined; loosely analogous to a GPU thread-block tile along the
        reduction axis.  Read by the chunked reduction.
    strategy:
        Order in which chunk partials are combined (see
        :class:`AccumulationStrategy`) by both primitives; ``FP64`` makes
        both take the float64 reference path instead.
    matmul_split_k:
        Number of splits of the contraction axis K, for matmul, bmm and
        linear, and for the ``C_in * kH * kW`` axis of the im2col conv2d.
        Split-K is the dominant source of cross-GPU matmul divergence in
        practice.
    description:
        Human-readable note about which physical device this profile stands
        in for.
    """

    name: str
    reduction_chunk: int
    strategy: AccumulationStrategy
    matmul_split_k: int = 4
    description: str = ""

    def __post_init__(self) -> None:
        if self.reduction_chunk <= 0:
            raise ValueError("reduction_chunk must be positive")
        if self.matmul_split_k <= 0:
            raise ValueError("matmul_split_k must be positive")

    @property
    def is_reference(self) -> bool:
        """True when this profile is the FP64-accumulating reference device."""
        return self.strategy is AccumulationStrategy.FP64

    def signature(self) -> Dict[str, object]:
        """Metadata dictionary embedded in execution commitments ("meta")."""
        return {
            "device": self.name,
            "reduction_chunk": self.reduction_chunk,
            "strategy": self.strategy.value,
            "matmul_split_k": self.matmul_split_k,
            # One split serves every contraction; the committed
            # ``kernel_stack`` format keeps a key for the im2col conv too.
            "conv_split": self.matmul_split_k,
        }


#: Fleet of simulated devices standing in for the paper's four-GPU testbed.
DEVICE_FLEET: Tuple[DeviceProfile, ...] = (
    DeviceProfile(
        name="sim-rtx4090",
        reduction_chunk=32,
        strategy=AccumulationStrategy.SEQUENTIAL,
        matmul_split_k=2,
        description="Consumer-card analogue: small tiles, sequential split-K.",
    ),
    DeviceProfile(
        name="sim-rtx6000",
        reduction_chunk=48,
        strategy=AccumulationStrategy.REVERSED,
        matmul_split_k=3,
        description="Workstation-card analogue: medium tiles, reversed accumulation.",
    ),
    DeviceProfile(
        name="sim-a100",
        reduction_chunk=64,
        strategy=AccumulationStrategy.PAIRWISE,
        matmul_split_k=4,
        description="Datacenter analogue: large tiles, pairwise tree reduction.",
    ),
    DeviceProfile(
        name="sim-h100",
        reduction_chunk=128,
        strategy=AccumulationStrategy.PAIRWISE,
        matmul_split_k=8,
        description="Datacenter analogue: very large tiles, deep split-K tree.",
    ),
)

#: High-precision reference profile used for error measurement only.
REFERENCE_DEVICE = DeviceProfile(
    name="reference-fp64",
    reduction_chunk=1_048_576,
    strategy=AccumulationStrategy.FP64,
    matmul_split_k=1,
    description="FP64 accumulation, rounded once to FP32; error-measurement reference.",
)

_REGISTRY: Dict[str, DeviceProfile] = {d.name: d for d in DEVICE_FLEET}
_REGISTRY[REFERENCE_DEVICE.name] = REFERENCE_DEVICE


def get_device(name: str) -> DeviceProfile:
    """Look up a device profile by name.

    Raises ``KeyError`` with the list of known devices when ``name`` is
    unknown, which surfaces configuration typos early.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown device {name!r}; known devices: {known}") from None


def list_devices(include_reference: bool = False) -> List[DeviceProfile]:
    """Return the calibration fleet, optionally including the reference device."""
    devices = list(DEVICE_FLEET)
    if include_reference:
        devices.append(REFERENCE_DEVICE)
    return devices


def register_device(profile: DeviceProfile) -> None:
    """Register a custom device profile (e.g. to model onboarding a new GPU).

    Used by the "onboarding new configurations" discussion experiments: a new
    profile with an unusual accumulation order can shift observed errors
    outside previously committed thresholds.
    """
    if profile.name in _REGISTRY:
        raise ValueError(f"device {profile.name!r} already registered")
    _REGISTRY[profile.name] = profile
