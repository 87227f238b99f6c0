"""Global operator registry.

An :class:`OpSpec` bundles everything the rest of the system needs to know
about a primitive operator:

* ``forward(device, *tensors, **attrs)`` — executes the operator on a
  simulated device (reductions follow the device's accumulation order);
* ``vjp(device, grad_out, out, *tensors, **attrs)`` — vector-Jacobian product
  returning one gradient per positional tensor input (``None`` where no
  gradient flows, e.g. into integer index tensors);
* ``flops(out, *tensors, **attrs)`` — floating-point operation estimate used
  by the dispute-cost accounting (Table 3);
* ``category`` — coarse operator family used in reports ("linalg", "norm",
  "elementwise", "structural", ...); structural/data-movement operators
  contribute no floating-point error (paper Sec. 3.1);
* ``device_invariant`` — derived: the forward never reads the device, so
  every device computes the same bytes from the same operands.

Theoretical error-bound templates are registered separately in
:mod:`repro.bounds.templates`, keyed by the same operator name, so the bound
machinery stays decoupled from the execution kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.tensorlib.device import DeviceProfile

ForwardFn = Callable[..., np.ndarray]
VjpFn = Callable[..., Tuple[Optional[np.ndarray], ...]]
FlopsFn = Callable[..., float]


@dataclass(frozen=True)
class OpSpec:
    """Description of a primitive tensor operator."""

    name: str
    forward: ForwardFn
    vjp: Optional[VjpFn] = None
    flops: Optional[FlopsFn] = None
    category: str = "elementwise"
    #: Structural (pure data-movement) operators introduce no rounding error.
    introduces_rounding: bool = True

    @property
    def device_invariant(self) -> bool:
        """True when the forward never reads the device.

        Pure data movement, and the element-wise and activation families
        (one rounding per element, no device-ordered reduction), compute the
        same bytes on every device from the same operands.
        ``tests/test_ops_device_invariance.py`` runs each such forward under
        a device that raises on any attribute access.
        """
        return not self.introduces_rounding or self.category in ("elementwise", "activation")

    def __call__(self, device: DeviceProfile, *tensors: np.ndarray, **attrs) -> np.ndarray:
        return self.forward(device, *tensors, **attrs)

    def estimate_flops(self, out: np.ndarray, *tensors: np.ndarray, **attrs) -> float:
        if self.flops is None:
            return 0.0
        return float(self.flops(out, *tensors, **attrs))


_REGISTRY: Dict[str, OpSpec] = {}


def register_op(spec: OpSpec) -> OpSpec:
    """Register ``spec`` globally; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"operator {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    """Look up an operator by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; registered operators: {', '.join(sorted(_REGISTRY))}"
        ) from None


def has_op(name: str) -> bool:
    return name in _REGISTRY


def list_ops(category: Optional[str] = None) -> List[str]:
    """Return registered operator names, optionally filtered by category."""
    if category is None:
        return sorted(_REGISTRY)
    return sorted(name for name, spec in _REGISTRY.items() if spec.category == category)


def _f32(x: np.ndarray) -> np.ndarray:
    """Cast to float32 unless the array is an integer/bool index tensor."""
    arr = np.asarray(x)
    if arr.dtype.kind in ("i", "u", "b"):
        return arr
    return arr.astype(np.float32, copy=False)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast dimensions.

    Used by elementwise VJPs so gradients match the original operand shapes
    even when NumPy broadcasting expanded them during the forward pass.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape == tuple(shape):
        return grad
    # Sum away leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad
