"""Per-operator theoretical error-bound templates (paper Sec. 3.1).

Each template receives the operator's concrete output and inputs and returns
a same-shape, element-wise error envelope ``tau_theo`` computed in float64.
The construction follows the paper's recipe: lower the operator to a short
sequence of primitives, track a first-order sensitivity envelope for
propagated intra-operator error, and add one fresh rounding term ``u*|.|``
per primitive; reductions of length ``k`` use the deterministic ``gamma_k``
or probabilistic ``gamma_tilde_k(lambda)`` factor according to the selected
:class:`~repro.bounds.fp_model.BoundMode`.

Structural / data-movement operators contribute exactly zero error; exact
selection operators (ReLU, max, masked fill) likewise contribute zero fresh
rounding because they return one of their inputs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from repro.bounds.fp_model import BoundMode, FloatingPointModel, FP32_MODEL, INTRINSIC_ULP
from repro.ops.registry import get_op

BoundTemplate = Callable[..., np.ndarray]

_TEMPLATES: Dict[str, BoundTemplate] = {}


@dataclass(frozen=True)
class BoundContext:
    """Floating-point model + bound mode used for one bounded execution."""

    fp: FloatingPointModel = FP32_MODEL
    mode: BoundMode = BoundMode.PROBABILISTIC

    @property
    def u(self) -> float:
        return self.fp.unit_roundoff

    def red(self, k: int) -> float:
        """Reduction factor for a length-``k`` rounding chain under this mode."""
        return self.fp.reduction_factor(int(k), self.mode)


def register_bound_template(name: str) -> Callable[[BoundTemplate], BoundTemplate]:
    """Decorator registering a bound template for operator ``name``."""

    def decorator(fn: BoundTemplate) -> BoundTemplate:
        if name in _TEMPLATES:
            raise ValueError(f"bound template for {name!r} already registered")
        _TEMPLATES[name] = fn
        return fn

    return decorator


def has_bound_template(name: str) -> bool:
    return name in _TEMPLATES


def list_bound_templates() -> Tuple[str, ...]:
    return tuple(sorted(_TEMPLATES))


def bound_for_operator(ctx: BoundContext, op_name: str, out: np.ndarray,
                       inputs: Sequence[Any], attrs: Dict[str, Any]) -> np.ndarray:
    """Compute ``tau_theo`` for one operator invocation.

    Falls back to a generic single-rounding envelope ``u*|out|`` for
    registered operators without a dedicated template (and to exactly zero
    for operators flagged as introducing no rounding).
    """
    out64 = np.asarray(out, dtype=np.float64)
    template = _TEMPLATES.get(op_name)
    if template is not None:
        tau = template(ctx, out64, inputs, attrs)
        return np.broadcast_to(np.asarray(tau, dtype=np.float64), out64.shape).copy()
    spec = get_op(op_name)
    if not spec.introduces_rounding:
        return np.zeros_like(out64)
    return ctx.u * np.abs(out64)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _abs64(x) -> np.ndarray:
    return np.abs(np.asarray(x, dtype=np.float64))


def _axes_tuple(axis, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        return (int(axis) % ndim,)
    return tuple(int(a) % ndim for a in axis)


def _reduced_count(shape: Tuple[int, ...], axes: Tuple[int, ...]) -> int:
    return int(np.prod([shape[a] for a in axes])) if axes else 1


def _ulp_bound(ctx: BoundContext, name: str, out: np.ndarray) -> np.ndarray:
    return INTRINSIC_ULP.get(name, 1.0) * ctx.u * np.abs(out)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

@register_bound_template("add")
def _bound_add(ctx, out, inputs, attrs):
    a, b = inputs[0], inputs[1]
    return ctx.u * (_abs64(a) + _abs64(b))


@register_bound_template("sub")
def _bound_sub(ctx, out, inputs, attrs):
    a, b = inputs[0], inputs[1]
    return ctx.u * (_abs64(a) + _abs64(b))


@register_bound_template("mul")
def _bound_mul(ctx, out, inputs, attrs):
    return ctx.u * np.abs(out)


@register_bound_template("div")
def _bound_div(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "div", out) + ctx.u * np.abs(out)


@register_bound_template("pow")
def _bound_pow(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "pow", out)


@register_bound_template("sqrt")
def _bound_sqrt(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "sqrt", out) + ctx.u * np.abs(out)


@register_bound_template("rsqrt")
def _bound_rsqrt(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "rsqrt", out)


@register_bound_template("exp")
def _bound_exp(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "exp", out)


@register_bound_template("log")
def _bound_log(ctx, out, inputs, attrs):
    # log can cross zero; anchor the envelope on the input's relative scale too.
    return _ulp_bound(ctx, "log", out) + ctx.u


@register_bound_template("sin")
def _bound_sin(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "sin", out) + ctx.u


@register_bound_template("cos")
def _bound_cos(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "cos", out) + ctx.u


@register_bound_template("tanh")
def _bound_tanh(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "tanh", out)


@register_bound_template("sigmoid")
def _bound_sigmoid(ctx, out, inputs, attrs):
    return 3.0 * ctx.u * np.abs(out)


@register_bound_template("erf")
def _bound_erf(ctx, out, inputs, attrs):
    return _ulp_bound(ctx, "erf", out)


@register_bound_template("maximum")
def _bound_maximum(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("minimum")
def _bound_minimum(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("clip")
def _bound_clip(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("where")
def _bound_where(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("abs")
def _bound_abs(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("neg")
def _bound_neg(ctx, out, inputs, attrs):
    return np.zeros_like(out)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

@register_bound_template("relu")
def _bound_relu(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("leaky_relu")
def _bound_leaky_relu(ctx, out, inputs, attrs):
    return ctx.u * np.abs(out)


@register_bound_template("gelu")
def _bound_gelu(ctx, out, inputs, attrs):
    # y = x * Phi(x); Phi computed from erf with ~3 roundings (|Phi| <= 1),
    # so |dPhi| <= 3u, and the final product adds one fresh rounding.
    x = _abs64(inputs[0])
    return 3.0 * ctx.u * x + ctx.u * np.abs(out)


@register_bound_template("silu")
def _bound_silu(ctx, out, inputs, attrs):
    # y = x * sigmoid(x); |d sigmoid| <= 3u * sigma, so |x|*|d sigmoid| <= 3u*|y|,
    # plus one fresh rounding for the final product.
    return 4.0 * ctx.u * np.abs(out)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

@register_bound_template("sum")
def _bound_sum(ctx, out, inputs, attrs):
    x = _abs64(inputs[0])
    axes = _axes_tuple(attrs.get("axis"), x.ndim)
    k = _reduced_count(x.shape, axes)
    abs_sum = x.sum(axis=axes, keepdims=attrs.get("keepdims", False))
    return ctx.red(max(k - 1, 0)) * abs_sum


@register_bound_template("mean")
def _bound_mean(ctx, out, inputs, attrs):
    x = _abs64(inputs[0])
    axes = _axes_tuple(attrs.get("axis"), x.ndim)
    k = _reduced_count(x.shape, axes)
    abs_sum = x.sum(axis=axes, keepdims=attrs.get("keepdims", False))
    return ctx.red(max(k - 1, 0)) * abs_sum / max(k, 1) + ctx.u * np.abs(out)


@register_bound_template("var")
def _bound_var(ctx, out, inputs, attrs):
    x = np.asarray(inputs[0], dtype=np.float64)
    axes = _axes_tuple(attrs.get("axis"), x.ndim)
    keepdims = attrs.get("keepdims", False)
    k = _reduced_count(x.shape, axes)
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    eps_mean = ctx.red(max(k - 1, 0)) * np.abs(x).mean(axis=axes, keepdims=True) \
        + ctx.u * np.abs(mean)
    eps_centered = eps_mean + ctx.u * (np.abs(x) + np.abs(mean))
    sq = centered ** 2
    eps_sq = 2.0 * np.abs(centered) * eps_centered + ctx.u * sq
    eps_var = ctx.red(max(k - 1, 0)) * sq.mean(axis=axes, keepdims=keepdims) \
        + eps_sq.mean(axis=axes, keepdims=keepdims) + ctx.u * np.abs(out)
    return eps_var


@register_bound_template("amax")
def _bound_amax(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("amin")
def _bound_amin(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("argmax")
def _bound_argmax(ctx, out, inputs, attrs):
    return np.zeros_like(np.asarray(out, dtype=np.float64))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

@register_bound_template("matmul")
def _bound_matmul(ctx, out, inputs, attrs):
    a = _abs64(inputs[0])
    b = _abs64(inputs[1])
    k = a.shape[-1]
    return ctx.red(k) * np.matmul(a, b)


@register_bound_template("bmm")
def _bound_bmm(ctx, out, inputs, attrs):
    a = _abs64(inputs[0])
    b = _abs64(inputs[1])
    k = a.shape[-1]
    return ctx.red(k) * np.matmul(a, b)


@register_bound_template("linear")
def _bound_linear(ctx, out, inputs, attrs):
    x = _abs64(inputs[0])
    w = _abs64(inputs[1])
    k = x.shape[-1]
    tau = ctx.red(k) * np.matmul(x, w.T)
    if len(inputs) > 2 and inputs[2] is not None:
        tau = tau + ctx.u * (np.abs(out) + _abs64(inputs[2]))
    return tau


@register_bound_template("conv2d")
def _bound_conv2d(ctx, out, inputs, attrs):
    from repro.tensorlib.kernels import device_conv2d
    from repro.tensorlib.device import REFERENCE_DEVICE

    x = np.abs(np.asarray(inputs[0], dtype=np.float32))
    w = np.abs(np.asarray(inputs[1], dtype=np.float32))
    stride = attrs.get("stride", (1, 1))
    padding = attrs.get("padding", (0, 0))
    abs_conv = device_conv2d(x, w, None, REFERENCE_DEVICE, stride=tuple(stride),
                             padding=tuple(padding)).astype(np.float64)
    c_in, kh, kw = w.shape[1], w.shape[2], w.shape[3]
    k = c_in * kh * kw
    tau = ctx.red(k) * abs_conv
    if len(inputs) > 2 and inputs[2] is not None:
        bias = _abs64(inputs[2]).reshape(1, -1, 1, 1)
        tau = tau + ctx.u * (np.abs(out) + bias)
    return tau


# ---------------------------------------------------------------------------
# Pooling / upsampling
# ---------------------------------------------------------------------------

@register_bound_template("avg_pool2d")
def _bound_avg_pool2d(ctx, out, inputs, attrs):
    from repro.ops.conv import _avg_pool2d_forward
    from repro.tensorlib.device import REFERENCE_DEVICE

    x_abs = np.abs(np.asarray(inputs[0], dtype=np.float32))
    pooled_abs = _avg_pool2d_forward(REFERENCE_DEVICE, x_abs,
                                     kernel_size=attrs.get("kernel_size", (2, 2)),
                                     stride=attrs.get("stride"),
                                     padding=attrs.get("padding", (0, 0))).astype(np.float64)
    kernel = attrs.get("kernel_size", (2, 2))
    if isinstance(kernel, (tuple, list)):
        k = int(kernel[0]) * int(kernel[1])
    else:
        k = int(kernel) ** 2
    return ctx.red(max(k - 1, 0)) * pooled_abs + ctx.u * np.abs(out)


@register_bound_template("max_pool2d")
def _bound_max_pool2d(ctx, out, inputs, attrs):
    return np.zeros_like(out)


@register_bound_template("adaptive_avg_pool2d")
def _bound_adaptive_avg_pool2d(ctx, out, inputs, attrs):
    x = _abs64(inputs[0])
    k = x.shape[2] * x.shape[3]
    abs_mean = x.mean(axis=(2, 3), keepdims=True)
    return ctx.red(max(k - 1, 0)) * abs_mean + ctx.u * np.abs(out)


@register_bound_template("upsample_nearest")
def _bound_upsample_nearest(ctx, out, inputs, attrs):
    return np.zeros_like(out)


# ---------------------------------------------------------------------------
# Normalization / softmax (the paper's worked examples)
# ---------------------------------------------------------------------------

@register_bound_template("softmax")
def _bound_softmax(ctx, out, inputs, attrs):
    x = np.asarray(inputs[0], dtype=np.float64)
    axis = int(attrs.get("axis", -1)) % x.ndim
    n = x.shape[axis]
    m = x.max(axis=axis, keepdims=True)
    z = x - m
    e = np.exp(z)
    s = e.sum(axis=axis, keepdims=True)
    y = np.abs(out)

    eps_z = ctx.u * (np.abs(x) + np.abs(m))
    eps_e = np.abs(e) * eps_z + 2.0 * ctx.u * np.abs(e)
    red = ctx.red(max(n - 1, 0))
    eps_s = red * np.abs(e).sum(axis=axis, keepdims=True) \
        + (red + 1.0) * eps_e.sum(axis=axis, keepdims=True)
    eps_y = eps_e / np.abs(s) + np.abs(e) * eps_s / (s ** 2) + ctx.u * y
    return eps_y


@register_bound_template("layer_norm")
def _bound_layer_norm(ctx, out, inputs, attrs):
    x = np.asarray(inputs[0], dtype=np.float64)
    weight = np.asarray(inputs[1], dtype=np.float64)
    eps_attr = float(attrs.get("eps", 1e-5))
    n = x.shape[-1]
    red = ctx.red(max(n - 1, 0))

    m = x.mean(axis=-1, keepdims=True)
    eps_m = red * np.abs(x).mean(axis=-1, keepdims=True) + ctx.u * np.abs(m)
    c = x - m
    eps_c = eps_m + ctx.u * (np.abs(x) + np.abs(m))
    sq = c ** 2
    eps_sq = 2.0 * np.abs(c) * eps_c + ctx.u * sq
    v = sq.mean(axis=-1, keepdims=True)
    eps_v = red * sq.mean(axis=-1, keepdims=True) + eps_sq.mean(axis=-1, keepdims=True) \
        + ctx.u * np.abs(v)
    denom = np.sqrt(v + eps_attr)
    eps_denom = eps_v / (2.0 * denom) + ctx.u * denom
    normed = c / denom
    eps_normed = eps_c / denom + np.abs(c) * eps_denom / (denom ** 2) + ctx.u * np.abs(normed)
    scaled = normed * weight
    eps_out = np.abs(weight) * eps_normed + ctx.u * np.abs(scaled) + ctx.u * np.abs(out)
    return eps_out


@register_bound_template("rms_norm")
def _bound_rms_norm(ctx, out, inputs, attrs):
    x = np.asarray(inputs[0], dtype=np.float64)
    weight = np.asarray(inputs[1], dtype=np.float64)
    eps_attr = float(attrs.get("eps", 1e-6))
    n = x.shape[-1]
    red = ctx.red(max(n - 1, 0))

    sq = x ** 2
    eps_sq = ctx.u * sq
    ms = sq.mean(axis=-1, keepdims=True)
    eps_ms = red * sq.mean(axis=-1, keepdims=True) + eps_sq.mean(axis=-1, keepdims=True) \
        + ctx.u * np.abs(ms)
    denom = np.sqrt(ms + eps_attr)
    eps_denom = eps_ms / (2.0 * denom) + ctx.u * denom
    normed = x / denom
    eps_normed = np.abs(x) * eps_denom / (denom ** 2) + ctx.u * np.abs(normed)
    scaled = normed * weight
    return np.abs(weight) * eps_normed + ctx.u * np.abs(scaled) + ctx.u * np.abs(out)


@register_bound_template("batch_norm")
def _bound_batch_norm(ctx, out, inputs, attrs):
    x = np.asarray(inputs[0], dtype=np.float64)
    weight = np.asarray(inputs[1], dtype=np.float64)
    running_mean = np.asarray(inputs[3], dtype=np.float64)
    running_var = np.asarray(inputs[4], dtype=np.float64)
    eps_attr = float(attrs.get("eps", 1e-5))

    shape = (1, -1) + (1,) * (x.ndim - 2)
    mean = running_mean.reshape(shape)
    var = running_var.reshape(shape)
    w = np.abs(weight.reshape(shape))
    inv_std = 1.0 / np.sqrt(var + eps_attr)

    centered = x - mean
    eps_centered = ctx.u * (np.abs(x) + np.abs(mean))
    eps_inv = 2.5 * ctx.u * inv_std
    scaled = centered * inv_std
    eps_scaled = inv_std * eps_centered + np.abs(centered) * eps_inv + ctx.u * np.abs(scaled)
    return w * eps_scaled + ctx.u * np.abs(scaled * w) + ctx.u * np.abs(out)


@register_bound_template("group_norm")
def _bound_group_norm(ctx, out, inputs, attrs):
    x = np.asarray(inputs[0], dtype=np.float64)
    weight = np.asarray(inputs[1], dtype=np.float64)
    eps_attr = float(attrs.get("eps", 1e-5))
    g = int(attrs["num_groups"])
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    grouped = x.reshape((n, g, c // g) + spatial)
    reduce_axes = tuple(range(2, grouped.ndim))
    k = _reduced_count(grouped.shape, reduce_axes)
    red = ctx.red(max(k - 1, 0))

    m = grouped.mean(axis=reduce_axes, keepdims=True)
    eps_m = red * np.abs(grouped).mean(axis=reduce_axes, keepdims=True) + ctx.u * np.abs(m)
    cgrp = grouped - m
    eps_c = eps_m + ctx.u * (np.abs(grouped) + np.abs(m))
    sq = cgrp ** 2
    eps_sq = 2.0 * np.abs(cgrp) * eps_c + ctx.u * sq
    v = sq.mean(axis=reduce_axes, keepdims=True)
    eps_v = red * sq.mean(axis=reduce_axes, keepdims=True) \
        + eps_sq.mean(axis=reduce_axes, keepdims=True) + ctx.u * np.abs(v)
    denom = np.sqrt(v + eps_attr)
    eps_denom = eps_v / (2.0 * denom) + ctx.u * denom
    normed = cgrp / denom
    eps_normed = eps_c / denom + np.abs(cgrp) * eps_denom / (denom ** 2) + ctx.u * np.abs(normed)

    eps_flat = eps_normed.reshape(x.shape)
    shape = (1, c) + (1,) * len(spatial)
    w = np.abs(weight.reshape(shape))
    normed_flat = normed.reshape(x.shape)
    return w * eps_flat + ctx.u * np.abs(normed_flat * w) + ctx.u * np.abs(out)


# ---------------------------------------------------------------------------
# Structural / data movement: exactly zero error
# ---------------------------------------------------------------------------

def _zero_bound(ctx, out, inputs, attrs):
    return np.zeros_like(np.asarray(out, dtype=np.float64))


for _name in ("reshape", "flatten", "transpose", "permute", "expand", "concat", "slice",
              "index_select", "embedding", "masked_fill", "dropout", "pad", "identity"):
    _TEMPLATES[_name] = _zero_bound
