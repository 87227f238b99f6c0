"""Golden digests of the calibration outputs.

The threshold table, the committee envelope and every per-operator,
per-sample percentile profile are pinned by sha256 over their canonical
bytes.  The digests were recorded before the percentile profiles were
batched into one sorted pass per (sample, operator); any change to how a
profile is computed that moves a single bit fails here.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pytest

from repro.calibration import CalibrationConfig, Calibrator, ThresholdTable
from repro.calibration.committee import (
    CommitteeEnvelopeConfig,
    calibrate_committee_envelope,
)
from repro.graph import Module, Parameter, trace_module
from repro.graph import functional as F
from repro.graph.interpreter import Interpreter
from repro.models import get_model_spec
from repro.tensorlib import DEVICE_FLEET
from repro.utils.serialization import canonical_bytes

GOLDEN = {
    "bert_mini": {
        "thresholds": "26f8a956223966f0387406d8e30a5b0d732ad9d1b21112e96a4bbcec86f42be5",
        "envelope": "01077bff513d8cd39bbb4c543c139d8b100675d58cade0535ddbc378227f5232",
        "operators": "c168532282c3eec2ac54310403c03713a3bef3e8d168483d67b9683337385961",
    },
    "mlp_head": {
        "thresholds": "80d718e8546fed716f234040c2f0978324cc01adc6fd645a2b3fa588fda8212b",
        "envelope": "aa0eca1ed3a5a9fea9dcb1dfb40c85334744d32e389f0b305fdef663a9d07792",
        "operators": "a028a2786bc3785787fee7486beb31648ab7a9c43d149159a4ccfd31b935c265",
    },
}

#: Digest of every traced operator value the calibration consumes, on every
#: device.  Emulated kernels reduce through BLAS, whose summation order
#: depends on the CPU; where these differ the model outputs differ, and the
#: calibration goldens above do not apply to the host.
TRACE_GOLDEN = {
    "bert_mini": "9739e02e293d0fd76d5f9bd3dc572ab5d25ffac9412235d00254131b109f1732",
    "mlp_head": "1c168ae7bc5f672bc78f21ec00637373e58efa0b0785b5a5b919d34c1ede54b9",
}


class ServingHead(Module):
    """The MLP classifier head of the serving benchmarks."""

    def __init__(self, d_in: int = 32, d_hidden: int = 48, d_out: int = 6,
                 seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.ln_w = Parameter(np.ones(d_in))
        self.ln_b = Parameter(np.zeros(d_in))
        self.w1 = Parameter(rng.standard_normal((d_hidden, d_in)) * 0.1)
        self.b1 = Parameter(np.zeros(d_hidden))
        self.w2 = Parameter(rng.standard_normal((d_hidden, d_hidden)) * 0.1)
        self.b2 = Parameter(np.zeros(d_hidden))
        self.w3 = Parameter(rng.standard_normal((d_out, d_hidden)) * 0.1)
        self.b3 = Parameter(np.zeros(d_out))

    def forward(self, x):
        x = F.layer_norm(x, self.ln_w, self.ln_b)
        h = F.gelu(F.linear(x, self.w1, self.b1))
        h = F.relu(F.linear(h, self.w2, self.b2))
        return F.softmax(F.linear(h, self.w3, self.b3), axis=-1)


def _head_payload(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((4, 32)).astype(np.float32)}


def _inputs(model: str):
    """(graph, threshold inputs, envelope inputs) of one pinned model."""
    if model == "mlp_head":
        graph = trace_module(ServingHead(), _head_payload(0), name="mlp_head")
        return (graph, [_head_payload(1000 + i) for i in range(6)],
                [_head_payload(2000 + i) for i in range(3)])
    spec = get_model_spec(model)
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1, seed=17)
    return (graph, spec.dataset(module, 3, seed=17, batch_size=1),
            spec.dataset(module, 2, seed=17, batch_size=1))


def _digest(payload) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def trace_digest(model: str) -> str:
    graph, threshold_inputs, envelope_inputs = _inputs(model)
    values = [
        [Interpreter(device).run(graph, dict(sample), record=True).values[node.name]
         for node in graph.graph.operators]
        for sample in list(threshold_inputs) + list(envelope_inputs)
        for device in DEVICE_FLEET
    ]
    return _digest(values)


def calibration_digests(model: str) -> Dict[str, str]:
    graph, threshold_inputs, envelope_inputs = _inputs(model)
    calibration = Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(
        graph, threshold_inputs)
    table = ThresholdTable.from_calibration(calibration, alpha=3.0)
    envelope = calibrate_committee_envelope(
        graph, envelope_inputs, CommitteeEnvelopeConfig(devices=DEVICE_FLEET))
    operators = {
        name: {
            "calibration": calib.to_dict(),
            "per_sample": [profile.to_dict() for profile in calib.per_sample_profiles],
        }
        for name, calib in calibration.operators.items()
    }
    return {
        "thresholds": _digest(table.to_dict()),
        "envelope": _digest(envelope.to_dict()),
        "operators": _digest(operators),
    }


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_calibration_outputs_match_golden_digests(model):
    if trace_digest(model) != TRACE_GOLDEN[model]:
        pytest.skip("this host's BLAS traces different model outputs than the "
                    "host the goldens were recorded on")
    assert calibration_digests(model) == GOLDEN[model]
