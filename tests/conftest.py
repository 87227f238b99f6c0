"""Shared fixtures.

Heavy artifacts (traced graphs, calibrations, committed sessions) are
session-scoped so the suite stays fast; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import (Calibrator, CalibrationConfig, CommitteeEnvelopeConfig,
                               ThresholdTable, calibrate_committee_envelope)
from repro.graph import Module, Parameter, trace_module
from repro.graph import functional as F
from repro.tensorlib import DEVICE_FLEET


class TinyMLP(Module):
    """A small but representative model: layer_norm -> linear/gelu -> linear/relu -> linear -> softmax."""

    def __init__(self, d_in: int = 32, d_hidden: int = 48, d_out: int = 6, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.ln_w = Parameter(np.ones(d_in))
        self.ln_b = Parameter(np.zeros(d_in))
        self.w1 = Parameter(rng.standard_normal((d_hidden, d_in)) * 0.2)
        self.b1 = Parameter(np.zeros(d_hidden))
        self.w2 = Parameter(rng.standard_normal((d_hidden, d_hidden)) * 0.2)
        self.b2 = Parameter(np.zeros(d_hidden))
        self.w3 = Parameter(rng.standard_normal((d_out, d_hidden)) * 0.2)
        self.b3 = Parameter(np.zeros(d_out))

    def forward(self, x):
        x = F.layer_norm(x, self.ln_w, self.ln_b)
        h = F.gelu(F.linear(x, self.w1, self.b1))
        h = F.relu(F.linear(h, self.w2, self.b2))
        logits = F.linear(h, self.w3, self.b3)
        return F.softmax(logits, axis=-1)


def _mlp_inputs(seed: int, batch: int = 4, d_in: int = 32) -> dict:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((batch, d_in)).astype(np.float32)}


@pytest.fixture(scope="session")
def mlp_module():
    return TinyMLP()


@pytest.fixture(scope="session")
def mlp_graph(mlp_module):
    return trace_module(mlp_module, _mlp_inputs(0), name="tiny_mlp")


@pytest.fixture(scope="session")
def mlp_inputs():
    return _mlp_inputs(123)


@pytest.fixture(scope="session")
def mlp_input_factory():
    return _mlp_inputs


@pytest.fixture(scope="session")
def mlp_calibration(mlp_graph):
    dataset = [_mlp_inputs(1000 + i) for i in range(6)]
    return Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(mlp_graph, dataset)


@pytest.fixture(scope="session")
def mlp_thresholds(mlp_calibration):
    return ThresholdTable.from_calibration(mlp_calibration, alpha=3.0)


@pytest.fixture(scope="session")
def mlp_envelope(mlp_graph):
    return calibrate_committee_envelope(
        mlp_graph, [_mlp_inputs(1000 + i) for i in range(4)],
        CommitteeEnvelopeConfig(devices=DEVICE_FLEET))


@pytest.fixture(scope="session")
def devices():
    return DEVICE_FLEET


@pytest.fixture
def rng():
    return np.random.default_rng(42)
