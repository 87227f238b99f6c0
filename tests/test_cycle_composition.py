"""A committed trace is a function of (model, input, device) alone.

TAO accepts outputs against per-operator tolerances without requiring
deterministic kernels, which only works if a proposer commits the same bits
for the same request however it was scheduled.  These tests serve sixteen
distinct ``ServingHead``-style payloads through one ``TAOService.process()``
cycle, then each payload alone on a fresh service, and require every
execution commitment and every recorded trace tensor to be bit-identical
between the two.

The comparison runs in process on the default BLAS kernels, and in a
subprocess under ``OPENBLAS_CORETYPE=Haswell``: OpenBLAS picks its GEMM
microkernel at load time, and the AVX2 kernels block rows differently from
the AVX-512 ones, so a run over stacked requests there rounds differently
from a run over one request.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

import repro
from repro.calibration import CalibrationConfig, Calibrator, ThresholdTable
from repro.graph import trace_module
from repro.protocol import TAOService
from repro.tensorlib import DEVICE_FLEET
from tests.conftest import TinyMLP

NUM_PAYLOADS = 16
REPO_ROOT = Path(__file__).resolve().parent.parent


def _payload(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((4, 32)).astype(np.float32)}


def _serve(graph, thresholds, payloads) -> List:
    """Serve ``payloads`` in one drain of a fresh service; one result each.

    A report keeps only a receipt once its cycle closes, so each result is
    taken, trace and all, from the standing proposer as it executes, and
    checked to be the one its request committed to on chain.
    """
    service = TAOService()
    service.register_model(graph, threshold_table=thresholds)
    proposer = service.model(graph.name).proposer
    executed = []
    execute = proposer.execute

    def recording_execute(*args, **kwargs):
        executed.append(execute(*args, **kwargs))
        return executed[-1]

    proposer.execute = recording_execute
    ids = service.submit_many(graph.name, payloads)
    service.process()
    committed = [service.request(request_id).report.result.commitment.value
                 for request_id in ids]
    assert committed == [result.commitment.value for result in executed]
    return executed


def composition_mismatches() -> List[str]:
    """Every way a request's committed result depends on its cycle-mates."""
    graph = trace_module(TinyMLP(), _payload(0), name="serving_head")
    calibration = Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(
        graph, [_payload(1000 + i) for i in range(6)])
    thresholds = ThresholdTable.from_calibration(calibration, alpha=6.0)
    payloads = [_payload(900 + i) for i in range(NUM_PAYLOADS)]

    together = _serve(graph, thresholds, payloads)
    alone = [_serve(graph, thresholds, [payload])[0] for payload in payloads]

    mismatches: List[str] = []
    for index, (cycle, solo) in enumerate(zip(together, alone)):
        if cycle.commitment.value != solo.commitment.value:
            mismatches.append(f"request {index}: commitment")
        cycle_values, solo_values = cycle.trace_values, solo.trace_values
        if set(cycle_values) != set(solo_values):
            mismatches.append(f"request {index}: traced node set")
            continue
        for name, expected in solo_values.items():
            got, expected = np.asarray(cycle_values[name]), np.asarray(expected)
            if (got.shape != expected.shape or got.dtype != expected.dtype
                    or got.tobytes() != expected.tobytes()):
                mismatches.append(f"request {index}: trace value {name!r}")
    return mismatches


def _has_avx2() -> bool:
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False
    return "avx2" in flags and "fma" in flags


def _assert_none(mismatches: List[str]) -> None:
    differing = sorted({item.split(":")[0] for item in mismatches})
    assert not mismatches, (
        f"{len(differing)} of {NUM_PAYLOADS} requests committed different bits "
        f"in one cycle than alone: {mismatches[:6]}")


def test_cycle_composition_is_invisible_on_default_kernels():
    _assert_none(composition_mismatches())


@pytest.mark.skipif(not _has_avx2(), reason="the Haswell kernels need AVX2 and FMA")
def test_cycle_composition_is_invisible_on_haswell_kernels():
    env = dict(os.environ)
    env["OPENBLAS_CORETYPE"] = "Haswell"
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, str(REPO_ROOT)])
    code = ("import json; from tests.test_cycle_composition import "
            "composition_mismatches; print(json.dumps(composition_mismatches()))")
    completed = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
                               capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    _assert_none(json.loads(completed.stdout.strip().splitlines()[-1]))
