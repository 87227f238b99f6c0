"""Sec. 6.3: latency overhead of the deterministic execution configuration.

The paper enables software-determinism settings during optimistic execution
and measures ~0.3% extra latency on Qwen3-8B over 100 WikiText inputs.  Here
the deterministic configuration pins a canonical reduction order (finer
splits, sequential combination) for the simulated device, and the overhead is
the latency ratio over the device's fast path, measured over a batch of
MiniQwen inputs.  The ratio is wall clock, so the table reports it and the
gates are exact: the deterministic path is bitwise reproducible, and it is
exactly the pinned configuration the overhead comes from (sequential
combination, one more ``matmul_split_k`` and ``conv_split`` split than the
fast path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

import numpy as np
import pytest

from repro.graph.graph import GraphModule
from repro.graph.interpreter import Interpreter
from repro.tensorlib.accumulate import AccumulationStrategy
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.timing import now

from benchmarks.reporting import emit_table

NUM_INPUTS = 20
REPEATS = 2


def deterministic_profile(device: DeviceProfile) -> DeviceProfile:
    """The canonical deterministic configuration of ``device``.

    Reductions use sequential combination over a fixed, finer chunking —
    independent of the autotuner's preferred tiling — so every run reorders
    partial sums identically.
    """
    return DeviceProfile(
        name=f"{device.name}-deterministic",
        reduction_chunk=device.reduction_chunk,
        strategy=AccumulationStrategy.SEQUENTIAL,
        matmul_split_k=device.matmul_split_k + 1,
        conv_split=device.conv_split + 1,
        description=f"Deterministic (pinned) configuration of {device.name}.",
    )


@dataclass
class DeterminismReport:
    """Latency comparison between the fast path and the deterministic path."""

    device: str
    num_inputs: int
    fast_latency_s: float
    deterministic_latency_s: float
    bitwise_reproducible: bool

    @property
    def overhead_fraction(self) -> float:
        if self.fast_latency_s <= 0:
            return 0.0
        return (self.deterministic_latency_s - self.fast_latency_s) / self.fast_latency_s

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead_fraction


def measure_determinism_overhead(
    graph_module: GraphModule,
    dataset: Iterable[Mapping[str, np.ndarray]],
    device: DeviceProfile,
    repeats: int = 1,
) -> DeterminismReport:
    """Measure the latency overhead of the deterministic configuration.

    Runs every input in ``dataset`` on the device's fast path and on its
    deterministic configuration, and additionally checks that two
    deterministic runs of the same input are bitwise identical.
    """
    inputs_list: List[Dict[str, np.ndarray]] = [dict(sample) for sample in dataset]
    if not inputs_list:
        raise ValueError("determinism measurement requires at least one input")
    fast = Interpreter(device)
    det_profile = deterministic_profile(device)
    deterministic = Interpreter(det_profile)

    # Warm-up to exclude one-time allocation effects from the comparison.
    fast.run(graph_module, inputs_list[0])
    deterministic.run(graph_module, inputs_list[0])

    start = now()
    for _ in range(repeats):
        for sample in inputs_list:
            fast.run(graph_module, sample)
    fast_latency = now() - start

    start = now()
    for _ in range(repeats):
        for sample in inputs_list:
            deterministic.run(graph_module, sample)
    det_latency = now() - start

    first = deterministic.run(graph_module, inputs_list[0])
    second = deterministic.run(graph_module, inputs_list[0])
    reproducible = all(
        np.array_equal(a, b) for a, b in zip(first.outputs, second.outputs)
    )
    return DeterminismReport(
        device=device.name,
        num_inputs=len(inputs_list) * repeats,
        fast_latency_s=fast_latency,
        deterministic_latency_s=det_latency,
        bitwise_reproducible=reproducible,
    )


def test_determinism_overhead(benchmark, bench_qwen):
    dataset = bench_qwen.dataset(NUM_INPUTS, seed=31337)

    def run():
        return measure_determinism_overhead(bench_qwen.graph, dataset, DEVICE_FLEET[0],
                                            repeats=REPEATS)

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    emit_table(
        "determinism_overhead",
        "Deterministic-configuration latency overhead (MiniQwen)",
        ["device", "inputs", "fast path (s)", "deterministic (s)", "overhead (%)",
         "bitwise reproducible"],
        [[report.device, report.num_inputs, report.fast_latency_s,
          report.deterministic_latency_s, report.overhead_percent,
          report.bitwise_reproducible]],
        notes=("Paper: 0.3% latency overhead on Qwen3-8B (100 inputs) from CUDA/cuDNN "
               "determinism flags.  Here the deterministic path pins a canonical (non-autotuned) "
               "split-K configuration: sequential combination with one more matmul split-K "
               "and conv split than the fast path.  Its extra partial-sum bookkeeping cost "
               f"{report.overhead_percent:.2f}% in this run at Python/NumPy granularity; the "
               "figure is wall clock on a shared host, so it is reported, not gated.  The "
               "qualitative property (a small, bounded slowdown in exchange for bitwise "
               "reproducibility on a fixed device) is what transfers; the absolute 0.3% "
               "depends on native kernel dispatch costs we cannot model."),
    )

    assert report.bitwise_reproducible
    assert report.num_inputs == NUM_INPUTS * REPEATS
    # The overhead comes from exactly this pinned configuration.
    fast = DEVICE_FLEET[0]
    pinned = deterministic_profile(fast)
    assert report.device == fast.name
    assert pinned.strategy is AccumulationStrategy.SEQUENTIAL
    assert pinned.matmul_split_k == fast.matmul_split_k + 1
    assert pinned.conv_split == fast.conv_split + 1


def test_deterministic_profile_is_sequential_and_distinct():
    for device in DEVICE_FLEET:
        det = deterministic_profile(device)
        assert det.strategy is AccumulationStrategy.SEQUENTIAL
        assert det.name != device.name
        assert det.matmul_split_k == device.matmul_split_k + 1


def test_determinism_measurement_requires_inputs(bench_qwen):
    with pytest.raises(ValueError):
        measure_determinism_overhead(bench_qwen.graph, [], DEVICE_FLEET[0])
