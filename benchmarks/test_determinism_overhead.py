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

from repro.runtime.determinism import (
    deterministic_profile,
    measure_determinism_overhead,
)
from repro.tensorlib.accumulate import AccumulationStrategy
from repro.tensorlib.device import DEVICE_FLEET

from benchmarks.reporting import emit_table

NUM_INPUTS = 20
REPEATS = 2


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
    # The overhead comes from exactly this pinned configuration.
    fast = DEVICE_FLEET[0]
    pinned = deterministic_profile(fast)
    assert report.device == fast.name
    assert pinned.strategy is AccumulationStrategy.SEQUENTIAL
    assert pinned.matmul_split_k == fast.matmul_split_k + 1
    assert pinned.conv_split == fast.conv_split + 1
