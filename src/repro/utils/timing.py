"""The consolidated clocks behind every latency and busy-time measurement.

All latency measurement in this repository reads :func:`now` — an alias for
:func:`time.perf_counter` — rather than ``time.time()``: the performance
counter is monotonic (immune to NTP/wall-clock adjustments) and has
sub-millisecond resolution, which matters because per-round dispute substeps
and per-request service latencies are routinely well under a millisecond.

No module outside this one may call ``time.perf_counter`` directly (guarded
by ``tests/test_utils_rng_timing.py``): routing every read through these
aliases keeps the whole stack on one virtualizable clock, which the
service's latency accounting — and any future simulated-time harness —
depends on.

:func:`thread_now` is the busy-time counterpart: per-thread CPU seconds,
used by the service's drain stages and the cluster's shard workers to
measure their *own* demand independently of how many cores this host has or
how the GIL interleaves them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

#: The canonical latency clock: monotonic, sub-ms resolution.
now = time.perf_counter

#: The canonical busy-time clock: CPU seconds consumed by the calling thread.
thread_now = time.thread_time


@dataclass
class Stopwatch:
    """Accumulates named wall-clock durations.

    Used by the dispute game to record per-round substep latency (proposer
    partition vs. challenger selection), mirroring the paper's Fig. 8
    "per-round substep time" measurement.
    """

    records: Dict[str, List[float]] = field(default_factory=dict)

    def measure(self, label: str):
        """Context manager recording the elapsed time under ``label``."""
        return _Measurement(self, label)

    def add(self, label: str, seconds: float) -> None:
        self.records.setdefault(label, []).append(float(seconds))

    def total(self, label: str) -> float:
        return float(sum(self.records.get(label, [])))

    def count(self, label: str) -> int:
        return len(self.records.get(label, []))

    def mean(self, label: str) -> float:
        values = self.records.get(label, [])
        if not values:
            return 0.0
        return float(sum(values) / len(values))

    def merge(self, other: "Stopwatch") -> None:
        for label, values in other.records.items():
            self.records.setdefault(label, []).extend(values)


class _Measurement:
    def __init__(self, stopwatch: Stopwatch, label: str) -> None:
        self._stopwatch = stopwatch
        self._label = label
        self._start = 0.0

    def __enter__(self) -> "_Measurement":
        self._start = now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stopwatch.add(self._label, now() - self._start)
