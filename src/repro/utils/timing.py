"""The consolidated clocks behind every latency and busy-time measurement.

All latency measurement in this repository reads :func:`now` — an alias for
:func:`time.perf_counter` — rather than ``time.time()``: the performance
counter is monotonic (immune to NTP/wall-clock adjustments) and has
sub-millisecond resolution, which matters because per-round dispute substeps
and per-request service latencies are routinely well under a millisecond.
The dispute game reads it around each party's move and keeps the two
durations on that round's statistics, so a dispute's timings live on the
dispute rather than on the role objects that played it.

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

#: The canonical latency clock: monotonic, sub-ms resolution.
now = time.perf_counter

#: The canonical busy-time clock: CPU seconds consumed by the calling thread.
thread_now = time.thread_time
