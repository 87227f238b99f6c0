"""Unit tests for seeded RNG derivation and the consolidated clocks."""

import time

from repro.utils.rng import derive_seed, seeded_rng


def test_seeded_rng_reproducible():
    a = seeded_rng(7).standard_normal(5)
    b = seeded_rng(7).standard_normal(5)
    assert (a == b).all()


def test_derive_seed_depends_on_labels():
    base = 99
    assert derive_seed(base, "calibration", 0) != derive_seed(base, "calibration", 1)
    assert derive_seed(base, "calibration", 0) != derive_seed(base, "attack", 0)
    assert derive_seed(base, "calibration", 0) == derive_seed(base, "calibration", 0)


def test_derive_seed_depends_on_base():
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_no_direct_perf_counter_outside_timing():
    """Every latency read goes through ``repro.utils.timing``.

    The consolidated clock is what makes latency accounting virtualizable:
    the service's per-stage busy attribution (and any future
    simulated-time harness) assumes exactly one clock source.  A direct
    ``time.perf_counter`` call anywhere else in ``src/repro`` reintroduces
    an unvirtualizable clock, so this guard greps the whole package.
    """
    import pathlib

    import repro

    package_root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if relative == "utils/timing.py":
            continue
        if "perf_counter" in path.read_text(encoding="utf-8"):
            offenders.append(relative)
    assert not offenders, (
        "direct time.perf_counter use outside repro/utils/timing.py in: "
        f"{offenders}; import `now` from repro.utils.timing instead"
    )


def test_thread_now_measures_thread_cpu():
    from repro.utils.timing import now, thread_now

    start_cpu, start_wall = thread_now(), now()
    time.sleep(0.02)  # sleeping costs wall time but (almost) no thread CPU
    cpu, wall = thread_now() - start_cpu, now() - start_wall
    assert wall >= 0.02
    assert cpu < wall
