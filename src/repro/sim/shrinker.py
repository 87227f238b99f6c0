"""Counterexample shrinking: bisect a violating schedule to a minimal one.

When a scenario run violates an invariant, the full schedule (dozens of
interleaved events) is a poor regression artifact.  :func:`shrink_schedule`
applies delta debugging (ddmin) over the event list: every
:class:`~repro.sim.scenario.RequestEvent` carries its own seeds, so any
subset of a schedule is itself a valid deterministic schedule, and the
violating subset can be bisected down until removing any single event makes
the violation disappear — a *1-minimal* reproducer.

:func:`emit_regression_test` renders the minimal schedule as a paste-ready
pytest function so the shrunk counterexample can be pinned forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.sim.invariants import InvariantViolation
from repro.sim.runner import SimulationResult, SimWorkload, run_schedule
from repro.sim.scenario import RequestEvent, ScenarioSchedule


@dataclass
class ShrinkResult:
    """The minimal reproducing schedule plus shrinking statistics."""

    schedule: ScenarioSchedule
    violations: List[InvariantViolation]
    original_events: int
    runs: int = 0

    @property
    def minimal_events(self) -> int:
        return len(self.schedule.events)


def shrink_schedule(
    schedule: ScenarioSchedule,
    workload: SimWorkload,
    run: Callable[[ScenarioSchedule, SimWorkload], SimulationResult] = run_schedule,
    max_runs: int = 200,
) -> ShrinkResult:
    """ddmin over the event list; requires the input schedule to violate.

    The search is constrained to the *original* failure signature (the
    (family, rule) pairs of the full schedule's violations): a reduction
    that only triggers some unrelated invariant is not kept, so the minimal
    schedule reproduces the bug being debugged, not a different one.

    Crash events (``crash_after=True``) are held outside the ddmin search:
    they anchor *where* the SIGKILL and its journal recovery land, so
    removing one changes the failure mode rather than merely the schedule
    size.  Every candidate is re-merged with them (in original event order),
    which keeps shrunk recovery counterexamples replaying — crash included —
    deterministically.
    """
    runs = 0
    last_violations: List[InvariantViolation] = []
    signature: set = set()
    fixed = [event for event in schedule.events if event.crash_after]

    def full(events: List[RequestEvent]) -> List[RequestEvent]:
        merged = {id(event) for event in events}
        combined = events + [e for e in fixed if id(e) not in merged]
        return sorted(combined, key=lambda e: e.index)

    def violates(events: List[RequestEvent]) -> bool:
        nonlocal runs, last_violations
        runs += 1
        result = run(replace(schedule, events=full(list(events))), workload)
        matching = [v for v in result.violations
                    if not signature or (v.family, v.rule) in signature]
        if matching:
            last_violations = matching
            return True
        return False

    events = [event for event in schedule.events if not event.crash_after]
    if not violates(events):
        raise ValueError("shrink_schedule requires a schedule that violates "
                         "an invariant")
    baseline = list(last_violations)
    signature = {(v.family, v.rule) for v in baseline}

    granularity = 2
    while len(events) >= 2 and runs < max_runs:
        chunk = max(1, len(events) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk:]
            if (candidate or fixed) and violates(candidate):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if runs >= max_runs:
                break
        if not reduced:
            if chunk == 1:
                break  # 1-minimal: no single event can be removed
            granularity = min(granularity * 2, len(events))
    # Re-establish the violations of the *final* minimal schedule (crash
    # events re-merged, so the artifact replays the recovery path verbatim).
    minimal = full(list(events))
    final = run(replace(schedule, events=minimal), workload)
    matching = [v for v in final.violations if (v.family, v.rule) in signature]
    return ShrinkResult(
        schedule=replace(schedule, events=minimal),
        violations=matching or baseline,
        original_events=len(schedule.events),
        runs=runs,
    )


def emit_regression_test(shrunk: ShrinkResult, workload_expr: str = None,
                         test_name: Optional[str] = None) -> str:
    """Render the minimal counterexample as a paste-ready pytest function.

    ``workload_expr`` is the expression the emitted test uses to obtain the
    :class:`SimWorkload` (default: prepare the same zoo workload by name).
    The emitted test asserts the violation does NOT reproduce, i.e. it is
    meant to be committed *after* the underlying bug is fixed.
    """
    scenario = shrunk.schedule.scenario
    name = test_name or f"test_shrunk_{scenario.name.replace('-', '_')}"
    if workload_expr is None:
        workload_expr = f"prepare_workload({scenario.model!r})"
    lines: List[str] = []
    lines.append("def %s():" % name)
    lines.append('    """Shrunk counterexample (%d -> %d events): %s."""' % (
        shrunk.original_events, shrunk.minimal_events,
        "; ".join(str(v) for v in shrunk.violations) or "invariant violation"))
    lines.append("    from repro.sim import (RequestEvent, Scenario,")
    lines.append("                           ScenarioSchedule, prepare_workload,")
    lines.append("                           run_schedule)")
    lines.append("    scenario = %r" % (scenario,))
    lines.append("    events = [")
    for event in shrunk.schedule.events:
        lines.append("        %r," % (event,))
    lines.append("    ]")
    lines.append("    workload = %s" % workload_expr)
    lines.append("    result = run_schedule(ScenarioSchedule(scenario, events), workload)")
    lines.append("    assert not result.violations, \\")
    lines.append("        \"\\n\".join(str(v) for v in result.violations)")
    return "\n".join(lines) + "\n"
