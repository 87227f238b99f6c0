"""Execution plans: each committed model compiled once into a reusable schedule.

The engine layer separates *what* a committed model computes (the traced
graph) from *how* it is executed on a device.  :mod:`repro.engine.plan`
compiles a :class:`~repro.graph.graph.GraphModule` into a reusable
:class:`ExecutionPlan` (topological schedule, resolved operator callables,
output liveness) and caches it on the module, so one compilation serves
every device and every request.

:class:`~repro.graph.interpreter.Interpreter` is the one walker over these
plans: full runs, dispute slices (:meth:`ExecutionPlan.slice_steps`) and
bound co-execution all execute the same plan steps.
"""

from repro.engine.plan import ExecutionPlan, PlanStep, compile_plan, plan_for

__all__ = [
    "ExecutionPlan",
    "PlanStep",
    "compile_plan",
    "plan_for",
]
