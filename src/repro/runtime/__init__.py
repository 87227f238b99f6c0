"""Deployable runtime facade (paper Sec. 6 "Implementation").

:class:`TracedRuntime` is the library's convenience layer: it instruments a
model (traces it to an operator graph), executes it on any simulated device
with optional trace recording, FLOP counting and bound co-execution, and
re-executes contiguous operator slices from their live-in tensors — the
operations the paper's PyTorch runtime performs.  :mod:`repro.runtime.determinism` models the software-determinism
configuration and its latency overhead; :mod:`repro.runtime.verifier`
provides standalone challenger-side verification helpers usable without the
full protocol stack.
"""

from repro.runtime.traced_runtime import TracedRuntime
from repro.runtime.determinism import (
    DeterminismReport,
    deterministic_profile,
    measure_determinism_overhead,
)
from repro.runtime.verifier import VerificationReport, verify_execution, verify_model_commitment

__all__ = [
    "TracedRuntime",
    "DeterminismReport",
    "deterministic_profile",
    "measure_determinism_overhead",
    "VerificationReport",
    "verify_execution",
    "verify_model_commitment",
]
