"""Golden digests of bound co-execution on ``bert_mini``.

Every value and every theoretical bound a :class:`BoundedExecution` carries,
in both :class:`BoundMode` s, is pinned by sha256 over its canonical bytes,
as are the per-operator leaf checks of
:meth:`BoundInterpreter.bound_single_operator` fed from the recorded
operands.  The digests were recorded before bound co-execution was moved
onto the interpreter's plan walk; any change that moves a single bit of a
value or a bound fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bounds.coexec import BoundInterpreter
from repro.bounds.fp_model import BoundMode
from repro.graph.node import Node
from repro.tensorlib import DEVICE_FLEET
from repro.utils.serialization import canonical_bytes

from test_calibration_golden import TRACE_GOLDEN, _inputs, trace_digest

GOLDEN = {
    BoundMode.PROBABILISTIC: {
        "values": "bb989bc8dbedf6ed35892a39507b6e61165c532883bb4cb3d8ac49a02dc50c64",
        "bounds": "9313df65205f67f0022af54781866330c026ac6e81bfc775219bd7f118be3abc",
        "leaf": "a26751dfe1305ee305fc547f97210a5fa677104d7d2843136887a35390301b81",
    },
    BoundMode.DETERMINISTIC: {
        "values": "bb989bc8dbedf6ed35892a39507b6e61165c532883bb4cb3d8ac49a02dc50c64",
        "bounds": "5aeef3963006d559eb5cbd909fc73338a2dbb67f734bce9596d0335ae624f658",
        "leaf": "3c291d2bf75eb5fc58143b03e89216b2b1b196bf664990f494d7031e50db06b0",
    },
}


def _digest(payload) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def bounded_digests(mode: BoundMode):
    graph, threshold_inputs, _ = _inputs("bert_mini")
    bound_interp = BoundInterpreter(DEVICE_FLEET[0], mode=mode)
    execution = bound_interp.run(graph, dict(threshold_inputs[0]))
    leaf = {}
    for node in graph.graph.operators:
        operands = [execution.values[arg.name] if isinstance(arg, Node) else arg
                    for arg in node.args]
        leaf[node.name] = list(bound_interp.bound_single_operator(
            graph, node.name, operands))
    return {
        "values": _digest({"names": list(execution.output_names),
                           "outputs": list(execution.outputs),
                           "values": execution.values}),
        "bounds": _digest(execution.bounds),
        "leaf": _digest(leaf),
    }


@pytest.mark.parametrize("mode", list(GOLDEN), ids=lambda mode: mode.value)
def test_bounded_execution_matches_golden_digests(mode):
    if trace_digest("bert_mini") != TRACE_GOLDEN["bert_mini"]:
        pytest.skip("this host's BLAS traces different model outputs than the "
                    "host the goldens were recorded on")
    assert bounded_digests(mode) == GOLDEN[mode]
