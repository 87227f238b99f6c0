"""A dispute re-executes its slices on the committed model's one plan.

Each selection round re-executes every child slice from the proposer's
live-in tensors.  Those runs walk the execution plan compiled for the
committed model, so across set-up, execution and a whole multi-round dispute
:func:`repro.engine.plan.compile_plan` runs once per committed model and no
:class:`~repro.graph.graph.GraphModule` is built after tracing.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.engine.plan as plan_module
from repro.graph import trace_module
from repro.graph.graph import GraphModule
from repro.models import get_model_spec
from repro.protocol.service import TAOService
from repro.tensorlib.device import DEVICE_FLEET

from tests.conftest import TinyMLP, _mlp_inputs


def _tiny_mlp():
    graph = trace_module(TinyMLP(), _mlp_inputs(0), name="tiny_mlp")
    victim = graph.graph.operators[4].name
    return (graph, [_mlp_inputs(1000 + i) for i in range(4)], _mlp_inputs(77),
            {victim: np.float32(1.0)}, victim)


def _bert_mini():
    spec = get_model_spec("bert_mini")
    module = spec.build_module()
    graph = spec.trace(module, batch_size=1)
    victim = next(n.name for n in graph.graph.operators if n.target == "linear")
    return (graph, spec.dataset(module, 3, seed=1, batch_size=1),
            spec.sample_inputs(module, 1, seed=700),
            {victim: lambda value: np.zeros_like(value)}, victim)


@pytest.mark.parametrize("build", [_tiny_mlp, _bert_mini], ids=["tiny_mlp", "bert_mini"])
def test_multi_round_dispute_compiles_one_plan_and_builds_no_graph(monkeypatch, build):
    graph, calibration, inputs, perturbation, victim = build()

    compiled = Counter()
    real_compile = plan_module.compile_plan

    def counting_compile(graph_module):
        compiled[graph_module.name] += 1
        return real_compile(graph_module)

    built = []
    real_post_init = GraphModule.__post_init__

    def counting_post_init(self):
        built.append(self.name)
        real_post_init(self)

    monkeypatch.setattr(plan_module, "compile_plan", counting_compile)
    monkeypatch.setattr(GraphModule, "__post_init__", counting_post_init)

    service = TAOService(n_way=2)
    session = service.register_model(graph, calibration_inputs=calibration)
    cheater = session.make_adversarial_proposer("cheater", perturbation, DEVICE_FLEET[0])
    request_id = service.submit(graph.name, inputs, proposer=cheater)
    service.process()
    report = service.request(request_id).report

    assert report.final_status == "proposer_slashed"
    assert report.dispute.localized_operator == victim
    assert report.dispute.statistics.rounds >= 3
    assert compiled == Counter({graph.name: 1})
    assert built == []
