"""Committee-envelope calibration sweep: false slashes vs escapes.

The committee leaf's acceptance envelope
(:mod:`repro.calibration.committee`) has one main knob: the across-sample
``envelope_percentile`` at which the per-operator single-op spreads
aggregate (100 = the max envelope, mirroring Eqs. 5-6; lower values tighten
it).  This benchmark charts both error rates of the leaf as that knob moves,
against the pre-calibration *reference* tolerance (the full-trace threshold
table) that produced the ROADMAP's rare-seed false verdicts:

* **false-slash rate** — honest leaf claims (fresh inputs, every proposer
  device in the fleet) judged cheating;
* **escape rate** — tampered claims (low-mantissa bit flips far outside any
  honest spread, and cap-curve ``bound_edge`` perturbations riding *inside*
  the committed full-trace tolerance) judged honest.

Because a lower percentile only ever tightens every threshold pointwise,
false slashes are monotonically nonincreasing and escapes nondecreasing in
the percentile — asserted below, together with the headline gate: at the
default (p100, safety 3) the calibrated envelope adjudicates every honest
claim honest and every bit-flip tamper cheating, while the reference
tolerance demonstrably lets cap-curve tampers escape.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.calibration import CommitteeEnvelopeConfig, calibrate_committee_envelope
from repro.calibration.committee import leaf_operands
from repro.graph.interpreter import Interpreter
from repro.protocol.adjudication import committee_vote
from repro.protocol.roles import CommitteeMember
from repro.sim.faults import bound_edge_delta, flip_low_bits
from repro.tensorlib.device import DEVICE_FLEET

from benchmarks.reporting import emit_table

ENVELOPE_PERCENTILES = (50.0, 90.0, 99.0, 100.0)
CALIBRATION_SAMPLES = 8
HELD_OUT_INPUTS = 2
#: Deterministic operator subsample bound (every graph operator up to this
#: many, evenly strided) to keep the sweep CPU-friendly on MiniBERT.
MAX_OPERATORS = 24
BIT_FLIP_BITS = 18
BOUND_EDGE_FACTOR = 0.5


def _subsampled_operators(graph) -> List:
    operators = list(graph.graph.operators)
    if len(operators) <= MAX_OPERATORS:
        return operators
    stride = max(1, len(operators) // MAX_OPERATORS)
    return operators[::stride][:MAX_OPERATORS]


def _leaf_trials(bench_model):
    """(operator, operands, honest claim, tampered claims) per trial."""
    graph = bench_model.graph
    trials = []
    for i in range(HELD_OUT_INPUTS):
        inputs = bench_model.inputs(seed=90_000 + i)
        for d, proposer_device in enumerate(DEVICE_FLEET):
            trace = Interpreter(proposer_device).run(graph, inputs, record=True)
            for node in _subsampled_operators(graph):
                honest = np.asarray(trace.values[node.name])
                if honest.dtype.kind in "iub":
                    continue
                operands = leaf_operands(graph, node, trace.values)
                seed = 90_000 + i * 101 + d * 11
                tampered = {
                    "bit_flip": flip_low_bits(honest, BIT_FLIP_BITS, seed),
                }
                if bench_model.thresholds.has_operator(node.name):
                    delta = bound_edge_delta(honest, bench_model.thresholds,
                                             node.name, BOUND_EDGE_FACTOR, seed)
                    tampered["bound_edge"] = (honest + delta).astype(np.float32)
                trials.append((node.name, operands, honest, tampered))
    return trials


def _adjudicate_all(bench_model, trials, committee, envelope) -> Dict[str, float]:
    """Run every trial through the requested leaf; return the error rates."""
    graph, thresholds = bench_model.graph, bench_model.thresholds

    def vote(name, operands, claim) -> bool:
        return committee_vote(graph, name, operands, claim, committee,
                              thresholds, committee_envelope=envelope).proposer_cheated

    false_slashes = honest_total = 0
    escapes: Dict[str, int] = {}
    totals: Dict[str, int] = {}
    for name, operands, honest, tampered in trials:
        honest_total += 1
        if vote(name, operands, honest):
            false_slashes += 1
        for kind, claim in tampered.items():
            if np.array_equal(claim, honest):
                continue  # the fault projected to a no-op on this operator
            totals[kind] = totals.get(kind, 0) + 1
            if not vote(name, operands, claim):
                escapes[kind] = escapes.get(kind, 0) + 1
    rates = {"false_slash": false_slashes / max(honest_total, 1)}
    for kind in sorted(totals):
        rates[f"escape_{kind}"] = escapes.get(kind, 0) / totals[kind]
    rates["honest_trials"] = honest_total
    return rates


def test_committee_envelope_sweep(benchmark, bench_bert):
    committee = [CommitteeMember(f"cm{i}", DEVICE_FLEET[i % len(DEVICE_FLEET)])
                 for i in range(3)]
    dataset = bench_bert.dataset(CALIBRATION_SAMPLES, seed=17)

    def run():
        trials = _leaf_trials(bench_bert)
        rows = []
        rows.append({"envelope": "reference (full-trace table)",
                     **_adjudicate_all(bench_bert, trials, committee, None)})
        for percentile in ENVELOPE_PERCENTILES:
            envelope = calibrate_committee_envelope(
                bench_bert.graph, dataset,
                CommitteeEnvelopeConfig(devices=DEVICE_FLEET,
                                        envelope_percentile=percentile),
            )
            rows.append({"envelope": f"calibrated p{percentile:g}",
                         **_adjudicate_all(bench_bert, trials, committee, envelope)})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    emit_table(
        "committee_envelope",
        "Committee leaf: false-slash / escape rates vs envelope percentile (MiniBERT)",
        ["envelope", "false-slash rate", "escape rate (bit_flip)",
         "escape rate (bound_edge)", "honest trials"],
        [[r["envelope"], r["false_slash"], r.get("escape_bit_flip", 0.0),
          r.get("escape_bound_edge", 0.0), r["honest_trials"]] for r in rows],
        notes=("Honest trials re-execute every sampled operator from each fleet "
               "device's own trace; tampers are 18-low-bit flips (far outside any "
               "honest spread) and cap-curve bound_edge perturbations riding at "
               "half the committed full-trace tolerance — the escape class behind "
               "the ROADMAP defect seeds.  Lower percentiles tighten the envelope "
               "pointwise, so false slashes rise and escapes fall monotonically; "
               "the committed default (p100, safety factor 3) sits at zero false "
               "slashes with every bit-flip tamper caught."),
    )

    reference = rows[0]
    calibrated = {r["envelope"]: r for r in rows[1:]}
    default = calibrated["calibrated p100"]

    # Headline gate: the default calibrated envelope is simultaneously safer
    # on both axes than the reference tolerance.
    assert default["false_slash"] == 0.0
    assert default["escape_bit_flip"] == 0.0
    assert default["false_slash"] <= reference["false_slash"]
    assert default["escape_bound_edge"] <= reference["escape_bound_edge"]
    # The reference tolerance demonstrably leaks sub-tolerance tampers.
    assert reference["escape_bound_edge"] > 0.0

    # Tightening the envelope percentile can only trade escapes for slashes.
    ordered = [calibrated[f"calibrated p{p:g}"] for p in ENVELOPE_PERCENTILES]
    for tighter, looser in zip(ordered, ordered[1:]):
        assert tighter["false_slash"] >= looser["false_slash"] - 1e-12
        assert tighter["escape_bit_flip"] <= looser["escape_bit_flip"] + 1e-12
        assert tighter["escape_bound_edge"] <= looser["escape_bound_edge"] + 1e-12
