"""Protocol roles: user, proposer (honest and adversarial), challenger, committee.

The roles encapsulate *who computes what on which device*:

* the **proposer** executes the committed graph on its own device, records the
  intermediate trace, and posts the execution commitment; an adversarial
  proposer additionally injects perturbations into chosen intermediate
  tensors (the attack surface of Sec. 4);
* the **challenger** re-executes on its own device, raises disputes when the
  final outputs exceed the committed thresholds, and drives the selection
  rule during the dispute game, accumulating the FLOPs that define the
  paper's DCR metric;
* **committee members** re-execute a single operator at the leaf and vote
  against the empirical thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.calibration.thresholds import ExceedanceReport, ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.interpreter import ExecutionTrace, Interpreter
from repro.graph.subgraph import SubgraphSlice
from repro.merkle.cache import HashCache
from repro.merkle.commitments import (
    ExecutionCommitment,
    ModelCommitment,
    SubgraphRecord,
    hash_tensor,
    make_execution_commitment,
    make_subgraph_record,
    verify_subgraph_record,
)
from repro.tensorlib.device import DeviceProfile
from repro.utils.timing import Stopwatch

PerturbationSpec = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass
class User:
    """Submits inference requests and pays the service fee."""

    name: str
    fee_per_request: float = 10.0


@dataclass
class ProposedResult:
    """Everything the proposer produces for one request.

    The commitment goes on chain; the trace values are the off-chain data the
    challenger pulls during a dispute (bound to the chain by interface
    hashes inside subgraph records).
    """

    model_name: str
    inputs: Dict[str, np.ndarray]
    outputs: Tuple[np.ndarray, ...]
    output_names: Tuple[str, ...]
    trace_values: Dict[str, np.ndarray]
    commitment: ExecutionCommitment
    forward_flops: float
    wall_time_s: float
    device_name: str


class Proposer:
    """Base proposer: executes the model and commits to the result.

    ``hash_cache`` (optional) memoizes tensor digests across this proposer's
    commitments and dispute records; sharing one cache between the parties a
    service hosts halves the hashing work of a dispute (the challenger's
    record verification re-hashes the very tensors the proposer committed).
    """

    def __init__(self, name: str, device: DeviceProfile,
                 hash_cache: Optional[HashCache] = None) -> None:
        self.name = name
        self.device = device
        self.interpreter = Interpreter(device)
        self.stopwatch = Stopwatch()
        self.hash_cache = hash_cache

    # -- liveness hook ---------------------------------------------------

    def move_delay_s(self, round_index: int) -> float:
        """Seconds this proposer stalls before its next dispute move.

        The dispute game advances chain time by this amount before the
        partition of ``round_index`` is posted; a delay at or beyond the
        coordinator's round timeout forfeits the dispute.  Honest proposers
        respond immediately; the protocol simulator's faulty actors override
        this to model dropped or late moves.
        """
        return 0.0

    # -- execution -------------------------------------------------------

    def _overrides_for(self, graph_module: GraphModule,
                       inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Hook for adversarial subclasses; honest proposers never override."""
        return {}

    def trace(self, graph_module: GraphModule,
              inputs: Mapping[str, np.ndarray]) -> ExecutionTrace:
        """Run the graph on this proposer's device: the trace it commits to."""
        overrides = self._overrides_for(graph_module, inputs)
        return self.interpreter.run(
            graph_module, dict(inputs), record=True, count_flops=True, overrides=overrides
        )

    def execute(self, graph_module: GraphModule, model_commitment: ModelCommitment,
                inputs: Mapping[str, np.ndarray]) -> ProposedResult:
        return self.commit(graph_module, model_commitment, inputs,
                           self.trace(graph_module, inputs))

    def commit(self, graph_module: GraphModule, model_commitment: ModelCommitment,
               inputs: Mapping[str, np.ndarray], trace: ExecutionTrace) -> ProposedResult:
        """Commit to ``trace`` as this proposer's execution of ``inputs``.

        The one builder of the Phase 1 commitment ``C0 = (H(x), H(y), meta)``;
        :meth:`execute` is :meth:`trace` followed by this call.
        """
        commitment = make_execution_commitment(
            model_commitment, dict(inputs), list(trace.outputs),
            meta={
                "device": self.device.name,
                "dtype": "float32",
                "proposer": self.name,
                "kernel_stack": self.device.signature(),
            },
            cache=self.hash_cache,
        )
        return ProposedResult(
            model_name=graph_module.name,
            inputs=dict(inputs),
            outputs=trace.outputs,
            output_names=trace.output_names,
            trace_values=dict(trace.values),
            commitment=commitment,
            forward_flops=trace.flops.total,
            wall_time_s=trace.wall_time_s,
            device_name=self.device.name,
        )

    # -- dispute participation -------------------------------------------

    def partition(
        self,
        graph_module: GraphModule,
        model_commitment: ModelCommitment,
        result: ProposedResult,
        slice_: SubgraphSlice,
        n_way: int,
    ) -> List[SubgraphRecord]:
        """Deterministic N-way partition of the disputed slice (Sec. 5.3)."""
        with self.stopwatch.measure("proposer_partition"):
            children = slice_.split(n_way)
            records = [
                make_subgraph_record(graph_module, model_commitment, child,
                                     result.trace_values, cache=self.hash_cache)
                for child in children
            ]
        return records


class HonestProposer(Proposer):
    """Executes the committed model faithfully on its device."""


class AdversarialProposer(Proposer):
    """A proposer that injects perturbations into chosen intermediate tensors.

    ``perturbations`` maps operator node names to either an additive delta
    array (matching the node's output shape) or a callable mapping the honest
    output to the perturbed output.  Downstream operators consume the
    perturbed values, so the committed trace is self-consistent — the cheat
    is only detectable by comparing against an independent re-execution,
    exactly the paper's threat model.
    """

    def __init__(self, name: str, device: DeviceProfile,
                 perturbations: Optional[Dict[str, PerturbationSpec]] = None,
                 hash_cache: Optional[HashCache] = None) -> None:
        super().__init__(name, device, hash_cache=hash_cache)
        self.perturbations: Dict[str, PerturbationSpec] = dict(perturbations or {})

    def set_perturbation(self, node_name: str, spec: PerturbationSpec) -> None:
        self.perturbations[node_name] = spec

    def clear_perturbations(self) -> None:
        self.perturbations.clear()

    def _overrides_for(self, graph_module: GraphModule,
                       inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        if not self.perturbations:
            return {}
        # Run honestly first to know each node's honest value, then apply the
        # perturbation spec on top.  (A real adversary does the same thing:
        # compute, then tamper.)
        honest = self.interpreter.run(graph_module, dict(inputs), record=True)
        overrides: Dict[str, np.ndarray] = {}
        for node_name, spec in self.perturbations.items():
            if node_name not in honest.values:
                raise KeyError(f"cannot perturb unknown node {node_name!r}")
            base = np.asarray(honest.values[node_name], dtype=np.float32)
            if callable(spec):
                overrides[node_name] = np.asarray(spec(base), dtype=np.float32)
            else:
                overrides[node_name] = (base + np.asarray(spec, dtype=np.float32)).astype(np.float32)
        return overrides


@dataclass
class SelectionOutcome:
    """Result of the challenger's selection rule for one dispute round."""

    selected_index: Optional[int]
    reports: List[ExceedanceReport]
    merkle_checks: int
    flops: float
    all_valid: bool


class Challenger:
    """Re-executes results and drives dispute localization.

    ``committee_envelope`` (optional, a
    :class:`~repro.calibration.committee.CommitteeEnvelopeProfile`) is the
    committed single-operator acceptance envelope of the committee leaf.
    When present it *floors* the thresholds the selection rule applies to
    child slices: a slice re-executed from agreed live-ins accumulates at
    least one operator's worth of single-op cross-device spread, so a
    committed full-trace threshold below the leaf envelope (the
    zero-calibrated low percentiles of bit-deterministic kernels) can only
    select honest children — the false selections behind the ROADMAP's
    committee-leaf defect seeds.  Phase 1 output verification keeps the raw
    committed table: final outputs carry full-trace accumulated error, which
    is exactly what that table calibrates.
    """

    def __init__(self, name: str, device: DeviceProfile,
                 threshold_table: ThresholdTable,
                 hash_cache: Optional[HashCache] = None,
                 committee_envelope=None) -> None:
        self.name = name
        self.device = device
        self.thresholds = threshold_table
        self.committee_envelope = committee_envelope
        self.interpreter = Interpreter(device)
        self.stopwatch = Stopwatch()
        self.hash_cache = hash_cache
        self.dispute_flops = 0.0
        self.merkle_checks = 0

    def reset_accounting(self) -> None:
        self.dispute_flops = 0.0
        self.merkle_checks = 0
        self.stopwatch = Stopwatch()

    def move_delay_s(self, round_index: int) -> float:
        """Seconds this challenger stalls before its next dispute move.

        Mirrors :meth:`Proposer.move_delay_s`: the dispute game advances
        chain time by this amount before the selection of ``round_index`` is
        posted, and a delay at or beyond the round timeout forfeits the
        dispute.  Honest challengers respond immediately.
        """
        return 0.0

    # -- input binding (Phase 2 entry) -------------------------------------

    def verify_input_binding(self, result: ProposedResult) -> Tuple[bool, int]:
        """Check that the committed trace extends the committed input ``H(x)``.

        The execution commitment binds the request payload on chain, and the
        selection rule treats the trace's placeholder values as implicitly
        agreed — so before playing any round the challenger must confirm the
        two coincide.  A mismatch (a stale or substituted trace replayed
        against a fresh request) is objectively provable fraud: the
        challenger posts the hash pair via
        :meth:`~repro.protocol.coordinator.Coordinator.post_input_binding_fraud`
        instead of playing the localization game.

        Returns ``(bound, hash_checks)``.
        """
        checks = 0
        for name in sorted(result.inputs):
            checks += 1
            claimed = result.trace_values.get(name)
            if claimed is None:
                return False, checks
            committed = hash_tensor(np.asarray(result.inputs[name]), self.hash_cache)
            if hash_tensor(np.asarray(claimed), self.hash_cache) != committed:
                return False, checks
        return True, checks

    # -- Phase 1 verification --------------------------------------------

    def verify_result(self, graph_module: GraphModule, result: ProposedResult,
                      ) -> Tuple[bool, List[ExceedanceReport]]:
        """Re-execute the request and check the final outputs against thresholds.

        Returns ``(honest_looking, reports)`` where ``honest_looking`` is True
        when no output operator exceeds its committed threshold.
        """
        trace = self.interpreter.run(graph_module, result.inputs, record=True,
                                     count_flops=True)
        self.dispute_flops += trace.flops.total
        reports: List[ExceedanceReport] = []
        for name, proposed in zip(result.output_names, result.outputs):
            if not self.thresholds.has_operator(name):
                continue
            reports.append(self.thresholds.check(name, proposed, trace.values[name]))
        return (not any(r.exceeded for r in reports)), reports

    # -- Phase 2 selection rule --------------------------------------------

    def select_offending(
        self,
        graph_module: GraphModule,
        model_commitment: ModelCommitment,
        records: Sequence[SubgraphRecord],
    ) -> SelectionOutcome:
        """Identify the first offending child (Eq. 15) in topological order.

        For each child in order the challenger (1) verifies the Merkle record,
        (2) re-executes the child slice of the committed graph from the
        proposer's claimed live-in tensors on its own device, and (3) compares the proposer's claimed
        live-out tensors against its own via the committed percentile
        thresholds.  The first child with an exceedance is selected; earlier
        children (and hence the selected child's inputs) are implicitly agreed.
        """
        reports: List[ExceedanceReport] = []
        merkle_checks = 0
        flops = 0.0
        selected: Optional[int] = None
        all_valid = True
        with self.stopwatch.measure("challenger_selection"):
            for index, record in enumerate(records):
                valid, checks = verify_subgraph_record(record, model_commitment,
                                                       cache=self.hash_cache)
                merkle_checks += checks
                if not valid:
                    # A malformed record is itself fraud: select it immediately.
                    all_valid = False
                    selected = index
                    break
                local = self.interpreter.run(
                    graph_module, record.live_in_values, record=True,
                    count_flops=True, slice_=record.slice,
                )
                flops += local.flops.total
                checker = self._slice_checker(graph_module, record)
                offending = False
                for name in record.live_out_names:
                    if not checker.has_operator(name):
                        continue
                    report = checker.check(
                        name, record.live_out_values[name], local.values[name]
                    )
                    reports.append(report)
                    if report.exceeded:
                        offending = True
                if offending and selected is None:
                    selected = index
                    break
        self.dispute_flops += flops
        self.merkle_checks += merkle_checks
        return SelectionOutcome(
            selected_index=selected,
            reports=reports,
            merkle_checks=merkle_checks,
            flops=flops,
            all_valid=all_valid,
        )

    def _slice_checker(self, graph_module: GraphModule, record: SubgraphRecord):
        """The thresholds one child slice's live-out check consults.

        Without a committee envelope: the committed table (reference
        behaviour).  With one: the committed table floored *slice-aware* —
        the honest spread at a slice boundary is generated by whichever
        operator inside the slice diverges most across devices, so every
        boundary entry is raised to at least that operator's single-op
        envelope.
        """
        if self.committee_envelope is None:
            return self.thresholds
        slice_ops = [
            node.name for node in
            graph_module.graph.operators[record.slice_start:record.slice_end]
        ]
        return self.committee_envelope.floor(self.thresholds, slice_ops)


@dataclass
class CommitteeVoteRecord:
    member: str
    within_threshold: bool
    report: Optional[ExceedanceReport]


class CommitteeMember:
    """A sampled adjudicator that re-executes one operator and votes."""

    def __init__(self, name: str, device: DeviceProfile) -> None:
        self.name = name
        self.device = device
        self.interpreter = Interpreter(device)

    def vote(
        self,
        graph_module: GraphModule,
        operator_name: str,
        operand_values: Sequence[np.ndarray],
        proposer_output: np.ndarray,
        thresholds: ThresholdTable,
        committee_envelope=None,
    ) -> CommitteeVoteRecord:
        """Re-execute the operator and vote on the proposer's claim.

        With a committed ``committee_envelope`` that calibrates this
        operator, the vote applies the single-op acceptance envelope (what
        the member's re-execution actually measures); otherwise it falls
        back to the full-trace threshold table — the reference tolerance.
        """
        reference = self.interpreter.run_single_operator(
            graph_module, operator_name, operand_values
        )
        checker = thresholds
        if committee_envelope is not None and \
                committee_envelope.has_operator(operator_name):
            checker = committee_envelope
        if not checker.has_operator(operator_name):
            # Without any calibrated envelope the member abstains in favour
            # of the proposer (cannot establish fraud).
            return CommitteeVoteRecord(self.name, True, None)
        report = checker.check(operator_name, proposer_output, reference)
        return CommitteeVoteRecord(self.name, not report.exceeded, report)
