"""Committee-leaf acceptance-envelope calibration.

The committed :class:`~repro.calibration.thresholds.ThresholdTable` is
calibrated on *full-trace* cross-device divergence: the error observed at an
operator includes everything accumulated through the whole prefix of the
graph.  The dispute leaf compares something different — a **single operator
re-executed from agreed operand values** — whose honest spread is orders of
magnitude tighter deep in a graph (the accumulated envelope lets tampers
survive the vote) and whose low-percentile entries legitimately sit at exact
zero for bit-deterministic kernels (the ``1e-12`` floor clamp then flags
honest cross-device noise).  Both failure modes were observed in the wild at
rare simulator seeds (ROADMAP: seed 3001 honest slash, seeds 3000/3201
escapes).

:func:`calibrate_committee_envelope` calibrates the leaf's own acceptance
envelope: for every operator, every calibration input, and every ordered
device pair *(proposer device j, committee device k)*, the proposer's traced
output is compared against a single-operator re-execution on the member's
device from the proposer's own operand values — exactly the comparison a
:class:`~repro.protocol.roles.CommitteeMember` performs at the leaf.  The
element-wise errors of all pairs reduce to percentile profiles in one sorted
pass per (sample, operator)
(:func:`~repro.calibration.profiles.max_over_pairs`), the per-sample max over
pairs forms the stability series analysed with the Appendix-B diagnostics
(:mod:`~repro.calibration.stability`), and the across-sample aggregation at
``envelope_percentile`` scaled by ``safety_factor`` becomes the
:class:`CommitteeEnvelopeProfile` — committed on chain next to the threshold
root (``r_c`` alongside ``r_e``) so the committee's decision rule cannot
change mid-dispute.

The profile *is* a :class:`~repro.calibration.thresholds.ThresholdTable`
(same grid, same Eq. 15 check, same commitment payload shape), so committee
members consume it through the identical code path; :meth:`floor` addition-
ally merges it under a committed table to give the challenger's selection
rule a credible noise floor (a slice re-executed from agreed inputs
accumulates at least one operator's worth of single-op spread, so a slice
threshold below the leaf envelope can only produce false selections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.calibration.profiles import (
    PERCENTILE_GRID,
    PercentileProfile,
    max_over_pairs,
    non_finite_errors,
    percentile_profile,
)
from repro.calibration.stability import DEFAULT_WINDOW, sup_norm_drift
from repro.calibration.thresholds import ThresholdTable
from repro.graph.graph import GraphModule
from repro.graph.interpreter import Interpreter
from repro.graph.node import Node
from repro.tensorlib.device import DEVICE_FLEET, DeviceProfile
from repro.utils.serialization import canonical_bytes

#: Default safety factor applied to the calibrated leaf envelope; matches the
#: threshold table's Eq. 7 convention.
DEFAULT_COMMITTEE_SAFETY_FACTOR = 3.0

#: Default relative-error denominator floor, as a fraction of the claimed
#: tensor's max magnitude.  The Eq. 2 statistic divides by ``|a| + eps`` with
#: a vanishing eps, so elements crossing zero blow the relative tail up by
#: orders of magnitude between inputs — the max-over-samples envelope then
#: cannot bound fresh-input tails, which is precisely the rare-seed committee
#: false-verdict mechanism.  Flooring the denominator at a fraction of the
#: tensor scale makes the leaf's relative tail as stable as its absolute one
#: while keeping full sensitivity on every element of consequential size.
DEFAULT_REL_SCALE_FLOOR = 1e-3


def leaf_elementwise_errors(
    proposed: np.ndarray,
    reference: np.ndarray,
    rel_scale_floor: float = DEFAULT_REL_SCALE_FLOOR,
    epsilon: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray]:
    """Element-wise absolute and scale-floored relative leaf errors.

    The denominator of the relative error is ``max(|proposed|,
    rel_scale_floor * max|proposed|)`` — near-zero elements are measured
    against the tensor's own magnitude scale instead of their vanishing
    selves; the scale is the largest *finite* claimed magnitude, and
    non-finite elements follow
    :func:`~repro.calibration.profiles.non_finite_errors`.  Calibration and
    the committee check share this one statistic.
    """
    a64 = np.asarray(proposed, dtype=np.float64)
    b64 = np.asarray(reference, dtype=np.float64)
    magnitude = np.abs(a64)
    peak = float(np.max(magnitude)) if a64.size else 0.0
    if not np.isfinite(peak):
        finite = magnitude[np.isfinite(magnitude)]
        peak = float(np.max(finite)) if finite.size else 0.0
    with np.errstate(invalid="ignore"):
        abs_err = np.abs(a64 - b64)
        rel_err = abs_err / np.maximum(magnitude, max(rel_scale_floor * peak, epsilon))
    return non_finite_errors(a64, b64, abs_err, rel_err)


@dataclass(frozen=True)
class CommitteeEnvelopeConfig:
    """Knobs of the committee-leaf calibration pass."""

    devices: Tuple[DeviceProfile, ...] = DEVICE_FLEET
    percentile_grid: Tuple[float, ...] = PERCENTILE_GRID
    #: Across-sample aggregation per grid point: 100 takes the max envelope
    #: (the default, mirroring Eqs. 5-6); lower values trade false-slash
    #: head-room for escape detection — the axis the committee-envelope
    #: benchmark sweeps.
    envelope_percentile: float = 100.0
    safety_factor: float = DEFAULT_COMMITTEE_SAFETY_FACTOR
    #: Relative-error denominator floor (fraction of the claimed tensor's max
    #: magnitude); shared between calibration and the committed check.
    rel_scale_floor: float = DEFAULT_REL_SCALE_FLOOR
    relative_epsilon: float = 1e-12
    #: Skip operators that produce integer outputs (argmax, index tensors):
    #: any cross-device difference there is fraud, not tolerance.
    skip_integer_outputs: bool = True
    #: Window of the Appendix-B stability diagnostics recorded per operator.
    stability_window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if len(self.devices) < 2:
            raise ValueError("committee calibration requires at least two devices")
        if not 0.0 < self.envelope_percentile <= 100.0:
            raise ValueError("envelope_percentile must lie in (0, 100]")
        if self.safety_factor <= 0:
            raise ValueError("safety_factor must be positive")
        if not 0.0 <= self.rel_scale_floor < 1.0:
            raise ValueError("rel_scale_floor must lie in [0, 1)")


@dataclass
class CommitteeEnvelopeProfile(ThresholdTable):
    """Per-operator single-op acceptance envelope for the committee leaf.

    Structurally a :class:`~repro.calibration.thresholds.ThresholdTable`
    (``alpha`` holds the safety factor), extended with the calibration
    provenance the commitment payload records and the stability diagnostics
    of the per-sample envelope series.
    """

    envelope_percentile: float = 100.0
    rel_scale_floor: float = DEFAULT_REL_SCALE_FLOOR
    num_samples: int = 0
    num_pairs: int = 0
    #: Per-operator SupNorm drift (D1) of the top-percentile sample series —
    #: the short-horizon stability evidence for the committed envelope.
    stability: Dict[str, float] = field(default_factory=dict)

    def check(self, node_name: str, proposed: np.ndarray, reference: np.ndarray,
              epsilon: float = 1e-12):
        """The committee's Eq. 15 check under the committed leaf statistic.

        Identical ratio semantics to the base table, but the observed errors
        use :func:`leaf_elementwise_errors` — the same scale-floored
        relative statistic the envelope was calibrated with.
        """
        if not self.has_operator(node_name):
            raise KeyError(f"no committee envelope calibrated for operator {node_name!r}")
        abs_err, rel_err = leaf_elementwise_errors(
            proposed, reference, self.rel_scale_floor, epsilon
        )
        observed_abs = percentile_profile(abs_err, self.grid)
        observed_rel = percentile_profile(rel_err, self.grid)
        return self._ratio_report(node_name, observed_abs, observed_rel)

    def scaled(self, factor: float) -> "CommitteeEnvelopeProfile":
        """A copy with every envelope value multiplied by ``factor``.

        Mirrors :meth:`ThresholdTable.scaled` but preserves the leaf
        statistic and provenance — the simulator's broken-commitment canary
        scales table and envelope together, so a deliberately zeroed
        protocol stays detectably broken under the calibrated leaf too.
        """
        scaled = CommitteeEnvelopeProfile(
            model_name=self.model_name,
            alpha=self.alpha * factor,
            grid=self.grid,
            op_types=dict(self.op_types),
            envelope_percentile=self.envelope_percentile,
            rel_scale_floor=self.rel_scale_floor,
            num_samples=self.num_samples,
            num_pairs=self.num_pairs,
            stability=dict(self.stability),
        )
        scaled.abs_thresholds = {k: factor * v for k, v in self.abs_thresholds.items()}
        scaled.rel_thresholds = {k: factor * v for k, v in self.rel_thresholds.items()}
        return scaled

    def floor(self, table: ThresholdTable,
              slice_ops: Optional[Sequence[str]] = None) -> "CommitteeEnvelopeProfile":
        """Merge this envelope *under* a committed threshold table.

        Returns a checker whose per-operator thresholds are the element-wise
        maximum of the committed values and the leaf envelope, evaluated
        under the leaf statistic.  The challenger's selection rule consults
        it: a slice re-executed from agreed live-ins accumulates at least one
        operator's worth of single-op cross-device spread, so committed
        entries below the envelope (zero-calibrated low percentiles of
        full-trace error) cannot be credible evidence of fraud at a cut
        point — and the scale-floored relative statistic keeps the unstable
        near-zero tail from selecting honest children.

        With ``slice_ops`` (the operator names of the disputed slice) every
        merged entry is additionally floored by the *noisiest* envelope
        inside the slice: the honest spread observed at a slice boundary is
        generated by whichever operator in the slice diverges most across
        devices, not necessarily by the (possibly bit-deterministic)
        boundary operator itself.
        """
        if tuple(table.grid) != tuple(self.grid):
            raise ValueError("cannot floor a table over a different percentile grid")
        n = len(self.grid)
        slice_abs = np.zeros(n, dtype=np.float64)
        slice_rel = np.zeros(n, dtype=np.float64)
        if slice_ops is not None:
            for name in slice_ops:
                if self.has_operator(name):
                    slice_abs = np.maximum(slice_abs, self.abs_thresholds[name])
                    slice_rel = np.maximum(slice_rel, self.rel_thresholds[name])
        floored = CommitteeEnvelopeProfile(
            model_name=table.model_name,
            alpha=table.alpha,
            grid=table.grid,
            op_types=dict(table.op_types),
            envelope_percentile=self.envelope_percentile,
            rel_scale_floor=self.rel_scale_floor,
            num_samples=self.num_samples,
            num_pairs=self.num_pairs,
        )
        for name in table.abs_thresholds:
            abs_tau = np.asarray(table.abs_thresholds[name], dtype=np.float64)
            rel_tau = np.asarray(table.rel_thresholds[name], dtype=np.float64)
            if self.has_operator(name):
                abs_tau = np.maximum(abs_tau, self.abs_thresholds[name])
                rel_tau = np.maximum(rel_tau, self.rel_thresholds[name])
            floored.abs_thresholds[name] = np.maximum(abs_tau, slice_abs)
            floored.rel_thresholds[name] = np.maximum(rel_tau, slice_rel)
        return floored

    # ------------------------------------------------------------------
    # Commitment payload / serialization (extends the table's with provenance)
    # ------------------------------------------------------------------

    def leaf_payloads(self) -> Dict[str, bytes]:
        """Canonical per-operator payloads merkleized into the root ``r_c``."""
        payloads: Dict[str, bytes] = {}
        for name in self.operator_names():
            payloads[name] = canonical_bytes({
                "node": name,
                "op_type": self.op_types.get(name, ""),
                "safety_factor": self.alpha,
                "envelope_percentile": self.envelope_percentile,
                "rel_scale_floor": self.rel_scale_floor,
                "grid": list(self.grid),
                "abs": self.abs_thresholds[name],
                "rel": self.rel_thresholds[name],
            })
        return payloads

    def to_dict(self) -> Dict[str, object]:
        payload = super().to_dict()
        payload.update({
            "envelope_percentile": self.envelope_percentile,
            "rel_scale_floor": self.rel_scale_floor,
            "num_samples": self.num_samples,
            "num_pairs": self.num_pairs,
            "stability": dict(self.stability),
        })
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CommitteeEnvelopeProfile":
        profile = cls(
            model_name=str(payload["model_name"]),
            alpha=float(payload["alpha"]),
            grid=tuple(payload["grid"]),
            envelope_percentile=float(payload.get("envelope_percentile", 100.0)),
            rel_scale_floor=float(payload.get("rel_scale_floor",
                                              DEFAULT_REL_SCALE_FLOOR)),
            num_samples=int(payload.get("num_samples", 0)),
            num_pairs=int(payload.get("num_pairs", 0)),
            stability={k: float(v)
                       for k, v in dict(payload.get("stability", {})).items()},
        )
        for name, entry in dict(payload["operators"]).items():
            profile.abs_thresholds[name] = np.asarray(entry["abs"], dtype=np.float64)
            profile.rel_thresholds[name] = np.asarray(entry["rel"], dtype=np.float64)
            profile.op_types[name] = str(entry.get("op_type", ""))
        return profile


def leaf_operands(graph_module: GraphModule, node: Node,
                  trace_values: Dict[str, np.ndarray]) -> List[np.ndarray]:
    """Resolve one operator's operand tensors the way the dispute leaf does.

    Parameters and constants come from the *committed* model (a proposer
    cannot substitute them at the leaf — they are Merkle-bound), everything
    else from the supplied trace (upstream values are implicitly agreed by
    the selection rule).
    """
    operands: List[np.ndarray] = []
    for arg in node.args:
        if isinstance(arg, Node):
            if arg.op == "get_param":
                operands.append(np.asarray(graph_module.parameters[arg.target]))
            elif arg.op == "constant":
                operands.append(np.asarray(graph_module.graph.constants[arg.target]))
            else:
                operands.append(np.asarray(trace_values[arg.name]))
        else:
            operands.append(arg)
    return operands


def calibrate_committee_envelope(
    graph_module: GraphModule,
    dataset: Iterable[Dict[str, np.ndarray]],
    config: Optional[CommitteeEnvelopeConfig] = None,
) -> CommitteeEnvelopeProfile:
    """Calibrate the committee leaf's per-operator acceptance envelope.

    For every calibration input the traced model runs on each fleet device
    (the proposer candidates); for every operator and ordered pair
    *(proposer device, member device)* the proposer's traced output is
    compared against a single-operator re-execution from the proposer's own
    operands on the member's device.  Per-sample profiles (max over pairs)
    aggregate across samples at ``config.envelope_percentile`` per grid
    point and scale by ``config.safety_factor``.
    """
    config = config or CommitteeEnvelopeConfig()
    operators = list(graph_module.graph.operators)
    interpreters = [Interpreter(device) for device in config.devices]

    per_sample: Dict[str, List[PercentileProfile]] = {
        node.name: [] for node in operators
    }
    op_types = {node.name: node.target for node in operators}
    num_samples = 0

    for sample in dataset:
        num_samples += 1
        traces = [
            interp.run(graph_module, dict(sample), record=True)
            for interp in interpreters
        ]
        for node in operators:
            abs_rows: List[np.ndarray] = []
            rel_rows: List[np.ndarray] = []
            for j, trace in enumerate(traces):
                proposed = np.asarray(trace.values[node.name])
                if config.skip_integer_outputs and proposed.dtype.kind in "iub":
                    continue
                operands = leaf_operands(graph_module, node, trace.values)
                for k, member in enumerate(interpreters):
                    if k == j:
                        continue
                    reference = member.run_single_operator(
                        graph_module, node.name, operands
                    )
                    abs_err, rel_err = leaf_elementwise_errors(
                        proposed, reference, config.rel_scale_floor,
                        config.relative_epsilon,
                    )
                    # Cover both normalization directions, as the threshold
                    # calibrator does: the leaf check normalizes by the
                    # proposer's claim, but the committed envelope must hold
                    # whichever side a checker divides by.
                    _, rel_err_rev = leaf_elementwise_errors(
                        reference, proposed, config.rel_scale_floor,
                        config.relative_epsilon,
                    )
                    abs_rows.append(abs_err)
                    rel_rows.append(np.maximum(rel_err, rel_err_rev))
            if abs_rows:
                per_sample[node.name].append(
                    max_over_pairs(abs_rows, rel_rows, config.percentile_grid))

    n_devices = len(config.devices)
    profile = CommitteeEnvelopeProfile(
        model_name=graph_module.name,
        alpha=float(config.safety_factor),
        grid=tuple(config.percentile_grid),
        envelope_percentile=float(config.envelope_percentile),
        rel_scale_floor=float(config.rel_scale_floor),
        num_samples=num_samples,
        num_pairs=n_devices * (n_devices - 1),
    )
    for node in operators:
        profiles = per_sample[node.name]
        if not profiles:
            continue
        abs_stack = np.stack([p.abs_values for p in profiles])
        rel_stack = np.stack([p.rel_values for p in profiles])
        q = config.envelope_percentile
        profile.abs_thresholds[node.name] = (
            config.safety_factor * np.percentile(abs_stack, q, axis=0)
        )
        profile.rel_thresholds[node.name] = (
            config.safety_factor * np.percentile(rel_stack, q, axis=0)
        )
        profile.op_types[node.name] = op_types[node.name]
        # Top-percentile per-sample series: the Appendix-B D1 diagnostic on
        # the quantity the committed envelope actually pins.
        profile.stability[node.name] = sup_norm_drift(
            abs_stack[:, -1], window=config.stability_window
        )
    return profile
