"""Empirical error percentile calibration (paper Sec. 3.2, Appendix B).

Offline, the model owner runs a representative input set on every device in
the fleet, forms element-wise absolute/relative errors between each pair of
devices for every operator, reduces each error tensor to a percentile-value
vector over the grid ``P = {0, 1, 5, 10, ..., 90, 95, 99, 100}`` (all pairs of
one input and operator in one sorted pass, :func:`percentile_profiles`), and
takes a max-envelope across device pairs and inputs.  Multiplying the envelope by a
safety factor ``alpha = 3`` yields the committed per-operator thresholds that
(i) guide the dispute game's selection rule and (ii) back the committee vote
at the leaf.

:mod:`repro.calibration.stability` implements the Appendix-B diagnostics
(SupNorm, Jackknife, TailAdj, RollSD) that validate the profiles are stable
in the number of calibration samples (Table 1).

:mod:`repro.calibration.committee` calibrates the committee leaf's own
single-operator acceptance envelope (proposer trace output vs. member
re-execution per device pair), committed alongside the threshold root so the
leaf's decision rule is pinned on chain — see ``docs/protocol.md``.
"""

from repro.calibration.committee import (
    CommitteeEnvelopeConfig,
    CommitteeEnvelopeProfile,
    calibrate_committee_envelope,
)

from repro.calibration.profiles import (
    PERCENTILE_GRID,
    OperatorCalibration,
    PercentileProfile,
    percentile_profile,
    percentile_profiles,
)
from repro.calibration.calibrator import CalibrationConfig, CalibrationResult, Calibrator
from repro.calibration.thresholds import ExceedanceReport, ThresholdTable
from repro.calibration.onboarding import (
    DriftReport,
    OnboardingResult,
    detect_configuration_drift,
    onboard_device,
)
from repro.calibration.stability import (
    StabilitySummary,
    jackknife_influence,
    rolling_sd,
    running_median,
    stability_summary,
    sup_norm_drift,
    symmetric_relative_change,
    tail_adjustment,
)

__all__ = [
    "PERCENTILE_GRID",
    "CommitteeEnvelopeConfig",
    "CommitteeEnvelopeProfile",
    "calibrate_committee_envelope",
    "OperatorCalibration",
    "PercentileProfile",
    "percentile_profile",
    "percentile_profiles",
    "CalibrationConfig",
    "CalibrationResult",
    "Calibrator",
    "ExceedanceReport",
    "ThresholdTable",
    "DriftReport",
    "OnboardingResult",
    "detect_configuration_drift",
    "onboard_device",
    "StabilitySummary",
    "jackknife_influence",
    "rolling_sd",
    "running_median",
    "stability_summary",
    "sup_norm_drift",
    "symmetric_relative_change",
    "tail_adjustment",
]
