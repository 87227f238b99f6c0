"""Unit and property tests for percentile profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration.profiles import (
    PERCENTILE_GRID,
    OperatorCalibration,
    PercentileProfile,
    elementwise_errors,
    percentile_profile,
    percentile_profiles,
)


def test_percentile_grid_matches_paper():
    assert PERCENTILE_GRID[0] == 0.0
    assert PERCENTILE_GRID[1] == 1.0
    assert PERCENTILE_GRID[-1] == 100.0
    assert 99.0 in PERCENTILE_GRID
    assert 50.0 in PERCENTILE_GRID
    assert list(PERCENTILE_GRID) == sorted(PERCENTILE_GRID)


def test_percentile_profile_is_monotone(rng):
    errors = np.abs(rng.standard_normal(1000))
    profile = percentile_profile(errors)
    assert (np.diff(profile) >= -1e-15).all()
    assert profile[0] == pytest.approx(errors.min())
    assert profile[-1] == pytest.approx(errors.max())


def test_percentile_profile_empty_input():
    assert (percentile_profile(np.array([])) == 0).all()


def test_elementwise_errors(rng):
    a = rng.standard_normal((4, 4))
    b = a + 1e-3
    abs_err, rel_err = elementwise_errors(a, b)
    assert np.allclose(abs_err, 1e-3, atol=1e-9)
    assert (rel_err >= 0).all()
    # Relative error uses |a| in the denominator (Eq. 2).
    assert np.allclose(rel_err, abs_err / (np.abs(a) + 1e-12))


def test_profile_from_errors_and_value_at(rng):
    abs_err = np.abs(rng.standard_normal(512))
    rel_err = np.abs(rng.standard_normal(512)) * 0.1
    profile = PercentileProfile.from_errors(abs_err, rel_err)
    assert profile.value_at(100.0, "abs") == pytest.approx(abs_err.max())
    assert profile.value_at(0.0, "rel") == pytest.approx(rel_err.min())
    with pytest.raises(KeyError):
        profile.value_at(37.0)


def test_profile_shape_validation():
    with pytest.raises(ValueError):
        PercentileProfile(PERCENTILE_GRID, np.zeros(3), np.zeros(len(PERCENTILE_GRID)))


def test_max_envelope_is_pointwise_max(rng):
    a = PercentileProfile.from_errors(np.abs(rng.standard_normal(256)),
                                      np.abs(rng.standard_normal(256)))
    b = PercentileProfile.from_errors(np.abs(rng.standard_normal(256)),
                                      np.abs(rng.standard_normal(256)))
    envelope = a.max_with(b)
    assert (envelope.abs_values >= a.abs_values).all()
    assert (envelope.abs_values >= b.abs_values).all()
    assert (envelope.abs_values == np.maximum(a.abs_values, b.abs_values)).all()


def test_max_envelope_rejects_mismatched_grids(rng):
    a = PercentileProfile.from_errors(np.abs(rng.standard_normal(16)),
                                      np.abs(rng.standard_normal(16)))
    b = PercentileProfile(grid=(0.0, 50.0, 100.0), abs_values=np.zeros(3), rel_values=np.zeros(3))
    with pytest.raises(ValueError):
        a.max_with(b)


def test_scaled_profile(rng):
    profile = PercentileProfile.from_errors(np.abs(rng.standard_normal(64)),
                                            np.abs(rng.standard_normal(64)))
    tripled = profile.scaled(3.0)
    assert np.allclose(tripled.abs_values, 3.0 * profile.abs_values)
    assert np.allclose(tripled.rel_values, 3.0 * profile.rel_values)


def test_profile_dict_roundtrip(rng):
    profile = PercentileProfile.from_errors(np.abs(rng.standard_normal(64)),
                                            np.abs(rng.standard_normal(64)))
    restored = PercentileProfile.from_dict(profile.to_dict())
    assert np.allclose(restored.abs_values, profile.abs_values)
    assert restored.grid == profile.grid


def test_operator_calibration_sample_series(rng):
    profiles = [
        PercentileProfile.from_errors(np.abs(rng.standard_normal(64)) * (i + 1),
                                      np.abs(rng.standard_normal(64)))
        for i in range(5)
    ]
    envelope = profiles[0]
    for p in profiles[1:]:
        envelope = envelope.max_with(p)
    calib = OperatorCalibration(
        node_name="linear", op_type="linear", position=3, envelope=envelope,
        per_sample_profiles=profiles, mean_abs_error=0.1, num_pairs=6, num_samples=5,
    )
    series = calib.sample_series(50.0, "abs")
    assert series.shape == (5,)
    assert calib.to_dict()["position"] == 3


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(0, 1e3), min_size=1, max_size=400))
def test_percentile_profile_bounds_contain_all_grid_values(values):
    errors = np.asarray(values, dtype=np.float64)
    profile = percentile_profile(errors)
    assert profile[0] <= profile[-1] + 1e-12
    assert profile[-1] == pytest.approx(errors.max())
    assert (profile >= 0).all()


# ----------------------------------------------------------------------
# The batched routine against its oracle, np.percentile (linear rule)
# ----------------------------------------------------------------------

def _assert_bit_identical(rows: np.ndarray, grid) -> None:
    expected = np.percentile(rows, list(grid), axis=1).T
    actual = percentile_profiles(list(rows), grid)
    assert actual.shape == (len(rows), len(grid))
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64)), (
        rows, actual, expected)


_GRIDS = st.one_of(
    st.just(PERCENTILE_GRID),
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8).map(tuple),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(data=st.data(), grid=_GRIDS,
       n=st.sampled_from([1, 2, 3, 4, 257, 2048]),
       num_rows=st.integers(1, 5))
def test_percentile_profiles_match_np_percentile_bit_for_bit(data, grid, n, num_rows):
    """Row sets of every length class: random, all-zero, tied, +-inf, NaN."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(num_rows):
        shape = data.draw(st.sampled_from(["spread", "zeros", "ties", "tiny"]))
        if shape == "spread":
            row = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-12, 4)
        elif shape == "zeros":
            row = np.zeros(n)
        elif shape == "ties":
            row = rng.choice(rng.standard_normal(3), size=n)
        else:
            row = rng.standard_normal(n) * 1e-300
        specials = data.draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]),
                                      max_size=3))
        for value in specials:
            row[rng.integers(n)] = value
        rows.append(row)
    # -0.0 and +0.0 tie, and np.partition may leave either one at a tied
    # order statistic; error rows are never negative, so compare on +0.0.
    _assert_bit_identical(np.stack(rows) + 0.0, grid)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(st.one_of(st.floats(allow_nan=False, width=64),
                                   st.just(float("nan"))),
                         min_size=3, max_size=3), min_size=1, max_size=4),
       _GRIDS)
def test_percentile_profiles_match_on_arbitrary_floats(rows, grid):
    _assert_bit_identical(np.asarray(rows, dtype=np.float64) + 0.0, grid)


def test_percentile_profiles_edge_cases():
    assert percentile_profiles([], PERCENTILE_GRID).shape == (0, len(PERCENTILE_GRID))
    empty = percentile_profiles([np.array([]), np.array([])], PERCENTILE_GRID)
    assert empty.shape == (2, len(PERCENTILE_GRID)) and (empty == 0).all()
    nan_row = percentile_profiles([np.array([1.0, np.nan, 2.0]), np.arange(3.0)])
    assert np.isnan(nan_row[0]).all() and np.isfinite(nan_row[1]).all()
    # The input rows are left untouched by the in-place sort.
    row = np.array([3.0, 1.0, 2.0])
    percentile_profiles([row])
    assert row.tolist() == [3.0, 1.0, 2.0]


def test_max_over_pairs_is_the_per_pair_max_of_np_percentile(rng):
    """The per-sample profile equals the max over per-pair np.percentile calls."""
    from repro.calibration.profiles import max_over_pairs

    abs_rows = [np.abs(rng.standard_normal((6, 7))) * scale for scale in (1, 3, 1e-6)]
    rel_rows = [np.abs(rng.standard_normal((6, 7))) for _ in abs_rows]
    profile = max_over_pairs(abs_rows, rel_rows)
    expected_abs = np.max([np.percentile(row, PERCENTILE_GRID) for row in abs_rows], axis=0)
    expected_rel = np.max([np.percentile(row, PERCENTILE_GRID) for row in rel_rows], axis=0)
    assert profile.grid == PERCENTILE_GRID
    assert np.array_equal(profile.abs_values.view(np.uint64), expected_abs.view(np.uint64))
    assert np.array_equal(profile.rel_values.view(np.uint64), expected_rel.view(np.uint64))


# ----------------------------------------------------------------------
# Both calibration passes: one routine call per (sample, operator)
# ----------------------------------------------------------------------

def test_each_pass_sorts_once_per_sample_and_float_operator(monkeypatch, mlp_graph,
                                                            mlp_input_factory):
    from repro.calibration import CalibrationConfig, Calibrator
    from repro.calibration import profiles
    from repro.calibration.committee import calibrate_committee_envelope
    from repro.graph.interpreter import Interpreter
    from repro.tensorlib import DEVICE_FLEET

    calls = []
    routine = profiles.percentile_profiles

    def spy(rows, grid=PERCENTILE_GRID):
        calls.append(len(rows))
        return routine(rows, grid)

    monkeypatch.setattr(profiles, "percentile_profiles", spy)
    samples = [mlp_input_factory(3000 + i) for i in range(3)]
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, samples[0], record=True)
    float_ops = [node.name for node in mlp_graph.graph.operators
                 if np.asarray(trace.values[node.name]).dtype.kind == "f"]
    devices = len(DEVICE_FLEET)

    Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(mlp_graph, samples)
    pairs = devices * (devices - 1) // 2
    assert calls == [2 * pairs] * (len(samples) * len(float_ops))

    calls.clear()
    calibrate_committee_envelope(mlp_graph, samples)
    ordered_pairs = devices * (devices - 1)
    assert calls == [2 * ordered_pairs] * (len(samples) * len(float_ops))
