"""Unit and property tests for percentile profiles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration.profiles import (
    PERCENTILE_GRID,
    OperatorCalibration,
    PercentileProfile,
    elementwise_errors,
    pair_error_rows,
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
    errors = np.array([row.ravel() for row in abs_rows + rel_rows])
    profile = max_over_pairs(errors)
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
    """One sort and one error call per (sample, float operator) in the
    threshold pass; in the envelope pass the same per device-dependent cell,
    plus one single-operator run per ordered pair, and nothing at all for a
    device-invariant cell, whatever the number of device pairs."""
    from repro.calibration import CalibrationConfig, Calibrator
    from repro.calibration import calibrator, committee, profiles
    from repro.calibration.committee import (
        CommitteeEnvelopeConfig,
        calibrate_committee_envelope,
    )
    from repro.graph.interpreter import Interpreter
    from repro.ops.registry import get_op
    from repro.tensorlib import DEVICE_FLEET

    sorts = []
    sort_routine = profiles.sort_percentiles

    def sort_spy(rows, grid=PERCENTILE_GRID):
        sorts.append(len(rows))
        return sort_routine(rows, grid)

    monkeypatch.setattr(profiles, "sort_percentiles", sort_spy)
    error_calls = []
    for module in (calibrator, committee, profiles):
        def error_spy(*args, _inner=module.pair_error_rows, **kwargs):
            error_calls.append(len(args[2]))
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, "pair_error_rows", error_spy)
    single_runs = Counter()
    single_routine = Interpreter.run_single_operator

    def single_spy(self, graph_module, operator_name, operands):
        single_runs[operator_name] += 1
        return single_routine(self, graph_module, operator_name, operands)

    monkeypatch.setattr(Interpreter, "run_single_operator", single_spy)

    samples = [mlp_input_factory(3000 + i) for i in range(3)]
    trace = Interpreter(DEVICE_FLEET[0]).run(mlp_graph, samples[0], record=True)
    float_ops = [node for node in mlp_graph.graph.operators
                 if np.asarray(trace.values[node.name]).dtype.kind == "f"]
    dependent = [node.name for node in float_ops
                 if not get_op(node.target).device_invariant]
    assert 0 < len(dependent) < len(float_ops)
    cells = len(samples) * len(float_ops)
    dependent_cells = len(samples) * len(dependent)

    for devices in (DEVICE_FLEET[:3], DEVICE_FLEET):
        n = len(devices)
        sorts.clear()
        error_calls.clear()
        Calibrator(CalibrationConfig(devices=devices)).calibrate(mlp_graph, samples)
        pairs = n * (n - 1) // 2
        assert sorts == [2 * pairs] * cells
        # One error call per cell, covering all of its pairs.
        assert error_calls == [pairs] * cells

        sorts.clear()
        error_calls.clear()
        single_runs.clear()
        calibrate_committee_envelope(mlp_graph, samples,
                                     CommitteeEnvelopeConfig(devices=devices))
        ordered_pairs = n * (n - 1)
        assert sorts == [2 * ordered_pairs] * dependent_cells
        assert error_calls == [ordered_pairs] * dependent_cells
        assert single_runs == {name: ordered_pairs * len(samples) for name in dependent}


# ----------------------------------------------------------------------
# Stacked error rows against per-pair oracles
# ----------------------------------------------------------------------

def _oracle(a, b, denominator):
    """Eqs. 1-2 of one tensor pair over ``denominator``, written out, with
    the non-finite rule."""
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        abs_err = np.abs(a64 - b64)
        rel_err = abs_err / denominator
    both_finite = np.isfinite(a64) & np.isfinite(b64)
    agree = (a64 == b64) | (np.isnan(a64) & np.isnan(b64))
    fill = np.where(agree, 0.0, np.inf)
    return (np.where(both_finite, abs_err, fill),
            np.where(both_finite, rel_err, fill))


def _leaf_oracle(proposed, reference, rel_scale_floor, epsilon=1e-12):
    """The scale-floored leaf statistic of one tensor pair, written out."""
    magnitude = np.abs(np.asarray(proposed, dtype=np.float64))
    finite = magnitude[np.isfinite(magnitude)]
    peak = float(finite.max()) if finite.size else 0.0
    return _oracle(proposed, reference,
                   np.maximum(magnitude, max(rel_scale_floor * peak, epsilon)))


def _plain_oracle(a, b, epsilon=1e-12):
    """Eqs. 1-2 of one tensor pair over ``|a| + epsilon``, written out."""
    return _oracle(a, b, np.abs(np.asarray(a, dtype=np.float64)) + epsilon)


def _same_bits(actual, expected) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and np.array_equal(
        actual.view(np.uint64), expected.view(np.uint64))


_ROW_KINDS = ["spread", "zeros", "nan", "inf", "non_finite", "near_zero"]


def _rows_of_kind(rng, kind, n):
    row = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 4)
    if kind == "zeros":
        row = np.zeros(n)
    elif kind == "near_zero":
        row = row * 1e-9
    elif kind == "non_finite":
        row = rng.choice([np.nan, np.inf, -np.inf], size=n)
    elif n and kind in ("nan", "inf"):
        specials = [np.nan] if kind == "nan" else [np.inf, -np.inf]
        for _ in range(rng.integers(1, 3)):
            row[rng.integers(n)] = rng.choice(specials)
    return row


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n=st.sampled_from([0, 1, 2, 7, 64]),
       kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=2, max_size=5),
       rel_scale_floor=st.sampled_from([0.0, 1e-3, 0.5]))
def test_pair_error_rows_equal_per_pair_oracles(data, n, kinds, rel_scale_floor):
    """Both passes' stacked errors, in both directions, equal one-row calls
    and the written-out statistics pair by pair, for spread, all-zero,
    near-zero, NaN, +-inf and all-non-finite device rows."""
    from repro.calibration.committee import leaf_denominators, leaf_elementwise_errors

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    devices = np.array([_rows_of_kind(rng, kind, n) for kind in kinds]).reshape(len(kinds), n)
    n_devices = len(kinds)

    # The threshold pass: j < k pairs of the device rows, |y| + eps.
    first, second = np.triu_indices(n_devices, 1)
    pairs = len(first)
    den = np.abs(devices) + 1e-12
    errors, reverse = pair_error_rows(devices, den, first, devices, second, den)
    for p, (j, k) in enumerate(zip(first, second)):
        want_abs, want_rel = _plain_oracle(devices[j], devices[k])
        _, want_reverse = _plain_oracle(devices[k], devices[j])
        one_abs, one_rel = elementwise_errors(devices[j], devices[k])
        assert _same_bits(errors[p], want_abs) and _same_bits(one_abs, want_abs)
        assert _same_bits(errors[pairs + p], want_rel) and _same_bits(one_rel, want_rel)
        assert _same_bits(reverse[p], want_reverse)

    # The envelope pass: one reference row per ordered pair, floored
    # denominators per proposer row and per reference row.
    proposers = np.array([j for j in range(n_devices)
                          for k in range(n_devices) if k != j], dtype=np.intp)
    pairs = len(proposers)
    references = np.array([
        _rows_of_kind(rng, "spread", n) * 1e-4 + devices[j] if rng.random() < 0.7
        else _rows_of_kind(rng, data.draw(st.sampled_from(_ROW_KINDS)), n)
        for j in proposers
    ]).reshape(pairs, n)
    errors, reverse = pair_error_rows(
        devices, leaf_denominators(devices, rel_scale_floor), proposers, references,
        b_den=leaf_denominators(references, rel_scale_floor))
    for p, j in enumerate(proposers):
        want_abs, want_rel = _leaf_oracle(devices[j], references[p], rel_scale_floor)
        _, want_reverse = _leaf_oracle(references[p], devices[j], rel_scale_floor)
        one_abs, one_rel = leaf_elementwise_errors(devices[j], references[p],
                                                   rel_scale_floor)
        assert _same_bits(errors[p], want_abs) and _same_bits(one_abs, want_abs)
        assert _same_bits(errors[pairs + p], want_rel) and _same_bits(one_rel, want_rel)
        assert _same_bits(reverse[p], want_reverse)


def test_leaf_denominators_all_non_finite_row_floors_at_epsilon():
    from repro.calibration.committee import leaf_denominators

    proposed = np.array([[np.nan, np.inf, 1.0, 2.0], [np.nan, np.inf, -np.inf, np.nan]])
    reference = np.array([[np.nan, np.inf, 1.5, 2.0], [np.nan, 1.0, -np.inf, 0.0]])
    errors, _ = pair_error_rows(proposed, leaf_denominators(proposed, rel_scale_floor=0.5),
                                np.arange(2), reference)
    abs_err, rel_err = errors[:2], errors[2:]
    # Row 0's peak is its largest finite magnitude, 2; row 1 has none, so 0.
    assert rel_err[0].tolist() == [0.0, 0.0, 0.5, 0.0]
    assert abs_err[1].tolist() == [0.0, np.inf, 0.0, np.inf]
    assert rel_err[1].tolist() == [0.0, np.inf, 0.0, np.inf]


def _calibration_case(request, model):
    """(graph, samples) of one model: the tiny MLP or a zoo mini, whose
    operator sizes shrink and grow along the graph."""
    if model == "tiny_mlp":
        factory = request.getfixturevalue("mlp_input_factory")
        return (request.getfixturevalue("mlp_graph"),
                [factory(4000 + i) for i in range(2)])
    from repro.models import get_model_spec

    spec = get_model_spec(model)
    module = spec.build_module()
    return (spec.trace(module, batch_size=1, seed=17),
            list(spec.dataset(module, 1, seed=17, batch_size=1)))


@pytest.mark.parametrize("model", ["tiny_mlp", "qwen_mini"])
def test_both_passes_match_per_pair_np_percentile_oracles(monkeypatch, request, model):
    """Every per-sample profile of both passes is the max over per-pair
    ``np.percentile`` calls on per-pair errors, on any host's BLAS.  The
    envelope pass records a device-invariant cell without computing it; its
    oracle is exactly zero, and so is that operator's committed envelope."""
    from repro.calibration import CalibrationConfig, Calibrator, committee
    from repro.calibration.committee import (
        DEFAULT_REL_SCALE_FLOOR,
        CommitteeEnvelopeConfig,
        calibrate_committee_envelope,
        leaf_operands,
    )
    from repro.graph.interpreter import Interpreter
    from repro.ops.registry import get_op
    from repro.tensorlib import DEVICE_FLEET

    graph, samples = _calibration_case(request, model)
    interpreters = [Interpreter(device) for device in DEVICE_FLEET]
    grid = list(PERCENTILE_GRID)

    def oracle(error_pairs):
        abs_values = np.max([np.percentile(a, grid) for a, _ in error_pairs], axis=0)
        rel_values = np.max([np.percentile(r, grid) for _, r in error_pairs], axis=0)
        return abs_values, rel_values

    result = Calibrator(CalibrationConfig(devices=DEVICE_FLEET)).calibrate(graph, samples)
    envelope_profiles = []
    routine = committee.max_over_pairs

    def capture(*args, **kwargs):
        envelope_profiles.append(routine(*args, **kwargs))
        return envelope_profiles[-1]

    monkeypatch.setattr(committee, "max_over_pairs", capture)
    envelope = calibrate_committee_envelope(graph, samples,
                                            CommitteeEnvelopeConfig(devices=DEVICE_FLEET))
    captured = iter(envelope_profiles)

    checked = Counter()
    for index, sample in enumerate(samples):
        traces = [interp.run(graph, dict(sample), record=True) for interp in interpreters]
        for node in graph.graph.operators:
            outputs = [np.asarray(trace.values[node.name]) for trace in traces]
            if outputs[0].dtype.kind != "f":
                continue
            threshold_pairs = []
            for j in range(len(outputs)):
                for k in range(j + 1, len(outputs)):
                    abs_err, rel_err = _plain_oracle(outputs[j], outputs[k])
                    _, rel_rev = _plain_oracle(outputs[k], outputs[j])
                    threshold_pairs.append((abs_err, np.maximum(rel_err, rel_rev)))
            profile = result.operators[node.name].per_sample_profiles[index]
            want_abs, want_rel = oracle(threshold_pairs)
            assert _same_bits(profile.abs_values, want_abs), node.name
            assert _same_bits(profile.rel_values, want_rel), node.name

            leaf_pairs = []
            for j, trace in enumerate(traces):
                operands = leaf_operands(graph, node, trace.values)
                for k, member in enumerate(interpreters):
                    if k == j:
                        continue
                    reference = member.run_single_operator(graph, node.name, operands)
                    abs_err, rel_err = _leaf_oracle(outputs[j], reference,
                                                    DEFAULT_REL_SCALE_FLOOR)
                    _, rel_rev = _leaf_oracle(reference, outputs[j], DEFAULT_REL_SCALE_FLOOR)
                    leaf_pairs.append((abs_err, np.maximum(rel_err, rel_rev)))
            want_abs, want_rel = oracle(leaf_pairs)
            if get_op(node.target).device_invariant:
                # With envelope_percentile=100 a zero committed row means a
                # zero profile for every sample.
                assert not want_abs.any() and not want_rel.any(), node.name
                assert not envelope.abs_thresholds[node.name].any(), node.name
                assert not envelope.rel_thresholds[node.name].any(), node.name
                checked["invariant"] += 1
                continue
            profile = next(captured)
            assert _same_bits(profile.abs_values, want_abs), node.name
            assert _same_bits(profile.rel_values, want_rel), node.name
            checked["dependent"] += 1
    assert checked["invariant"] and checked["dependent"]
    assert next(captured, None) is None
