"""The results writer leaves a file alone when only timing noise moved."""

from __future__ import annotations

import pytest

from benchmarks import reporting


@pytest.fixture()
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(reporting, "host_provenance", lambda: "Host: 2 cores")
    return tmp_path


def _emit(rows, notes="Speedup 2.50x over the loop.", headers=("scenario", "s", "hits")):
    return reporting.emit_table("demo", "a demo table", list(headers), rows, notes=notes)


def test_float_noise_and_stamp_leave_the_file_untouched(results_dir, monkeypatch):
    path = _emit([["repeated", 0.1234, 12], ["fallback", 448.0, 0]])
    first = open(path).read()
    monkeypatch.setattr(reporting, "host_provenance", lambda: "Host: 64 cores")
    _emit([["repeated", 0.2, 12], ["fallback", 441.8, 0]],
          notes="Speedup 3.10x over the loop.")
    assert open(path).read() == first


@pytest.mark.parametrize("change", [
    dict(rows=[["repeated", 0.1, 11], ["fallback", 448.0, 0]]),
    dict(rows=[["repeated", 0.1, 12], ["fallback(2)", 448.0, 0]]),
    dict(rows=[["repeated", 0.1, 12]]),
    dict(rows=[["repeated", 0.1, 12], ["fallback", 448.0, 0]], notes="Other words."),
    dict(rows=[["repeated", 0.1, 12], ["fallback", 448.0, 0]],
         headers=("scenario", "s", "misses")),
])
def test_structural_changes_rewrite_the_file(results_dir, change):
    path = _emit([["repeated", 0.1234, 12], ["fallback", 448.0, 0]])
    first = open(path).read()
    _emit(**change)
    assert open(path).read() != first


def test_report_sections_follow_the_same_rule(results_dir):
    def emit(seconds, count):
        return reporting.emit_report("demo_report", "two tables", [
            ("timeline", ["t", "workers"], [[seconds, count]]),
            ("quantiles", ["p", "ms"], [["p99", seconds * 10]]),
        ])

    path = emit(1.5, 2)
    first = open(path).read()
    emit(1.7, 2)
    assert open(path).read() == first
    emit(1.7, 3)
    assert "| 1.7 | 3 |" in open(path).read()
