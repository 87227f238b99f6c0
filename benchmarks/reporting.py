"""Shared reporting helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing entry, each benchmark emits its rows/series through
:func:`emit_table`, which prints the table and writes it as Markdown under
``benchmarks/results/`` so the numbers survive the pytest capture and can be
referenced from EXPERIMENTS.md.

A results file is rewritten only when its content changes beyond timing
noise: a rerun whose text differs from the file on disk only in float tokens
and the host stamp leaves the file untouched, so a test run does not churn
the working tree.  Any change to a header, a row label, an integer count or
the wording of the notes still rewrites it.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import re
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def host_provenance() -> str:
    """One-line host stamp persisted under every results table.

    Wall-clock numbers (the fleet throughput benchmark in particular) only
    mean something relative to the machine that produced them, so every
    table records the core count, the interpreter version and the
    multiprocessing start method the run used.
    """
    return (f"Host: {os.cpu_count()} cores | "
            f"Python {platform.python_version()} | "
            f"mp start method: {multiprocessing.get_start_method()}")


#: Stands in for a float-valued table cell in a file's skeleton.
_FLOAT_CELL = "\x00"

#: Float literals as the tables and notes print them (``4.541``, ``2.5e+03``,
#: ``nan``); integers carry no point or exponent and are not matched.
_FLOAT_TOKEN = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?"
                          r"|\b(?:nan|inf)\b")


def _format_cell(value, skeleton: bool = False) -> str:
    if isinstance(value, float):
        if skeleton:
            return _FLOAT_CELL
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 skeleton: bool = False) -> str:
    """Markdown table; ``skeleton`` renders every float cell as :data:`_FLOAT_CELL`."""
    lines: List[str] = []
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(cell, skeleton) for cell in row) + " |")
    return "\n".join(lines)


def _cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _only_floats_differ(old: str, skeleton: str) -> bool:
    """Whether ``old`` matches ``skeleton`` up to float tokens and the host stamp."""
    old_lines, new_lines = old.splitlines(), skeleton.splitlines()
    if len(old_lines) != len(new_lines):
        return False
    for old_line, new_line in zip(old_lines, new_lines):
        if new_line.startswith("_Host:") and old_line.startswith("_Host:"):
            continue
        if new_line.startswith("| ") and old_line.startswith("| "):
            old_cells, new_cells = _cells(old_line), _cells(new_line)
            if len(old_cells) != len(new_cells):
                return False
            if any(new_cell != _FLOAT_CELL
                   and _FLOAT_TOKEN.sub("#", new_cell) != _FLOAT_TOKEN.sub("#", old_cell)
                   for old_cell, new_cell in zip(old_cells, new_cells)):
                return False
        elif _FLOAT_TOKEN.sub("#", new_line) != _FLOAT_TOKEN.sub("#", old_line):
            return False
    return True


def _write_results(experiment_id: str, text: str, skeleton: str) -> str:
    """Write ``results/<experiment_id>.md`` unless only float tokens moved."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.md")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            if _only_floats_differ(handle.read(), skeleton):
                return path
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _results_text(experiment_id: str, title: str, blocks: Sequence[tuple],
                  notes: str, stamp: str) -> str:
    """The Markdown file body; ``blocks`` are ``(subtitle or None, table)``."""
    text = f"# {experiment_id}: {title}\n"
    for subtitle, table in blocks:
        text += f"\n{table}\n" if subtitle is None else f"\n## {subtitle}\n\n{table}\n"
    if notes:
        text += f"\n{notes}\n"
    return text + f"\n_{stamp}_\n"


def emit_report(experiment_id: str, title: str,
                sections: Sequence[tuple], notes: str = "") -> str:
    """Print and persist a multi-table report to ``results/<experiment_id>.md``.

    ``sections`` is a sequence of ``(subtitle, headers, rows)`` triples —
    the multi-table sibling of :func:`emit_table` for benchmarks whose story
    needs more than one table (e.g. a scale-up timeline plus a latency
    quantile breakdown).
    """
    stamp = host_provenance()
    sections = [(subtitle, headers, [list(r) for r in rows])
                for subtitle, headers, rows in sections]
    blocks = [(subtitle, format_table(headers, rows))
              for subtitle, headers, rows in sections]
    text = f"== {experiment_id}: {title} ==\n"
    for subtitle, table in blocks:
        text += f"\n-- {subtitle} --\n{table}\n"
    if notes:
        text += f"\n{notes}\n"
    text += f"\n{stamp}\n"
    print("\n" + text)
    skeleton = [(subtitle, format_table(headers, rows, skeleton=True))
                for subtitle, headers, rows in sections]
    return _write_results(
        experiment_id, _results_text(experiment_id, title, blocks, notes, stamp),
        _results_text(experiment_id, title, skeleton, notes, stamp))


def emit_table(experiment_id: str, title: str, headers: Sequence[str],
               rows: Iterable[Sequence[object]], notes: str = "") -> str:
    """Print a table and persist it to ``benchmarks/results/<experiment_id>.md``."""
    rows = [list(r) for r in rows]
    table = format_table(headers, rows)
    stamp = host_provenance()
    banner = f"== {experiment_id}: {title} =="
    text = f"{banner}\n{table}\n"
    if notes:
        text += f"\n{notes}\n"
    text += f"\n{stamp}\n"
    print("\n" + text)
    skeleton = format_table(headers, rows, skeleton=True)
    return _write_results(
        experiment_id, _results_text(experiment_id, title, [(None, table)], notes, stamp),
        _results_text(experiment_id, title, [(None, skeleton)], notes, stamp))
