"""Execute every fenced python block in docs/*.md and README.md.

The quickstart in the ``repro`` package docstring runs too.

Documentation examples rot silently; this harness keeps them honest.  Every
fenced code block tagged ``python`` is extracted and executed, top to bottom,
with all blocks of one page sharing a namespace (pages are written as
progressive walkthroughs).  A page with no python block fails — each docs
page is required to carry at least one executable example.

Run standalone (the CI docs job does):

    PYTHONPATH=src python -m pytest -q tests/test_docs_examples.py
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_PAGES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def extract_python_blocks(path: Path) -> list:
    return [match.group(1) for match in FENCE.finditer(path.read_text())]


def test_docs_tree_exists():
    names = {page.name for page in DOC_PAGES}
    assert {"architecture.md", "protocol.md", "serving.md", "simulator.md",
            "examples.md", "README.md"} <= names


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_docs_examples_execute(page):
    blocks = extract_python_blocks(page)
    assert blocks, f"{page.name} carries no executable python example"
    namespace = {"__name__": f"docs_example_{page.stem}"}
    for index, block in enumerate(blocks):
        code = compile(block, f"{page.name}[block {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own documentation


def test_package_docstring_quickstart_executes():
    _, _, quickstart = repro.__doc__.partition("Quickstart")
    code = textwrap.dedent(quickstart.split("::\n", 1)[-1])
    assert "service.process()" in code, "the package docstring has no quickstart"
    exec(compile(code, "repro.__doc__[quickstart]", "exec"),  # noqa: S102
         {"__name__": "docs_example_package"})
