"""Every fenced ``python`` block of README.md runs as written, so the
documented examples keep working as the library changes.

Each block runs in a fresh namespace, compiled under the README's name
with its own line numbers, so a failure points at the README line.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list:
    """(first line, source) of each fenced ``python`` block."""
    text = README.read_text()
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M)]


BLOCKS = _python_blocks()


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{k + 1}" for k in range(len(BLOCKS))])
def test_a_readme_python_block_runs(line, source):
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "__readme__"})
