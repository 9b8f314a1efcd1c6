"""Every fenced ``python`` block of README.md runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_from_repository_root(block, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(block, str(ROOT / "README.md"), "exec"), {"__name__": "readme"})
