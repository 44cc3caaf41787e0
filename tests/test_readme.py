"""The README's library quick start runs as written against the top-level package."""

from __future__ import annotations

import os
import re

import speclab

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks() -> list[str]:
    with open(README, "r", encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)


def test_quick_start_runs():
    (block,) = python_blocks()
    exec(compile(block, README, "exec"), {"__name__": "readme"})


def test_top_level_exports_exactly_the_quick_start_names():
    (block,) = python_blocks()
    imported = re.search(r"from speclab import \((.*?)\)", block, flags=re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(speclab.__all__) == names | {"SpecLabError"}
