"""The README's library quick start runs as written against the top-level
package, its ``speclab`` commands parse with the current CLI, and its config
example is the shipped ``mixed_failfast.json``."""

from __future__ import annotations

import json
import os
import re
import shlex

import speclab
from speclab.cli import build_parser
from speclab.config import load_config, validate_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def blocks(language: str) -> list[str]:
    with open(README, "r", encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), flags=re.M | re.S)


def test_quick_start_runs():
    (block,) = blocks("python")
    exec(compile(block, README, "exec"), {"__name__": "readme"})


def test_top_level_exports_exactly_the_quick_start_names():
    (block,) = blocks("python")
    imported = re.search(r"from speclab import \((.*?)\)", block, flags=re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(speclab.__all__) == names | {"SpecLabError"}


def test_every_cli_command_parses():
    commands = [
        shlex.split(line, comments=True)
        for block in blocks("sh")
        for line in block.splitlines()
        if line.startswith("speclab ")
    ]
    assert {argv[1] for argv in commands} == {"run", "sweep", "theory", "train", "report"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_config_example_is_the_shipped_mixed_failfast_config():
    (block,) = blocks("json")
    example = json.loads(block)
    validate_schema(example)
    assert example == load_config(os.path.join(ROOT, "workloads", "mixed_failfast.json"))
