"""The README's library quick start runs as written against the top-level
package, its ``speclab`` commands parse with the current CLI, its config
example is the shipped ``mixed_failfast.json``, and its headline speedups are
what the shipped workloads give."""

from __future__ import annotations

import json
import os
import re
import shlex

import speclab
from speclab.analysis import summarize
from speclab.cli import build_parser
from speclab.config import load_config, materialize, validate_schema
from speclab.engine import run_workload
from speclab.policies import FixedDLLM

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
WORKLOADS = os.path.join(ROOT, "workloads")


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


def test_headline_speedups_are_what_the_shipped_workloads_give():
    with open(README, "r", encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    failfast = re.search(r"reaches a (\d+\.\d\d)x simulated speedup", text).group(1)
    aware, aware_len = re.search(r"\(lengths 3\.\.20; (\d+\.\d\d)x at length (\d+)\)", text).groups()
    one_step_len, one_step = re.search(
        r"one-step block drafting at a fixed length of (\d+) reaches (\d+\.\d\d)x", text
    ).groups()

    def speedups(config: dict) -> dict:
        """Each cell's policy and the pooled speedup of its transcripts."""
        return {
            run.case.policy: summarize(run_workload(run.case, run.prompts)).speedup
            for run in materialize(config, WORKLOADS)
        }

    (got,) = speedups(load_config(os.path.join(WORKLOADS, "mixed_failfast.json"))).values()
    assert f"{got:.2f}" == failfast
    sweep = load_config(os.path.join(WORKLOADS, "mixed_sweep.json"))
    grid = speedups(sweep)
    best = max(grid, key=grid.get)  # the best confidence-aware length of the grid
    assert best == FixedDLLM(int(aware_len)) and f"{grid[best]:.2f}" == aware
    sweep["policy"] = {"kind": "fixed_dllm", "draft_len": int(one_step_len), "mode": "one_step"}
    (got,) = speedups(sweep).values()
    assert f"{got:.2f}" == one_step
