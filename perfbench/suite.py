"""Workloads, seeded prompts, and one timed pass through speclab's public API.

A pass is what a user of ``speclab run`` / ``speclab sweep`` waits for:
``config.materialize`` -> ``engine.run_workload`` or ``engine.sweep`` ->
``Transcript.save`` -> ``report.render_report``. Module attributes are looked
up at call time, so the tracer in ``spans.py`` can wrap them from outside.
"""

from __future__ import annotations

import copy
import math
import mmap
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from speclab import config as sl_config
from speclab import corpora, engine, report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS_DIR = os.path.join(ROOT, "workloads")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SWEEP_JOBS = 2
PROMPT_LENGTH = 12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a shipped config plus how its prompts are drawn.

    ``first_doc`` applies the ``scripts/make_corpora.py`` rule for the iid
    corpus: prompts are windows of document 0 (the attractor cycle) that
    start at least 20 characters before its end.
    """

    config_file: str
    prompts: int
    sweep: bool = False
    first_doc: bool = False
    overrides: dict = field(default_factory=dict)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    "iid-fixed-dllm": Workload("iid_fixed_dllm.json", prompts=200, first_doc=True),
    "mixed-sweep": Workload("mixed_sweep.json", prompts=40, sweep=True),
    "high-entropy-stochastic": Workload(
        "high_entropy_failfast.json", prompts=400, overrides={"verifier": "stochastic"}
    ),
}


def read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in (raw.rstrip("\n") for raw in fh) if line]


def write_prompts(workload: Workload, corpus: str, seed: int) -> str:
    """Draw the workload's prompts from ``seed`` and write one per line.

    Returns the prompt file path relative to the workloads directory, so the
    path recorded in every transcript's config snapshot is the same in any
    checkout and same-seed digests agree.
    """
    docs = read_lines(os.path.join(WORKLOADS_DIR, corpus))
    if workload.first_doc:
        texts = corpora.sample_prompts(
            docs[:1], workload.prompts, length=PROMPT_LENGTH, seed=seed,
            max_start=len(docs[0]) - 20,
        )
    else:
        texts = corpora.sample_prompts(docs, workload.prompts, length=PROMPT_LENGTH, seed=seed)
    prompt_dir = os.path.join(WORK_DIR, "prompts")
    os.makedirs(prompt_dir, exist_ok=True)
    path = os.path.join(prompt_dir, f"{os.path.splitext(workload.config_file)[0]}-seed{seed}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(text + "\n" for text in texts)
    return os.path.relpath(path, WORKLOADS_DIR)


def load_workload_config(workload: Workload, seed: int) -> dict:
    """The shipped config, as the CLI loads it, with the seeded prompts swapped in."""
    config = sl_config.load_config(os.path.join(WORKLOADS_DIR, workload.config_file))
    config.update(workload.overrides)
    config["prompt_file"] = write_prompts(workload, config["train_corpus"], seed)
    return config


class EpisodeClock:
    """Host time of every episode, indexed by (case, prompt).

    ``engine.sweep`` runs episodes in forked pool workers, so the times are
    written to an anonymous shared mapping that the workers inherit rather
    than to a Python list only the parent would see.
    """

    def __init__(self, labels: list[str], prompt_count: int) -> None:
        self._base = {label: k * prompt_count for k, label in enumerate(labels)}
        self._buf = mmap.mmap(-1, 8 * len(labels) * prompt_count)
        self._view = memoryview(self._buf).cast("d")
        for i in range(len(self._view)):
            self._view[i] = math.nan

    def wrap(self, run_episode):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            transcript = run_episode(*args, **kwargs)
            slot = self._base[kwargs["config_snapshot"]["label"]] + kwargs["seed"][1]
            self._view[slot] = time.perf_counter() - start
            return transcript

        return timed

    def close(self) -> list[float]:
        seconds = list(self._view)
        self._view.release()
        self._buf.close()
        if any(math.isnan(s) for s in seconds):
            raise RuntimeError("some episodes were not timed (pool workers not forked?)")
        return seconds


@contextmanager
def patched(obj, name: str, value):
    saved = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, saved)


@dataclass
class Pass:
    """Stage times, episode times and outputs of one pass."""

    setup_s: float
    loop_s: float
    persist_s: float
    report_s: float
    episode_s: list[float]
    results: list
    case_dirs: list[str]

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.loop_s + self.persist_s + self.report_s

    @property
    def tokens(self) -> int:
        return sum(len(t.output) for _, ts in self.results for t in ts)


def run_pass(workload: Workload, config: dict, out_dir: str, jobs: int, time_episodes: bool) -> Pass:
    """Materialize, run, persist and report once, timing each stage.

    With ``time_episodes`` every episode is timed individually; the tracer
    leaves it off because its own span around ``run_episode`` does the same.
    """
    t0 = time.perf_counter()
    runs = sl_config.materialize(copy.deepcopy(config), WORKLOADS_DIR)
    setup_s = time.perf_counter() - t0

    prompts = runs[0].prompts
    clock = EpisodeClock([r.label for r in runs], len(prompts)) if time_episodes else None
    episode_fn = clock.wrap(engine.run_episode) if clock else engine.run_episode
    with patched(engine, "run_episode", episode_fn):
        t1 = time.perf_counter()
        if workload.sweep:
            results = engine.sweep([r.case for r in runs], prompts, jobs=jobs)
        else:
            results = [(runs[0].case, engine.run_workload(runs[0].case, prompts))]
        loop_s = time.perf_counter() - t1
    episode_s = clock.close() if clock else []

    t2 = time.perf_counter()
    case_dirs = []
    for i, (_, transcripts) in enumerate(results):
        case_dir = os.path.join(out_dir, f"{i:02d}")
        os.makedirs(case_dir)
        for j, transcript in enumerate(transcripts):
            transcript.save(os.path.join(case_dir, f"transcript_{j:04d}.json"))
        case_dirs.append(case_dir)
    persist_s = time.perf_counter() - t2

    t3 = time.perf_counter()
    for case_dir in case_dirs:
        report.render_report(case_dir)
    report_s = time.perf_counter() - t3

    return Pass(setup_s, loop_s, persist_s, report_s, episode_s, results, case_dirs)
