#!/usr/bin/env python3
"""speclab benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload iid-fixed-dllm --seed 1 --seconds 40 --trace 0

Each workload is a single client in a closed loop: passes run back to back
for ``--seconds``, and a pass is everything a user of ``speclab run`` /
``speclab sweep`` waits for (materialize, episode loop, persist transcripts,
render reports), on prompts drawn from ``--seed``. All passes of a run are
identical work, so stage times are medians over passes, and every pass after
the first must reproduce the first pass's transcripts and bundles byte for
byte.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced passes with passes traced by ``spans.py`` and prints the
per-layer metrics, including the tracing overhead; ``mixed-sweep`` is traced
at jobs 1 and also runs untraced at jobs 1 and 2 there.

The last line of standard output is one JSON object; the lines before it
describe the machine, the inputs, the digests and the simulated results.
A copy of everything goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The benchmark measures the checkout it sits in, never an installed speclab.
if not os.path.isfile(os.path.join(SRC, "speclab", "__init__.py")):
    sys.exit(f"perfbench: no speclab sources under {SRC}")
if not os.path.isdir(os.path.join(ROOT, "workloads", "data")):
    sys.exit(f"perfbench: no workloads/data under {ROOT}")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


def parse_args(names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def bytes_of(case_dirs: list[str], names) -> int:
    return sum(os.path.getsize(os.path.join(d, n)) for d in case_dirs for n in names)


class Run:
    """Passes of one run: their timings, the first pass's outputs, and failures."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.reference: dict = {}
        self.attempted = 0
        self.first_tracer = None

    def add(self, p, jobs: int, tracer) -> None:
        """Check a finished pass against the first one and keep its timings."""
        paths = checks.transcript_paths(p.results, p.case_dirs)
        digests = [checks.file_digest(path) for path in paths]
        bundle = checks.bundle_digest(p.case_dirs)
        self.attempted += len(digests)
        n = len(self.records)
        if not self.reference:
            self.failures += checks.check_pass(p.results, p.case_dirs)
            self.reference = {
                "episodes": digests,
                "bundles": bundle,
                "sim": checks.sim_results(p.results),
                "transcript_bytes": sum(os.path.getsize(path) for path in paths),
                "bundle_bytes": bytes_of(p.case_dirs, checks.BUNDLE_FILES),
                "raster_bytes": bytes_of(p.case_dirs, ["raster.svg"]),
                "tokens": p.tokens,
                "cases": len(p.results),
            }
        else:
            self.failures += [
                f"pass {n} episode {i}: transcript differs from pass 0"
                for i, (a, b) in enumerate(zip(digests, self.reference["episodes"]))
                if a != b
            ]
            if bundle != self.reference["bundles"]:
                self.failures.append(f"pass {n}: report bundles differ from pass 0")
        record = {
            "jobs": jobs,
            "traced": tracer is not None,
            "setup_s": p.setup_s,
            "loop_s": p.loop_s,
            "persist_s": p.persist_s,
            "report_s": p.report_s,
            "wall_s": p.wall_s,
            "tok_per_s": p.tokens / p.loop_s,
            "episode_s": p.episode_s,
        }
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["module_self_s"] = tracer.module_self_times()
            if self.first_tracer is None:
                self.first_tracer = tracer
        self.records.append(record)

    def median(self, key: str, jobs: int, traced: bool = False) -> float:
        return statistics.median(
            r[key] for r in self.records if r["traced"] == traced and r["jobs"] == jobs
        )


def run_passes(run: Run, workload, config: dict, plan, seconds: float) -> None:
    """Repeat the plan's passes; start another cycle only if it should end within ``seconds``."""
    run_dir = os.path.join(suite.WORK_DIR, f"run-{os.getpid()}")
    start = time.perf_counter()
    cycle_s = 0.0
    try:
        while not run.records or time.perf_counter() - start + cycle_s <= seconds:
            cycle_start = time.perf_counter()
            for jobs, traced in plan:
                out_dir = os.path.join(run_dir, f"pass{len(run.records)}")
                tracer = spans.Tracer() if traced else None
                with tracer.installed() if tracer else nullcontext():
                    p = suite.run_pass(workload, config, out_dir, jobs, time_episodes=not traced)
                run.add(p, jobs, tracer)
                del p, tracer
                shutil.rmtree(out_dir)
                gc.collect()
            cycle_s = time.perf_counter() - cycle_start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end(run: Run, jobs: int) -> dict[str, float]:
    """Medians over untraced passes; episode latency quantiles are taken per pass."""
    passes = [r for r in run.records if not r["traced"] and r["jobs"] == jobs]
    return {
        "setup_s": run.median("setup_s", jobs),
        "tok_per_s": run.median("tok_per_s", jobs),
        "episode_ms_p50": statistics.median(1e3 * statistics.median(r["episode_s"]) for r in passes),
        "episode_ms_p95": statistics.median(
            1e3 * statistics.quantiles(r["episode_s"], n=20)[18] for r in passes
        ),
        "wall_s": run.median("wall_s", jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, jobs: int, sweep: bool) -> dict[str, float]:
    """Medians over traced passes, stage times of untraced passes, and the
    first pass's deterministic counts."""
    traced = [r for r in run.records if r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out.update(run.reference["sim"])
    out["engine.persist_s"] = run.median("persist_s", jobs)
    out["report.render_s"] = run.median("report_s", jobs)
    out["engine.transcript_bytes"] = run.reference["transcript_bytes"]
    out["report.bundle_bytes"] = run.reference["bundle_bytes"]
    out["svg.raster_bytes"] = run.reference["raster_bytes"]
    out["engine.sweep_parallel_efficiency"] = (
        run.median("loop_s", 1) / (jobs * run.median("loop_s", jobs)) if sweep else 1.0
    )
    out["trace.overhead_share"] = run.median("wall_s", 1, traced=True) / run.median("wall_s", 1) - 1
    return out


def print_summary(run: Run, info: dict) -> None:
    m, inputs = info["machine"], info["inputs"]
    print(f"workload {info['workload']}: {info['why']}")
    print(
        f"machine: nproc {m['nproc']} (affinity {m['affinity']}), {m['cpu']}, "
        f"python {m['python']}, numpy {m['numpy']}"
    )
    print(
        f"inputs: seed {info['seed']}, {inputs['prompts']} prompts x {inputs['cases']} cases, "
        f"{inputs['episodes_per_pass']} episodes and {inputs['tokens_per_pass']} tokens per pass, "
        f"jobs {inputs['jobs']}, {len(run.records)} passes in {info['seconds']:g} s"
    )
    for i, r in enumerate(run.records):
        kind = "traced" if r["traced"] else "untraced"
        print(
            f"pass {i} ({kind}, jobs {r['jobs']}): setup {r['setup_s']:.3f} s, "
            f"loop {r['loop_s']:.3f} s, persist {r['persist_s']:.3f} s, "
            f"report {r['report_s']:.3f} s, {r['tok_per_s']:.0f} tok/s"
        )
    print(f"episode latency: {info['episode_latency_samples']} samples per pass")
    rss = info["peak_rss_mb"]
    print(f"peak rss: self {rss['self']:.1f} MB, pool workers {rss['children']:.1f} MB")
    print(f"digest transcripts {info['digests']['transcripts']}")
    print(f"digest bundles {info['digests']['bundles']}")
    print("sim: " + ", ".join(f"{k} {v:.6g}" for k, v in info["sim"].items()))
    if run.first_tracer is not None:
        print("self time by module (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in run.first_tracer.module_self_times().items()
        ))
    print(f"checks: {run.attempted} episodes, {len(run.failures)} failed")
    for line in run.failures[:20]:
        print(f"FAILED {line}")
    if info["inputs"]["overrides"].get("verifier") == "stochastic":
        print(
            "note: per-episode checks cannot see whether stochastic verification "
            "preserves the target distribution (known defect with argmax drafts)"
        )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    args = parse_args(sorted(suite.WORKLOADS))
    workload = suite.WORKLOADS[args.workload]
    config = suite.load_workload_config(workload, args.seed)
    jobs = suite.SWEEP_JOBS if workload.sweep else 1
    if not args.trace:
        plan = [(jobs, False)]
    elif workload.sweep:
        plan = [(suite.SWEEP_JOBS, False), (1, False), (1, True)]
    else:
        plan = [(1, False), (1, True)]

    run = Run()
    run_passes(run, workload, config, plan, args.seconds)
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if args.trace:
        measured = per_layer(run, jobs, workload.sweep)
        wanted = bench["per_layer"]
    else:
        measured = end_to_end(run, jobs)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    uname = os.uname()
    info = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel": f"{uname.sysname} {uname.release} {uname.machine}",
        },
        "inputs": {
            "config": f"workloads/{workload.config_file}",
            "overrides": workload.overrides,
            "prompts": workload.prompts,
            "prompt_length": suite.PROMPT_LENGTH,
            "cases": run.reference["cases"],
            "episodes_per_pass": len(run.reference["episodes"]),
            "tokens_per_pass": run.reference["tokens"],
            "jobs": jobs,
        },
        "passes": [{k: v for k, v in r.items() if k != "episode_s"} for r in run.records],
        "episode_latency_samples": len(run.reference["episodes"]),
        "peak_rss_mb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children": children_rss,
        },
        "digests": {
            "transcripts": checks.combined_digest(run.reference["episodes"]),
            "bundles": run.reference["bundles"],
        },
        "sim": run.reference["sim"],
        "failures": run.failures,
    }
    results_dir = os.path.join(suite.WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics}, fh, indent=1)
    if run.first_tracer is not None:
        run.first_tracer.write(os.path.join(results_dir, f"{tag}.spans.jsonl.gz"))

    print_summary(run, info)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
