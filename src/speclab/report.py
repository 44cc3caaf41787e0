"""Render a report bundle from a directory of saved transcripts.

The bundle is six files — summary.csv, metrics.json, raster.svg, cdf.svg,
breakdown.svg, trajectory.txt — all recomputed purely from the transcript
JSON, so deleting everything but the transcripts loses no information.
"""

from __future__ import annotations

import csv
import glob
import json
import os

from .analysis import (
    EasyHardRaster,
    SummaryStats,
    accepted_length_cdf,
    build_raster,
    consecutive_easy_ratio,
    latency_breakdown,
    summarize,
)
from .engine import Transcript
from .errors import ConfigError, IoError
from .svg import render_breakdown, render_raster, render_step_cdfs
from .tokenizers import detokenize

REPORT_SCHEMA_VERSION = 1
EASY_RUN_THRESHOLDS = (0, 5, 10, 20)

SUMMARY_COLUMNS = (
    "policy",
    "dataset",
    "acceptance_rate",
    "avg_acc_len",
    "avg_spec_len",
    "max_acc_len",
    "max_spec_len",
    "rounds",
    "drafter_passes_per_round",
    "speedup",
)


def _run_order(path: str) -> tuple:
    """Sort key of a transcript file: ``transcript_<i>.json`` by the integer
    ``i``, as ``speclab run`` numbers them, then any other name by name."""
    name = os.path.basename(path)
    index = name[len("transcript_"):-len(".json")]
    if index.isascii() and index.isdigit():
        return (0, int(index), name)
    return (1, 0, name)


def load_transcripts(run_dir: str | os.PathLike[str]) -> list[Transcript]:
    """Load every ``transcript_*.json`` under ``run_dir`` in run order: by the
    integer in the name, then names that hold none, by name. A bundle reads
    every transcript's rounds, so one that holds none fails naming its file.

    Every load gets the same fresh memo, so a round text that recurs across
    the files is decoded and checked once and its ``RoundRecord`` is shared
    by every transcript that holds it, as ``run_workload`` shares it: the
    loaded records are read-only."""
    paths = sorted(glob.glob(os.path.join(str(run_dir), "transcript_*.json")), key=_run_order)
    if not paths:
        raise ConfigError(f"no transcript_*.json files in {run_dir}")
    memo: dict = {}
    transcripts = [Transcript.load(p, memo) for p in paths]
    for path, t in zip(paths, transcripts):
        if not t.rounds:
            raise ConfigError(f"{path} has no rounds")
    return transcripts


def _group_label(t: Transcript) -> str:
    return str(t.config.get("label", "run"))


def _grouped(transcripts: list[Transcript]) -> list[tuple[str, list[Transcript]]]:
    """Group by config label, preserving first-seen order."""
    groups: dict[str, list[Transcript]] = {}
    for t in transcripts:
        groups.setdefault(_group_label(t), []).append(t)
    return list(groups.items())


def summary_row(label: str, group: list[Transcript], stats: SummaryStats | None = None) -> dict[str, str]:
    """One summary.csv row; ``stats`` is ``summarize(group)`` when not given."""
    stats = summarize(group) if stats is None else stats
    config = group[0].config
    return {
        "policy": str(config.get("policy_label", label)),
        "dataset": str(config.get("dataset", "unknown")),
        "acceptance_rate": f"{stats.acceptance_rate:.6f}",
        "avg_acc_len": f"{stats.avg_accepted_len:.6f}",
        "avg_spec_len": f"{stats.avg_speculated_len:.6f}",
        "max_acc_len": str(stats.max_accepted_len),
        "max_spec_len": str(stats.max_speculated_len),
        "rounds": str(stats.rounds),
        "drafter_passes_per_round": f"{stats.drafter_passes_per_round:.6f}",
        "speedup": f"{stats.speedup:.6f}",
    }


def write_summary_csv(
    path: str, rows: list[dict[str, str]], columns: tuple[str, ...] = SUMMARY_COLUMNS
) -> None:
    """A schema-version line, then ``rows`` as CSV under ``columns``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# schema_version={REPORT_SCHEMA_VERSION}\n")
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _trajectory_text(transcripts: list[Transcript], per_group: int = 1) -> str:
    """Plain-text episode walkthroughs.

    Accepted draft text is shown bare, rejected draft text is struck through
    with ``~~..~~``, and every token the target emitted itself (bonus or
    correction) is bracketed.
    """
    lines: list[str] = []
    for label, group in _grouped(transcripts):
        for t in group[:per_group]:
            kind = str(t.config.get("tokenizer", "char"))
            joiner = "" if kind == "char" else " "
            lines.append(f"== {label} | seed={t.seed} | {len(t.rounds)} rounds ==")
            lines.append("prompt: " + detokenize([t.vocab[i] for i in t.prompt], kind))
            for r in t.rounds:
                words = [t.vocab[i] for i in r.proposed_tokens]
                accepted = detokenize(words[: r.accepted_len], kind)
                rejected = detokenize(words[r.accepted_len :], kind)
                piece = accepted
                if rejected:
                    piece += f"{joiner}~~{rejected}~~"
                piece += f"{joiner}[{detokenize([t.vocab[r.replacement_token]], kind)}]"
                lines.append(piece)
            lines.append("output: " + detokenize([t.vocab[i] for i in t.output], kind))
            lines.append("")
    return "\n".join(lines)


def render_report(
    run_dir: str | os.PathLike[str],
    out_dir: str | os.PathLike[str] | None = None,
) -> dict[str, str]:
    """Build the full report bundle for a run directory, in ``out_dir`` if
    given and else in ``run_dir``.

    Returns a name -> path mapping for the six artifacts. Rendering the same
    directory twice produces byte-identical files.
    """
    return render_bundle(load_transcripts(run_dir), run_dir if out_dir is None else out_dir)


def render_bundle(transcripts: list[Transcript], out_dir: str | os.PathLike[str]) -> dict[str, str]:
    """Write the report bundle of ``transcripts``, each holding a round, to
    ``out_dir``: the same bytes as ``render_report`` on a directory where they
    are saved, in this order.

    Returns a name -> path mapping for the six artifacts.
    """
    out = str(out_dir)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc

    paths = {name: os.path.join(out, name) for name in (
        "summary.csv", "metrics.json", "raster.svg", "cdf.svg", "breakdown.svg", "trajectory.txt",
    )}
    # One raster row per transcript; each group's easy-run ratios read its own
    # rows, whose padding to the full raster's width they skip.
    raster = build_raster(transcripts)
    group_rows: dict[str, list[list[str]]] = {}
    for t, flags in zip(transcripts, raster.rows):
        group_rows.setdefault(_group_label(t), []).append(flags)
    rows = []
    metrics: dict = {"schema_version": REPORT_SCHEMA_VERSION, "groups": []}
    cdf_series = []
    breakdown_entries = []
    for label, group in _grouped(transcripts):
        stats = summarize(group)
        lat = latency_breakdown(group)
        acc_cdf, spec_cdf = accepted_length_cdf(group)
        rows.append(summary_row(label, group, stats))
        metrics["groups"].append(
            {
                "label": label,
                "policy": str(group[0].config.get("policy_label", label)),
                "dataset": str(group[0].config.get("dataset", "unknown")),
                "summary": stats.to_dict(),
                "latency": {
                    "draft": lat.draft_latency,
                    "verify": lat.verify_latency,
                    "draft_share": lat.draft_share,
                    "verify_share": lat.verify_share,
                },
                "easy_run_thresholds": list(EASY_RUN_THRESHOLDS),
                "easy_run_ratio": consecutive_easy_ratio(
                    EasyHardRaster(group_rows[label]), EASY_RUN_THRESHOLDS
                ),
                "accepted_len_cdf": [[v, f] for v, f in acc_cdf],
                "speculated_len_cdf": [[v, f] for v, f in spec_cdf],
            }
        )
        cdf_series.append((f"{label} accepted", acc_cdf))
        cdf_series.append((f"{label} speculated", spec_cdf))
        breakdown_entries.append((label, lat.draft_latency, lat.verify_latency))
    write_summary_csv(paths["summary.csv"], rows)

    artifacts = {
        "metrics.json": json.dumps(metrics, indent=1) + "\n",
        "raster.svg": render_raster(raster.rows),
        "cdf.svg": render_step_cdfs(cdf_series),
        "breakdown.svg": render_breakdown(breakdown_entries),
        "trajectory.txt": _trajectory_text(transcripts),
    }
    for name, payload in artifacts.items():
        try:
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise IoError(f"cannot write {paths[name]}: {exc}") from exc
    return paths
