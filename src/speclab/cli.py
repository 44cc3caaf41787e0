"""Command-line interface: train, run, sweep, theory, report.

Every subcommand is a thin wrapper over library calls; all policy lives in
the modules it belongs to. Exit codes are a stable contract: 0 success, 1
validation problem, 2 environmental or internal failure.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys

from .config import load_config, materialize
from .engine import VERIFIER_KINDS, SweepCase, run_workload
from .errors import EXIT_OK, EXIT_RUNTIME, ConfigError, SpecLabError
from .ngram import save_model, train_ngram
from .report import (
    SUMMARY_COLUMNS, render_bundle, render_report, summary_row, write_summary_csv
)
from .svg import render_curves
from .theory import DRAFTER_AR, DRAFTER_BLOCK, curve_peak, speedup_curve
from .tokenizers import tokenize

OUTPUT_DIR_ENV = "SPECLAB_OUTPUT_DIR"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "run"


def _default_out(name: str) -> str:
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "runs"), _slug(name))


def _resolve_out(flag: str | None, case: SweepCase, base_dir: str) -> str:
    if flag:
        return flag
    configured = case.config_snapshot.get("output_dir")
    return os.path.join(base_dir, configured) if configured else _default_out(case.label)


def _apply_overrides(config: dict, args: argparse.Namespace) -> None:
    if args.max_tokens is not None:
        config["max_tokens"] = args.max_tokens
    if args.seed is not None:
        config["seed"] = args.seed
    if getattr(args, "verifier", None) is not None:
        config["verifier"] = args.verifier


def _save_transcripts(transcripts, out_dir: str) -> None:
    """Save ``transcript_NNNN.json`` files and remove the other ``transcript_*.json``
    files in ``out_dir``, so a report on it reads this run's transcripts only."""
    os.makedirs(out_dir, exist_ok=True)
    names = [f"transcript_{i:04d}.json" for i in range(len(transcripts))]
    for name, t in zip(names, transcripts):
        t.save(os.path.join(out_dir, name))
    for name in set(fnmatch.filter(os.listdir(out_dir), "transcript_*.json")) - set(names):
        os.remove(os.path.join(out_dir, name))


def cmd_train(args: argparse.Namespace) -> int:
    from .config import read_corpus  # local import keeps module load light

    docs = [tokenize(d, args.tokenizer) for d in read_corpus(args.corpus)]
    table = train_ngram(docs, order=max(args.order, args.drafter_order))
    target = table.with_order(args.order, args.smoothing)
    drafter = table.with_order(args.drafter_order, args.drafter_smoothing)
    stem = os.path.splitext(os.path.basename(args.corpus))[0]
    out = args.out or os.path.dirname(args.corpus) or "."
    os.makedirs(out, exist_ok=True)
    target_path = os.path.join(out, f"{stem}.target.json")
    drafter_path = os.path.join(out, f"{stem}.drafter.json")
    save_model(target, target_path)
    save_model(drafter, drafter_path)
    print(f"vocabulary: {len(target.vocabulary)} tokens")
    print(f"target:  order={target.order} contexts={len(target.counts)} -> {target_path}")
    print(f"drafter: order={drafter.order} contexts={len(drafter.counts)} -> {drafter_path}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    runs = materialize(config, base_dir)
    if len(runs) != 1:
        raise ConfigError(
            f"config expands to {len(runs)} cases; use the sweep subcommand for grids"
        )
    case, prompts = runs[0]
    out_dir = _resolve_out(args.out, case, base_dir)
    transcripts = run_workload(case, prompts)
    _save_transcripts(transcripts, out_dir)
    paths = render_bundle(transcripts, out_dir)
    print(f"{case.label}: {len(transcripts)} transcripts -> {out_dir}")
    print(f"report: {paths['summary.csv']}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    runs = materialize(config, base_dir)
    out_base = args.out or _default_out(os.path.splitext(os.path.basename(args.config))[0])
    rows = []
    for i, (case, prompts) in enumerate(runs):
        transcripts = run_workload(case, prompts)
        case_dir = os.path.join(out_base, f"{i:02d}_{_slug(case.label)}")
        _save_transcripts(transcripts, case_dir)
        rows.append(summary_row(case.label, transcripts))

    kinds = [str(case.config_snapshot["policy"]["kind"]) for case, _ in runs]
    best = {k: max(float(r["speedup"]) for r, rk in zip(rows, kinds) if rk == k) for k in kinds}
    for row, kind in zip(rows, kinds):
        row["best"] = "*" if float(row["speedup"]) == best[kind] else ""
    sweep_path = os.path.join(out_base, "sweep.csv")
    write_summary_csv(sweep_path, rows, SUMMARY_COLUMNS + ("best",))
    print(f"{len(rows)} cases -> {sweep_path}")
    return EXIT_OK


def cmd_theory(args: argparse.Namespace) -> int:
    gammas = list(range(1, args.gamma_max + 1))
    columns = ("alpha", "drafter", "gamma", "speedup", "best")
    rows, series = [], []
    for alpha in args.alpha:
        for kind in (DRAFTER_AR, DRAFTER_BLOCK):
            curve = speedup_curve(alpha, gammas, args.cost_ratio, kind, args.block_size)
            star, peak = curve_peak(gammas, curve)
            for g, s in zip(gammas, curve):
                values = (alpha, kind, g, f"{s:.6f}", "*" if g == star else "")
                rows.append(dict(zip(columns, map(str, values))))
            series.append((f"{kind} a={alpha}", [(float(g), s) for g, s in zip(gammas, curve)]))
            print(f"alpha={alpha} {kind}: best gamma={star} speedup={peak:.4f}")
    out = args.out or _default_out("theory")
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "theory.csv")
    write_summary_csv(csv_path, rows, columns)
    with open(os.path.join(out, "theory.svg"), "w", encoding="utf-8") as fh:
        fh.write(render_curves(series, "speculation length", "speedup", "theoretical speedup"))
    print(f"theory -> {csv_path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    paths = render_report(args.run_dir, args.out)
    print(f"report -> {os.path.dirname(paths['summary.csv'])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Speculative-decoding laboratory: simulate, sweep, and report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and persist target + drafter models")
    p_train.add_argument("corpus")
    p_train.add_argument("--order", type=int, default=5)
    p_train.add_argument("--drafter-order", type=int, default=4)
    p_train.add_argument("--smoothing", type=float, default=0.1)
    p_train.add_argument("--drafter-smoothing", type=float, default=0.1)
    p_train.add_argument("--tokenizer", default="char")
    p_train.add_argument("--out")
    p_train.set_defaults(func=cmd_train)

    for name, fn, help_text in (
        ("run", cmd_run, "run one configured workload and render its report"),
        ("sweep", cmd_sweep, "expand config grids and run every case"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument("--out")
        p.add_argument("--max-tokens", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--verifier", choices=VERIFIER_KINDS)
        p.set_defaults(func=fn)

    p_theory = sub.add_parser("theory", help="closed-form speedup curves and maximizers")
    p_theory.add_argument("--alpha", type=float, nargs="+", default=[0.8])
    p_theory.add_argument("--gamma-max", type=int, default=40)
    p_theory.add_argument("--cost-ratio", type=float, default=0.05)
    p_theory.add_argument("--block-size", type=int, default=8)
    p_theory.add_argument("--out")
    p_theory.set_defaults(func=cmd_theory)

    p_report = sub.add_parser("report", help="rebuild the report bundle from transcripts")
    p_report.add_argument("run_dir")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # unreadable/unwritable paths outside our wrappers
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
