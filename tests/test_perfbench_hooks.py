"""The benchmark's tracer wraps speclab functions by module attribute.

``perfbench/spans.py`` replaces names such as ``drafter.one_step_block``,
``drafter.denoise_step`` and ``policies.argmax_token`` while a traced pass
runs. A refactor that renames one of them, or stops calling it through its
module global, breaks the tracer or silently zeroes its counts without
failing any other test here; these guards catch both, for the drafter's
passes and for every span and leaf a run, a save and a report reach.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter

from speclab import config, engine, report
from speclab.drafter import CONFIDENCE_AWARE, ONE_STEP, DiffusionDrafter
from speclab.ngram import train_ngram

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def import_spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans")


def test_the_tracer_counts_every_decoded_pass(monkeypatch):
    spans = import_spans(monkeypatch)
    backbone = train_ngram([list("abababa")], order=2, smoothing=0.0)
    drafter = DiffusionDrafter(backbone, block_size=4)
    prefix = backbone.vocabulary.encode("b")
    tracer = spans.Tracer()
    with tracer.installed():
        drafter.block(prefix, ONE_STEP)
        drafter.block(prefix, CONFIDENCE_AWARE)
    calls = Counter(span[0] for span in tracer.spans)
    # After "b" the bigram unmasks one slot per denoise pass (see test_drafter).
    assert calls["drafter.one_step_block"] == 1
    assert calls["drafter.denoise_step"] == 4


def test_a_traced_run_save_and_report_reaches_every_span(monkeypatch, tmp_path):
    spans = import_spans(monkeypatch)
    (tmp_path / "corpus.txt").write_text("the cat sat on the mat.\n" * 8, encoding="utf-8")
    cfg = {
        "label": "traced",
        "train_corpus": "corpus.txt",
        "prompt_sample": {"count": 2, "length": 6},
        "target": {"order": 3, "smoothing": 0.1},
        "drafter": {"order": 2, "smoothing": 0.1, "block_size": 4},
        # one-step blocks for fail_fast, denoise passes for fixed_dllm
        "policy": {"kind": ["fail_fast", "fixed_dllm"], "draft_len": 4},
        "max_tokens": 12,
    }
    tracer = spans.Tracer()
    with tracer.installed():
        for i, run in enumerate(config.materialize(cfg, str(tmp_path))):
            out = tmp_path / f"case{i}"
            out.mkdir()
            for j, t in enumerate(engine.run_workload(run.case, run.prompts)):
                t.save(out / f"transcript_{j:04d}.json")
            report.render_report(out)
    calls = Counter(span[0] for span in tracer.spans)
    # A greedy run reaches every span but the sweep and the stochastic verifier.
    unreached = {"engine.sweep", "verifier.verify_stochastic"}
    expected = {name for _, _, name in spans.SPANS} - unreached | {"engine.run_episode"}
    assert {name for name in expected if calls[name] < 1} == set()
    assert tracer.leaf_calls[spans.LOOKUP] >= 1
