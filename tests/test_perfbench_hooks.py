"""The benchmark's tracer wraps speclab functions by module attribute.

``perfbench/spans.py`` replaces names such as ``drafter.one_step_block``,
``drafter.denoise_step`` and ``policies.argmax_token`` while a traced pass
runs. A refactor that renames one of them, or stops calling it through its
module global, breaks the tracer or silently zeroes its counts without
failing any other test here; this guard catches both.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter

from speclab.drafter import CONFIDENCE_AWARE, ONE_STEP, DiffusionDrafter
from speclab.ngram import train_ngram

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_the_tracer_counts_every_decoded_pass(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
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
