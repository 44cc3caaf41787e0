"""Outside-in tracing of speclab's layers, wrapped from the benchmark's side.

A span is recorded around each call at a layer boundary: (name, start, end,
parent span, episode id, leaf seconds inside it). Leaf calls --
``NGramModel.next_distribution``, ``argmax_token`` and ``tokenize`` -- run
tens of thousands of times per pass, and a span per call about doubles the
loop, so they are counted and timed in aggregate instead. Their time is
charged to the enclosing span, so self times still partition the pass.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager

from speclab import config, drafter, engine, ngram, policies, report, verifier

from suite import patched

SPANS = (
    (config, "materialize", "config.materialize"),
    (config, "read_corpus", "config.read_corpus"),
    (engine, "run_workload", "engine.run_workload"),
    (engine, "sweep", "engine.sweep"),
    (policies.FixedAR, "propose", "policies.propose"),
    (policies.FixedDLLM, "propose", "policies.propose"),
    (policies.FailFast, "propose", "policies.propose"),
    (drafter, "one_step_block", "drafter.one_step_block"),
    (drafter, "denoise_step", "drafter.denoise_step"),
    (engine, "verify_greedy", "verifier.verify_greedy"),
    (engine, "verify_stochastic", "verifier.verify_stochastic"),
    (engine.Transcript, "save", "engine.save"),
    (engine.Transcript, "to_json", "engine.to_json"),
    (report, "render_report", "report.render_report"),
    (report, "load_transcripts", "report.load_transcripts"),
    (report, "summarize", "analysis.summarize"),
    (report, "latency_breakdown", "analysis.latency_breakdown"),
    (report, "accepted_length_cdf", "analysis.accepted_length_cdf"),
    (report, "build_raster", "analysis.build_raster"),
    (report, "consecutive_easy_ratio", "analysis.consecutive_easy_ratio"),
    (report, "render_raster", "svg.render_raster"),
    (report, "render_step_cdfs", "svg.render_step_cdfs"),
    (report, "render_breakdown", "svg.render_breakdown"),
)
LEAVES = (
    (config, "tokenize", "tokenizers.tokenize"),
    (ngram, "argmax_token", "ngram.argmax_token"),
    (drafter, "argmax_token", "ngram.argmax_token"),
    (policies, "argmax_token", "ngram.argmax_token"),
    (verifier, "argmax_token", "ngram.argmax_token"),
)
LOOKUP = "ngram.next_distribution"


class Tracer:
    """Spans and leaf aggregates of one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list[int] = []
        self._leaf_in: list[float] = []
        self._episode: str | None = None
        self._cases: dict[str, int] = {}
        self.leaf_calls: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.contexts: set = set()
        self.trained_contexts = 0

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            self._leaf_in.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, self._episode, self._leaf_in.pop())

        return traced

    def leaf(self, name: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            self.leaf_calls[name] += 1
            self.leaf_s[name] += seconds
            if self._leaf_in:
                self._leaf_in[-1] += seconds
            return result

        return timed

    def lookup(self, fn):
        """``next_distribution``, also counting distinct (model, context) keys:
        the calls a per-model cache could not have served."""
        timed = self.leaf(LOOKUP, fn)

        def traced(model, context):
            k = model.order - 1
            self.contexts.add((id(model), tuple(context[-k:]) if k else ()))
            return timed(model, context)

        return traced

    def episode(self, fn):
        """``run_episode``, tagging every span inside with a case/prompt id."""
        span = self.span("engine.run_episode", fn)

        def traced(*args, **kwargs):
            label = kwargs["config_snapshot"]["label"]
            case = self._cases.setdefault(label, len(self._cases))
            self._episode = f"{case}/{kwargs['seed'][1]}"
            try:
                return span(*args, **kwargs)
            finally:
                self._episode = None

        return traced

    def train(self, fn):
        span = self.span("ngram.train", fn)

        def traced(*args, **kwargs):
            model = span(*args, **kwargs)
            self.trained_contexts += len(model.counts)
            return model

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced public call for the duration of the block."""
        with ExitStack() as stack:
            for obj, attr, name in SPANS:
                stack.enter_context(patched(obj, attr, self.span(name, getattr(obj, attr))))
            for obj, attr, name in LEAVES:
                stack.enter_context(patched(obj, attr, self.leaf(name, getattr(obj, attr))))
            nd = ngram.NGramModel.next_distribution
            stack.enter_context(patched(ngram.NGramModel, "next_distribution", self.lookup(nd)))
            stack.enter_context(patched(engine, "run_episode", self.episode(engine.run_episode)))
            stack.enter_context(patched(config, "train_ngram", self.train(config.train_ngram)))
            yield self

    def self_times(self) -> dict[str, float]:
        """Self time per span name: its duration minus what its child spans
        and the leaf calls inside it cover; leaves count as their own names."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict = defaultdict(float, self.leaf_s)
        for i, (name, start, end, _, _, leaf) in enumerate(self.spans):
            out[name] += end - start - covered[i] - leaf
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        self_s = defaultdict(float, self.self_times())
        calls = Counter(span[0] for span in self.spans)
        lookups = self.leaf_calls[LOOKUP]

        def total(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        return {
            "corpora.read_tokenize_s": self_s["config.read_corpus"] + self_s["tokenizers.tokenize"],
            "ngram.train_s": self_s["ngram.train"],
            "ngram.train_contexts": self.trained_contexts,
            "ngram.lookup_calls": lookups,
            "ngram.lookup_s": self_s[LOOKUP],
            "ngram.lookup_distinct": len(self.contexts),
            "ngram.lookup_miss_share": len(self.contexts) / lookups,
            "ngram.argmax_calls": self.leaf_calls["ngram.argmax_token"],
            "ngram.argmax_s": self_s["ngram.argmax_token"],
            "drafter.one_step_calls": calls["drafter.one_step_block"],
            "drafter.denoise_calls": calls["drafter.denoise_step"],
            "drafter.block_s": total("drafter."),
            "policies.propose_s": self_s["policies.propose"],
            "verifier.verify_s": total("verifier."),
            "engine.episode_self_s": self_s["engine.run_episode"],
            "engine.to_json_s": self_s["engine.to_json"],
            "engine.save_s": self_s["engine.save"],
            "report.load_s": self_s["report.load_transcripts"],
            "report.render_self_s": self_s["report.render_report"],
            "analysis.s": total("analysis."),
            "svg.render_s": total("svg."),
        }

    def module_self_times(self) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for name, seconds in self.self_times().items():
            out[name.split(".")[0]] += seconds
        return dict(sorted(out.items()))

    def write(self, path: str) -> None:
        """Spans as JSON lines, one ``[name, start, end, parent, episode,
        leaf_s]`` array per span; the parent is a line index, -1 for none."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
