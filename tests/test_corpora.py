"""Synthetic corpus generators: determinism, shape, and difficulty structure."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from speclab.corpora import (
    MIXED_PHRASES,
    high_entropy_corpus,
    iid_difficulty_corpus,
    mixed_corpus,
    periodic_corpus,
    sample_prompts,
)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        assert periodic_corpus(seed=3) == periodic_corpus(seed=3)
        assert high_entropy_corpus(seed=3, docs=5) == high_entropy_corpus(seed=3, docs=5)
        assert mixed_corpus(seed=3, docs=5) == mixed_corpus(seed=3, docs=5)
        small = dict(path_count=40, path_length=30)
        assert iid_difficulty_corpus(seed=3, **small) == iid_difficulty_corpus(seed=3, **small)

    def test_different_seed_different_corpus(self):
        assert periodic_corpus(seed=1) != periodic_corpus(seed=2)
        assert high_entropy_corpus(seed=1, docs=5) != high_entropy_corpus(seed=2, docs=5)


class TestShape:
    def test_document_counts(self):
        assert len(periodic_corpus(docs=7)) == 7
        assert len(high_entropy_corpus(docs=9, doc_len=50)) == 9
        assert len(mixed_corpus(docs=4)) == 4
        # The walk corpus carries the attractor document up front.
        assert len(iid_difficulty_corpus(path_count=11, path_length=20)) == 12

    def test_single_line_documents(self):
        for doc in mixed_corpus(docs=3) + periodic_corpus(docs=3):
            assert "\n" not in doc
            assert "<eos>" not in doc


class TestMixedStructure:
    def test_documents_interleave_phrases_and_digit_runs(self):
        doc = mixed_corpus(docs=1)[0]
        assert any(phrase in doc for phrase in MIXED_PHRASES)
        assert any(c.isdigit() for c in doc)
        # Digit runs are contiguous islands, not sprinkled singles.
        runs = [len(r) for r in _digit_runs(doc)]
        assert runs and max(runs) >= 5

    def test_digit_runs_are_content_determined(self):
        # The same 4-character window must always chain to the same digit, or
        # a greedy order-5 rollout could not traverse hard segments stably.
        docs = mixed_corpus(docs=20)
        transitions: dict[str, str] = {}
        for doc in docs:
            for i in range(4, len(doc)):
                window, nxt = doc[i - 4 : i], doc[i]
                if window.isdigit() and nxt.isdigit():
                    assert transitions.setdefault(window, nxt) == nxt


def _digit_runs(doc):
    run = ""
    for ch in doc:
        if ch.isdigit():
            run += ch
        elif run:
            yield run
            run = ""
    if run:
        yield run


class TestIidStructure:
    def test_attractor_document_is_cyclic(self):
        docs = iid_difficulty_corpus(path_count=30, path_length=30, cycle_loops=3)
        head = docs[0]
        # anchor (7 chars) + cycle * 3: the tail must consist of repeats.
        body = head[7:]
        assert len(body) % 3 == 0
        cycle = body[: len(body) // 3]
        assert body == cycle * 3

    def test_walk_documents_avoid_the_cycle_alphabetically(self):
        docs = iid_difficulty_corpus(path_count=30, path_length=30)
        for doc in docs[1:]:
            assert len(doc) <= 30
            assert doc  # never empty


class TestSamplePrompts:
    def test_windows_come_from_the_corpus(self):
        docs = mixed_corpus(docs=5)
        prompts = sample_prompts(docs, 20, length=12, seed=4)
        assert len(prompts) == 20
        for p in prompts:
            assert len(p) == 12
            assert any(p in doc for doc in docs)

    def test_seeded_and_stable(self):
        docs = periodic_corpus(docs=5)
        assert sample_prompts(docs, 8, seed=1) == sample_prompts(docs, 8, seed=1)
        assert sample_prompts(docs, 8, seed=1) != sample_prompts(docs, 8, seed=2)

    def test_max_start_bounds_the_window(self):
        docs = ["abcdefghijklmnopqrstuvwxyz"]
        prompts = sample_prompts(docs, 50, length=4, seed=0, max_start=3)
        assert all(docs[0].index(p) < 3 for p in prompts)

    def test_returns_raw_text_not_ids(self):
        prompts = sample_prompts(["hello world"], 3, length=5, seed=0)
        assert all(isinstance(p, str) for p in prompts)


class TestShippedData:
    def test_make_corpora_reproduces_every_shipped_file(self, tmp_path, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
        spec = importlib.util.spec_from_file_location("make_corpora", root / "scripts" / "make_corpora.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "DATA_DIR", str(tmp_path))
        script.main()
        shipped = sorted(p.name for p in (root / "workloads" / "data").iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == shipped
        assert len(shipped) == 8
        for name in shipped:
            assert (tmp_path / name).read_bytes() == (root / "workloads" / "data" / name).read_bytes(), name
