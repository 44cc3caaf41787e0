"""Shared fixtures.

Model training is the slow part of this suite (the engineered-difficulty
corpus alone is 4500 documents and its target is order 8), so each corpus's
trained target/drafter pair is built once per session and shared between the
unit tests and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from speclab.corpora import (
    high_entropy_corpus,
    iid_difficulty_corpus,
    mixed_corpus,
    periodic_corpus,
    sample_prompts,
)
from speclab.drafter import DiffusionDrafter
from speclab.ngram import NGramModel, train_ngram
from speclab.tokenizers import tokenize


@dataclass
class Lab:
    """A corpus plus the target/drafter pair trained on it."""

    docs: list[str]
    target: NGramModel
    drafter: DiffusionDrafter

    def prompts(
        self,
        count: int,
        length: int = 12,
        seed: int = 0,
        docs: list[str] | None = None,
        max_start: int | None = None,
    ) -> list[list[int]]:
        """Seeded prompt windows, encoded to token ids."""
        texts = sample_prompts(
            self.docs if docs is None else docs,
            count,
            length=length,
            seed=seed,
            max_start=max_start,
        )
        return [self.target.vocabulary.encode(tokenize(t, "char")) for t in texts]


def make_lab(docs: list[str], target_order: int, drafter_order: int) -> Lab:
    toks = [tokenize(d, "char") for d in docs]
    table = train_ngram(toks, order=max(target_order, drafter_order))
    target = table.with_order(target_order, 0.1)
    return Lab(docs, target, DiffusionDrafter(table.with_order(drafter_order, 0.1)))


@pytest.fixture(scope="session")
def mixed_lab() -> Lab:
    return make_lab(mixed_corpus(), 5, 4)


@pytest.fixture(scope="session")
def periodic_lab() -> Lab:
    return make_lab(periodic_corpus(), 5, 4)


@pytest.fixture(scope="session")
def high_entropy_lab() -> Lab:
    return make_lab(high_entropy_corpus(), 5, 4)


@pytest.fixture(scope="session")
def iid_lab() -> Lab:
    return make_lab(iid_difficulty_corpus(), 8, 4)


# --------------------------------------------------------------------------
# Acceptance gate reporting.
#
# Tests marked @pytest.mark.acceptance("<criterion>") get one stable
# "[acceptance] <criterion>: PASS/FAIL" line in the terminal summary, where
# output capture cannot swallow it.

_acceptance_results: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(name): end-to-end acceptance criterion gate"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    name = marker.args[0]
    if report.failed:
        _acceptance_results[name] = "FAIL"
    elif report.when == "call" and report.passed:
        _acceptance_results.setdefault(name, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict in _acceptance_results.items():
        terminalreporter.write_line(f"[acceptance] {name}: {verdict}")
