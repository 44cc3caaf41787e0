"""Output checks, digests and the simulated results of a pass.

Every episode is checked outside the timed stages:

* its saved transcript round-trips through ``Transcript.from_json``;
* structural invariants hold (accepted <= proposed, round fields agree, the
  output is what the rounds commit, at most ``max_tokens`` long, latency
  totals add up);
* under greedy verification, its output equals ``verifier.vanilla_decode``.

Under stochastic verification no per-episode check can see whether the
committed tokens follow the target distribution. The known defect there --
drafts are argmax tokens, yet ``verify_stochastic`` accepts them with
min(1, p/q) as if they were sampled from q, which biases the output --
passes every check on ``high-entropy-stochastic``. It is recorded here, not
hidden.
"""

from __future__ import annotations

import hashlib
import math
import os

from speclab import engine, verifier

BUNDLE_FILES = ("summary.csv", "metrics.json", "raster.svg", "cdf.svg", "breakdown.svg", "trajectory.txt")


def invariant_errors(t: engine.Transcript, max_tokens: int, eos: int) -> list[str]:
    errors = []
    committed: list[int] = []
    for k, r in enumerate(t.rounds):
        if not 0 <= r.accepted_len <= r.proposed_len:
            errors.append(f"round {k}: accepted {r.accepted_len} of {r.proposed_len}")
        if not r.proposed_len == len(r.proposed_tokens) == len(r.confidences):
            errors.append(f"round {k}: proposal fields disagree")
        if (r.replacement_kind == verifier.BONUS) != (r.accepted_len == r.proposed_len):
            errors.append(f"round {k}: {r.replacement_kind} after {r.accepted_len}/{r.proposed_len}")
        committed += r.proposed_tokens[: r.accepted_len] + [r.replacement_token]
    if eos in committed:
        committed = committed[: committed.index(eos)]
    if committed[:max_tokens] != t.output:
        errors.append("output is not what the rounds commit")
    if len(t.output) > max_tokens:
        errors.append(f"output has {len(t.output)} > {max_tokens} tokens")
    if t.total_latency != t.draft_latency + t.verify_latency:
        errors.append("latency totals do not add up")
    if not math.isclose(t.draft_latency, math.fsum(r.draft_latency for r in t.rounds)):
        errors.append("draft latency is not the sum of its rounds")
    return errors


def transcript_paths(results, case_dirs: list[str]) -> list[str]:
    return [
        os.path.join(case_dir, f"transcript_{j:04d}.json")
        for (_, transcripts), case_dir in zip(results, case_dirs)
        for j in range(len(transcripts))
    ]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_pass(results, case_dirs: list[str]) -> list[str]:
    """Check every episode of a pass; returns one message per failed episode."""
    failed: list[str] = []
    vanilla: dict[tuple[int, ...], list[int]] = {}
    for (case, transcripts), case_dir in zip(results, case_dirs):
        eos = case.target.vocabulary.eos_id
        for j, t in enumerate(transcripts):
            errors = invariant_errors(t, case.max_tokens, eos)
            if engine.Transcript.load(os.path.join(case_dir, f"transcript_{j:04d}.json")) != t:
                errors.append("transcript does not round-trip through JSON")
            if case.verifier == engine.VERIFIER_GREEDY:
                key = tuple(t.prompt)
                if key not in vanilla:
                    vanilla[key] = verifier.vanilla_decode(case.target, t.prompt, case.max_tokens)
                if t.output != vanilla[key]:
                    errors.append("output differs from vanilla greedy decoding")
            if errors:
                failed.append(f"{case.label} #{j}: " + "; ".join(errors))
    return failed


def bundle_digest(case_dirs: list[str]) -> str:
    """sha256 over every report bundle file, in case order."""
    h = hashlib.sha256()
    for i, case_dir in enumerate(case_dirs):
        for name in BUNDLE_FILES:
            h.update(f"{i:02d}/{name} {file_digest(os.path.join(case_dir, name))}\n".encode())
    return h.hexdigest()


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def sim_results(results) -> dict[str, float]:
    """Simulated results of a pass: deterministic, pooled over every episode."""
    transcripts = [t for _, ts in results for t in ts]
    rounds = [r for t in transcripts for r in t.rounds]
    tokens = sum(len(t.output) for t in transcripts)
    proposed = sum(r.proposed_len for r in rounds)
    return {
        "engine.sim_speedup": math.fsum(t.vanilla_latency for t in transcripts)
        / math.fsum(t.total_latency for t in transcripts),
        "verifier.rounds": len(rounds),
        "verifier.rounds_per_token": len(rounds) / tokens,
        "verifier.positions_scored": proposed + len(rounds),
        "drafter.passes_per_token": sum(r.drafter_passes for r in rounds) / tokens,
        "policies.draft_tokens": proposed,
        "policies.accepted_share": sum(r.accepted_len for r in rounds) / proposed,
    }
