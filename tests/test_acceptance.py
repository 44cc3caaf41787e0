"""Acceptance suite: the nine end-to-end guarantees this package ships with.

Each test prints one ``[acceptance] <name>: PASS`` / ``FAIL`` line on the
real stdout so the gate survives pytest's output capture. The criteria:

1.  losslessness          greedy speculation == vanilla decoding, bit for bit,
                          on 100+ prompts from every shipped corpus and every
                          policy family, in under 30 s.
2.  stochastic-equivalence speculative sampling preserves the target
                          distribution: analytic enumeration at draft length
                          1 (1e-12) and seeded Monte Carlo at lengths <= 3
                          (TV <= 0.01, 1e5 trials), in under 60 s.
3.  theory-closed-forms   frozen closed-form speedups to 1e-9, the
                          block-boundary sawtooth, and block-parallel
                          dominance of the maximizer, in under 5 s.
4.  iid-speedup-prediction on the i.i.d.-difficulty corpus the measured
                          speedup of fixed block drafting is within 5% of the
                          closed form at the measured per-token agreement
                          rate, over 200k+ rollout tokens, in under 2 min.
5.  agreement-concavity   drafter agreement vs denoising steps on the mixed
                          corpus is nondecreasing with nonincreasing
                          increments (1pp noise), over 10k+ scored tokens.
6.  failfast-dominance    on the mixed corpus the adaptive policy beats the
                          best fixed block length by >= 10% speedup with
                          strictly fewer rounds and strictly fewer drafter
                          passes per output token.
7.  adaptive-length-invariants  draft lengths are chunk-aligned, capped, or
                          end-of-text cut; fully confident text runs to the
                          cap; a sub-threshold first chunk stops at one step;
                          raising the threshold never lengthens a draft.
8.  metrics-fidelity      every reported statistic matches a brute-force
                          recomputation on 1000 random synthetic transcripts
                          (counts exact, ratios to 1e-9); bonus tokens are
                          never counted as accepted.
9.  determinism           identical config + seed give byte-identical
                          transcripts and report bundles, and transcript JSON
                          round-trips losslessly.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from speclab.analysis import (
    EASY,
    HARD,
    EasyHardRaster,
    accepted_length_cdf,
    agreement_by_steps,
    build_raster,
    consecutive_easy_ratio,
    easy_hard_flags,
    latency_breakdown,
    summarize,
)
from speclab.config import load_config, materialize
from speclab.corpora import sample_prompts
from speclab.drafter import ONE_STEP, DiffusionDrafter, DraftProposal
from speclab.engine import CostModel, RoundRecord, SweepCase, Transcript, run_episode, run_workload
from speclab.ngram import argmax_token, train_ngram
from speclab.policies import FailFast, FixedAR, FixedDLLM
from speclab.report import render_report
from speclab.theory import (
    DRAFTER_AR,
    DRAFTER_BLOCK,
    best_gamma,
    speedup_curve,
    theoretical_speedup,
)
from speclab.verifier import accept_probability, residual_distribution, vanilla_decode, verify_stochastic

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "workloads")


@contextmanager
def acceptance(name: str):
    """Scope one criterion's assertions.

    The authoritative ``[acceptance] <name>: PASS/FAIL`` line is emitted by
    the terminal-summary hook in conftest (driven by the ``acceptance``
    marker), where pytest's output capture cannot swallow it; this context
    only tags the captured output of a failing criterion.
    """
    try:
        yield
    except BaseException:
        print(f"[criterion failed] {name}")
        raise


# --------------------------------------------------------------------------
# 1. losslessness


@pytest.mark.acceptance("losslessness")
def test_losslessness_across_corpora_and_policies(
    periodic_lab, high_entropy_lab, mixed_lab, iid_lab
):
    with acceptance("losslessness"):
        start = time.perf_counter()
        policies = [
            FixedAR(8),
            FixedDLLM(8),
            FixedDLLM(16, mode=ONE_STEP),
            FailFast(),
        ]
        labs = {
            "periodic": periodic_lab,
            "high_entropy": high_entropy_lab,
            "mixed": mixed_lab,
            "iid": iid_lab,
        }
        max_tokens = 40
        for name, lab in labs.items():
            prompts = lab.prompts(100, seed=101)
            for i, prompt in enumerate(prompts):
                reference = vanilla_decode(lab.target, prompt, max_tokens)
                for policy in policies:
                    t = run_episode(
                        lab.target, lab.drafter, policy, CostModel(), prompt, max_tokens,
                        seed=[101, i],
                    )
                    assert t.output == reference, (
                        f"{name} prompt {i}: {policy.label()} diverged from vanilla"
                    )
        assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 2. stochastic-equivalence


@pytest.fixture(scope="module")
def small_vocab_pair():
    """Target and drafter over a 4-token vocabulary (a, b, c, <eos>)."""
    docs = [list("abacbcabcb"), list("bcabacbaca")]
    target = train_ngram(docs, order=2, smoothing=0.3)
    drafter = train_ngram(docs, order=1, smoothing=0.8, vocabulary=target.vocabulary)
    return target, drafter


def _sample_from(dist: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(dist)
    return min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), len(dist) - 1)


@pytest.mark.acceptance("stochastic-equivalence")
def test_stochastic_sampling_matches_target(small_vocab_pair):
    with acceptance("stochastic-equivalence"):
        start = time.perf_counter()
        target, drafter = small_vocab_pair
        vocab = target.vocabulary
        assert len(vocab) <= 4
        size = len(vocab)

        # Analytic enumeration, draft length 1: for every prefix, the induced
        # committed-token distribution must equal the target's conditional
        # exactly. P(x) = q(x) a(x) + [sum_t q(t)(1 - a(t))] r(x).
        for text in ("a", "b", "c", "ab", "ba", "cb"):
            ctx = vocab.encode(text)
            p = target.next_distribution(ctx)
            q = drafter.next_distribution(ctx)
            acc = [accept_probability(p, q, t) for t in range(size)]
            residual = residual_distribution(p, q)
            reject_mass = math.fsum(q[t] * (1.0 - acc[t]) for t in range(size))
            for x in range(size):
                induced = q[x] * acc[x] + reject_mass * residual[x]
                assert abs(induced - p[x]) <= 1e-12

        # Seeded Monte Carlo through the real verifier, draft lengths 1..3:
        # drafts are sampled from the drafter's own chain, and the first
        # committed token must be distributed as the target's conditional.
        ctx = vocab.encode("ab")
        p = target.next_distribution(ctx)
        trials = 100_000
        for draft_len in (1, 2, 3):
            rng = np.random.default_rng([2024, draft_len])
            counts = np.zeros(size)
            for _ in range(trials):
                chain = list(ctx)
                tokens: list[int] = []
                dists: list[np.ndarray] = []
                for _ in range(draft_len):
                    q = drafter.next_distribution(chain)
                    tok = _sample_from(q, rng)
                    tokens.append(tok)
                    dists.append(q)
                    chain.append(tok)
                proposal = DraftProposal(tokens, [1.0] * draft_len, dists, forward_passes=1)
                result = verify_stochastic(target, ctx, proposal, rng)
                first = tokens[0] if result.accepted_len >= 1 else result.replacement
                counts[first] += 1
            tv = 0.5 * float(np.abs(counts / trials - p).sum())
            assert tv <= 0.01, f"draft_len={draft_len}: TV={tv:.4f}"
        assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 3. theory-closed-forms


@pytest.mark.acceptance("theory-closed-forms")
def test_closed_form_speedup_model():
    with acceptance("theory-closed-forms"):
        start = time.perf_counter()
        # Three frozen closed forms.
        assert abs(theoretical_speedup(0.8, 4, 0.0) - 3.3616) <= 1e-9
        assert abs(
            theoretical_speedup(0.8, 16, 0.05, DRAFTER_BLOCK, 8) - (1 - 0.8**17) / 0.2 / 1.1
        ) <= 1e-9
        assert abs(
            theoretical_speedup(0.8, 17, 0.05, DRAFTER_BLOCK, 8) - (1 - 0.8**18) / 0.2 / 1.15
        ) <= 1e-9

        # Sawtooth: the block-parallel curve over gamma = 1..40 drops exactly
        # when a new block of drafter compute is opened.
        curve = speedup_curve(0.8, range(1, 41), 0.05, DRAFTER_BLOCK, 8)
        drops = [g for g in range(2, 41) if curve[g - 1] < curve[g - 2]]
        assert drops == [9, 17, 25, 33]

        # Whenever drafting costs anything, block parallelism shifts the best
        # speculation length out and lifts the peak strictly.
        for alpha in (0.6, 0.7, 0.8, 0.9):
            for cost in (0.02, 0.05, 0.1, 0.2):
                ar_gamma, ar_peak = best_gamma(alpha, range(1, 41), cost, DRAFTER_AR)
                bp_gamma, bp_peak = best_gamma(alpha, range(1, 41), cost, DRAFTER_BLOCK, 8)
                assert bp_gamma >= ar_gamma
                assert bp_peak > ar_peak
        assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# 4. iid-speedup-prediction


@pytest.mark.acceptance("iid-speedup-prediction")
def test_iid_speedup_matches_theory(iid_lab):
    with acceptance("iid-speedup-prediction"):
        start = time.perf_counter()
        target = iid_lab.target
        backbone = iid_lab.drafter.backbone
        attractor = iid_lab.docs[0]
        prompts = [
            target.vocabulary.encode(text)
            for text in sample_prompts(
                [attractor], 400, length=12, seed=7, max_start=len(attractor) - 20
            )
        ]
        rollout_tokens = 500

        # Per-token agreement rate: drafter argmax given the TRUE prefix
        # versus each rollout token. This is the alpha of the i.i.d. model.
        matches = 0
        total = 0
        for prompt in prompts:
            rollout = vanilla_decode(target, prompt, rollout_tokens)
            ctx = list(prompt)
            for tok in rollout:
                if argmax_token(backbone.next_distribution(ctx)) == tok:
                    matches += 1
                ctx.append(tok)
            total += len(rollout)
        assert total >= 200_000
        alpha = matches / total
        assert 0.0 < alpha < 1.0

        cost = CostModel()
        for gamma in (8, 16, 24):
            case = SweepCase(
                label=f"iid-g{gamma}",
                target=target,
                drafter=iid_lab.drafter,
                policy=FixedDLLM(gamma, mode=ONE_STEP),
                cost=cost,
                max_tokens=rollout_tokens,
                seed=0,
            )
            measured = summarize(run_workload(case, prompts)).speedup
            predicted = theoretical_speedup(alpha, gamma, 0.05, DRAFTER_BLOCK, 8)
            rel_err = abs(measured - predicted) / predicted
            assert rel_err <= 0.05, (
                f"gamma={gamma}: measured {measured:.4f} vs predicted {predicted:.4f} "
                f"(alpha={alpha:.4f}, rel_err={rel_err:.4f})"
            )
        assert time.perf_counter() - start < 120.0


# --------------------------------------------------------------------------
# 5. agreement-concavity


@pytest.mark.acceptance("agreement-concavity")
def test_agreement_curve_concavity(mixed_lab):
    with acceptance("agreement-concavity"):
        prompts = mixed_lab.prompts(64, seed=5)
        rollout_tokens = 176
        curve = agreement_by_steps(mixed_lab.target, mixed_lab.drafter, prompts, rollout_tokens)
        assert len(curve) == 8
        scored = len(prompts) * rollout_tokens
        assert scored >= 10_000  # every rollout is full-length by construction

        diffs = [b - a for a, b in zip(curve, curve[1:])]
        # Nondecreasing: more denoising steps never hurt agreement.
        assert all(d >= -1e-9 for d in diffs), curve
        # Concave within one percentage point of measurement noise.
        assert all(later <= earlier + 0.01 for earlier, later in zip(diffs, diffs[1:])), diffs
        # The curve spans a real dynamic range (one step is much worse than
        # eight), which is what makes the step budget a meaningful knob.
        assert curve[-1] - curve[0] > 0.2


# --------------------------------------------------------------------------
# 6. failfast-dominance


@pytest.mark.acceptance("failfast-dominance")
def test_failfast_dominates_fixed_lengths(mixed_lab):
    with acceptance("failfast-dominance"):
        prompts = mixed_lab.prompts(40, seed=3)
        max_tokens = 192

        def run_policy(policy):
            case = SweepCase(
                label=policy.label(),
                target=mixed_lab.target,
                drafter=mixed_lab.drafter,
                policy=policy,
                max_tokens=max_tokens,
                seed=1,
            )
            return run_workload(case, prompts)

        ff_transcripts = run_policy(FailFast())
        ff = summarize(ff_transcripts)

        # Precondition of the claim: the workload really is dominated by long
        # easy stretches (half the tokens sit in easy runs longer than 10).
        easy_run_fraction = consecutive_easy_ratio(build_raster(ff_transcripts), [10])[0]
        assert easy_run_fraction >= 0.5

        def passes_per_token(transcripts):
            passes = sum(r.drafter_passes for t in transcripts for r in t.rounds)
            tokens = sum(len(t.output) for t in transcripts)
            return passes / tokens

        best = None
        for n in range(3, 21):
            transcripts_n = run_policy(FixedDLLM(n))
            stats_n = summarize(transcripts_n)
            if best is None or stats_n.speedup > best[1].speedup:
                best = (n, stats_n, transcripts_n)
        best_n, fixed, fixed_transcripts = best

        assert ff.speedup >= 1.10 * fixed.speedup, (
            f"failfast {ff.speedup:.3f} vs fixed_dllm({best_n}) {fixed.speedup:.3f}"
        )
        assert ff.rounds < fixed.rounds
        assert passes_per_token(ff_transcripts) < passes_per_token(fixed_transcripts)


# --------------------------------------------------------------------------
# 7. adaptive-length-invariants


def _random_setup(seed: int):
    rng = np.random.default_rng(seed)
    text = "".join(rng.choice(list("abcd"), size=240))
    drafter = DiffusionDrafter(train_ngram([list(text)], order=3, smoothing=0.1))
    start = int(rng.integers(0, 200))
    prefix = drafter.backbone.vocabulary.encode(text[start : start + 6])
    return drafter, prefix


@pytest.mark.acceptance("adaptive-length-invariants")
def test_adaptive_length_invariants():
    with acceptance("adaptive-length-invariants"):
        # Pinned behaviours on closed-form corpora.
        confident = DiffusionDrafter(train_ngram([list("a" * 100)], order=2, smoothing=0.0))
        prefix = [confident.backbone.vocabulary.id_of("a")]
        assert len(FailFast().propose(confident, prefix).tokens) == 60

        split = DiffusionDrafter(
            train_ngram([list("ab" * 20), list("ac" * 20)], order=2, smoothing=0.0)
        )
        prefix = [split.backbone.vocabulary.id_of("a")]
        cfg = FailFast(confidence_threshold=0.6)
        assert len(cfg.propose(split, prefix).tokens) == cfg.step_size

        # Randomized corpora: chunk-aligned, capped, or cut just after the
        # end-of-text marker; never past the cap.
        rng = np.random.default_rng(77)
        for _ in range(30):
            drafter, prefix = _random_setup(int(rng.integers(0, 10_000)))
            step = int(rng.integers(2, 13))
            tau = float(rng.uniform(0.05, 0.95))
            cfg = FailFast(step_size=step, confidence_threshold=tau, max_length=36)
            proposal = cfg.propose(drafter, prefix)
            n = len(proposal.tokens)
            eos = drafter.backbone.vocabulary.eos_id
            assert 1 <= n <= cfg.max_length
            assert n % step == 0 or n == cfg.max_length or proposal.tokens[-1] == eos

        # Raising the threshold can only shorten the draft on a fixed prefix.
        for _ in range(15):
            drafter, prefix = _random_setup(int(rng.integers(0, 10_000)))
            low = float(rng.uniform(0.05, 0.85))
            high = min(low + float(rng.uniform(0.01, 0.1)), 0.99)
            lenient = FailFast(confidence_threshold=low).propose(drafter, prefix)
            strict = FailFast(confidence_threshold=high).propose(drafter, prefix)
            assert len(strict.tokens) <= len(lenient.tokens)


# --------------------------------------------------------------------------
# 8. metrics-fidelity


def _synthetic_transcript(rng: np.random.Generator) -> Transcript:
    rounds = []
    out_len = 0
    for _ in range(int(rng.integers(1, 9))):
        proposed = int(rng.integers(1, 24))
        accepted = int(rng.integers(0, proposed + 1))
        kind = "bonus" if accepted == proposed else "correction"
        passes = int(rng.integers(1, 6))
        rounds.append(
            RoundRecord(
                proposed_len=proposed,
                accepted_len=accepted,
                drafter_passes=passes,
                replacement_kind=kind,
                proposed_tokens=[0] * proposed,
                replacement_token=0,
                confidences=[0.5] * proposed,
                draft_latency=0.05 * passes,
                verify_latency=1.0 + max(0, proposed + 1 - 64) / 64,
            )
        )
        out_len += accepted + 1
    out_len -= int(rng.integers(0, 2))  # sometimes the cap trims the tail
    draft = math.fsum(r.draft_latency for r in rounds)
    verify = math.fsum(r.verify_latency for r in rounds)
    return Transcript(
        config={}, seed=[0], prompt=[0], vocab=["a", "<eos>"], rounds=rounds,
        output=[0] * out_len, draft_latency=draft, verify_latency=verify,
        total_latency=draft + verify, vanilla_latency=float(out_len),
        speedup=out_len / (draft + verify),
    )


@pytest.mark.acceptance("metrics-fidelity")
def test_metrics_match_brute_force():
    with acceptance("metrics-fidelity"):
        rng = np.random.default_rng(88)
        transcripts = [_synthetic_transcript(rng) for _ in range(1000)]

        # --- summary statistics ---
        stats = summarize(transcripts)
        acc = spec = passes = nrounds = 0
        for t in transcripts:
            for r in t.rounds:
                acc += r.accepted_len
                spec += r.proposed_len
                passes += r.drafter_passes
                nrounds += 1
        assert stats.rounds == nrounds
        assert stats.max_accepted_len == max(r.accepted_len for t in transcripts for r in t.rounds)
        assert stats.max_speculated_len == max(r.proposed_len for t in transcripts for r in t.rounds)
        assert abs(stats.acceptance_rate - acc / spec) <= 1e-9
        assert abs(stats.avg_accepted_len - acc / nrounds) <= 1e-9
        assert abs(stats.avg_speculated_len - spec / nrounds) <= 1e-9
        assert abs(stats.drafter_passes_per_round - passes / nrounds) <= 1e-9
        vanilla = math.fsum(t.vanilla_latency for t in transcripts)
        total = math.fsum(t.total_latency for t in transcripts)
        assert abs(stats.speedup - vanilla / total) <= 1e-9

        # Global-totals rate, not a mean of per-round rates; and a fully
        # accepted draft scores accepted == speculated with no bonus +1.
        all_bonus = [t for t in transcripts if all(r.replacement_kind == "bonus" for r in t.rounds)]
        if all_bonus:
            assert summarize(all_bonus).acceptance_rate == 1.0

        # --- easy/hard flags and run ratios ---
        raster = build_raster(transcripts)
        for t, row in zip(transcripts, raster.rows):
            flags = []
            for r in t.rounds:
                flags.extend([EASY] * r.accepted_len)
                flags.append(EASY if r.replacement_kind == "bonus" else HARD)
            flags = flags[: len(t.output)]
            assert row[: len(flags)] == flags
            assert all(c == "absent" for c in row[len(flags) :])

        thresholds = [0, 2, 5, 10, 20]
        got = consecutive_easy_ratio(raster, thresholds)
        run_lengths = []
        denom = 0
        for row in raster.rows:
            run = 0
            for flag in row:
                if flag == EASY:
                    run += 1
                    denom += 1
                else:
                    if run:
                        run_lengths.append(run)
                    run = 0
                    if flag == HARD:
                        denom += 1
            if run:
                run_lengths.append(run)
        for x, got_ratio in zip(thresholds, got):
            expected = sum(L for L in run_lengths if L > x) / denom
            assert abs(got_ratio - expected) <= 1e-9

        # --- length CDFs ---
        acc_cdf, spec_cdf = accepted_length_cdf(transcripts)
        for points, values in (
            (acc_cdf, [r.accepted_len for t in transcripts for r in t.rounds]),
            (spec_cdf, [r.proposed_len for t in transcripts for r in t.rounds]),
        ):
            values.sort()
            assert [v for v, _ in points] == sorted(set(values))
            for v, frac in points:
                below = sum(1 for x in values if x <= v)
                assert abs(frac - below / len(values)) <= 1e-9
            assert abs(points[-1][1] - 1.0) <= 1e-12

        # --- latency breakdown ---
        b = latency_breakdown(transcripts)
        draft = math.fsum(t.draft_latency for t in transcripts)
        verify = math.fsum(t.verify_latency for t in transcripts)
        assert abs(b.draft_latency - draft) <= 1e-9
        assert abs(b.verify_latency - verify) <= 1e-9
        assert abs(b.draft_share - draft / (draft + verify)) <= 1e-9
        assert abs(b.draft_share + b.verify_share - 1.0) <= 1e-12


# --------------------------------------------------------------------------
# 9. determinism


@pytest.mark.acceptance("determinism")
def test_determinism_and_round_trip(tmp_path):
    with acceptance("determinism"):
        config = load_config(os.path.join(WORKLOADS, "mixed_failfast.json"))
        # Trimmed for test runtime; both executions share the exact config.
        config["max_tokens"] = 96

        def execute(out_dir):
            runs = materialize(config, WORKLOADS)
            assert len(runs) == 1
            transcripts = run_workload(runs[0].case, runs[0].prompts[:12])
            os.makedirs(out_dir, exist_ok=True)
            for i, t in enumerate(transcripts):
                t.save(os.path.join(out_dir, f"transcript_{i:04d}.json"))
            render_report(out_dir)
            return transcripts

        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        first = execute(dir_a)
        second = execute(dir_b)

        for name in sorted(os.listdir(dir_a)):
            a = open(os.path.join(dir_a, name), "rb").read()
            b = open(os.path.join(dir_b, name), "rb").read()
            assert a == b, f"{name} differs between identical runs"

        for t in first:
            back = Transcript.from_json(t.to_json())
            assert back == t
            assert back.to_json() == t.to_json()
        assert [t.to_json() for t in first] == [t.to_json() for t in second]
