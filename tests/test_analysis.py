"""Transcript statistics: summary rows, difficulty rasters, CDFs, latency.

Synthetic transcripts are assembled round by round so every statistic has a
hand-countable oracle; a randomized batch is then checked against a
brute-force recomputation written as plain loops.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.analysis import (
    ABSENT,
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
from speclab.drafter import DiffusionDrafter
from speclab.engine import CostModel, RoundRecord, Transcript, run_episode
from speclab.errors import ConfigError
from speclab.ngram import train_ngram
from speclab.policies import FixedDLLM


def synth(round_specs, *, drop=0):
    """Build a transcript from (proposed, accepted, kind, passes) tuples.

    ``drop`` removes tokens from the end of the output the way an episode cap
    or end-of-text cut would, without touching the round records.
    """
    rounds = []
    out_len = 0
    for proposed, accepted, kind, passes in round_specs:
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
                verify_latency=1.0,
            )
        )
        out_len += accepted + 1
    out_len -= drop
    draft = math.fsum(r.draft_latency for r in rounds)
    verify = math.fsum(r.verify_latency for r in rounds)
    total = draft + verify
    vanilla = float(out_len)
    return Transcript(
        config={},
        seed=[0],
        prompt=[0],
        vocab=["a", "<eos>"],
        rounds=rounds,
        output=[0] * out_len,
        draft_latency=draft,
        verify_latency=verify,
        total_latency=total,
        vanilla_latency=vanilla,
        speedup=vanilla / total if total else 0.0,
    )


class TestSummarize:
    def test_two_round_oracle(self):
        t = synth([(10, 7, "correction", 1), (10, 7, "correction", 1)])
        stats = summarize(t)
        assert stats.acceptance_rate == pytest.approx(0.7, abs=1e-15)
        assert stats.avg_accepted_len == 7.0
        assert stats.avg_speculated_len == 10.0
        assert stats.max_accepted_len == 7
        assert stats.max_speculated_len == 10
        assert stats.rounds == 2
        assert stats.drafter_passes_per_round == 1.0

    def test_rate_uses_global_totals_not_round_means(self):
        # Per-round rates 1/1 and 1/9 average to 0.555...; the global total
        # is 2 accepted of 10 speculated = 0.2. Only the latter is correct.
        t = synth([(1, 1, "bonus", 1), (9, 1, "correction", 2)])
        stats = summarize(t)
        assert stats.acceptance_rate == pytest.approx(0.2, abs=1e-15)
        assert stats.drafter_passes_per_round == 1.5

    def test_bonus_token_is_not_counted_as_accepted(self):
        # One fully accepted draft of 4: the bonus makes 5 output tokens but
        # the acceptance rate must stay at 4/4.
        t = synth([(4, 4, "bonus", 1)])
        assert summarize(t).acceptance_rate == 1.0
        assert len(t.output) == 5

    def test_pooled_speedup_is_ratio_of_totals(self):
        a = synth([(4, 4, "bonus", 1)])
        b = synth([(4, 0, "correction", 1), (4, 0, "correction", 1)])
        stats = summarize([a, b])
        vanilla = a.vanilla_latency + b.vanilla_latency
        total = a.total_latency + b.total_latency
        assert stats.speedup == pytest.approx(vanilla / total, abs=1e-15)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ConfigError, match="no rounds to summarize"):
            summarize([])

    def test_matches_brute_force_on_random_batch(self):
        rng = np.random.default_rng(17)
        kinds = ["bonus", "correction"]
        transcripts = []
        for _ in range(100):
            specs = []
            for _ in range(int(rng.integers(1, 8))):
                proposed = int(rng.integers(1, 20))
                accepted = int(rng.integers(0, proposed + 1))
                kind = "bonus" if accepted == proposed else kinds[int(rng.integers(2))]
                if kind == "bonus":
                    accepted = proposed
                specs.append((proposed, accepted, kind, int(rng.integers(1, 5))))
            transcripts.append(synth(specs, drop=int(rng.integers(0, 2))))
        stats = summarize(transcripts)
        acc = spec = passes = nrounds = 0
        max_acc = max_spec = 0
        van = tot = 0.0
        for t in transcripts:
            for r in t.rounds:
                acc += r.accepted_len
                spec += r.proposed_len
                passes += r.drafter_passes
                nrounds += 1
                max_acc = max(max_acc, r.accepted_len)
                max_spec = max(max_spec, r.proposed_len)
            van += t.vanilla_latency
            tot += t.total_latency
        assert stats.acceptance_rate == pytest.approx(acc / spec, abs=1e-9)
        assert stats.avg_accepted_len == pytest.approx(acc / nrounds, abs=1e-9)
        assert stats.avg_speculated_len == pytest.approx(spec / nrounds, abs=1e-9)
        assert stats.max_accepted_len == max_acc
        assert stats.max_speculated_len == max_spec
        assert stats.rounds == nrounds
        assert stats.drafter_passes_per_round == pytest.approx(passes / nrounds, abs=1e-9)
        assert stats.speedup == pytest.approx(van / tot, abs=1e-9)


class TestEasyHardFlags:
    def test_accepted_and_bonus_are_easy_corrections_hard(self):
        t = synth([(3, 3, "bonus", 1), (5, 2, "correction", 1)])
        assert easy_hard_flags(t) == [EASY] * 4 + [EASY, EASY, HARD]

    def test_flags_are_cut_to_the_committed_output(self):
        t = synth([(3, 3, "bonus", 1), (5, 2, "correction", 1)], drop=2)
        assert easy_hard_flags(t) == [EASY] * 5
        assert len(easy_hard_flags(t)) == len(t.output)

    def test_identity_easy_plus_hard_equals_output(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            specs = []
            for _ in range(int(rng.integers(1, 6))):
                proposed = int(rng.integers(1, 12))
                accepted = int(rng.integers(0, proposed + 1))
                kind = "bonus" if accepted == proposed else "correction"
                specs.append((proposed, accepted, kind, 1))
            t = synth(specs)
            flags = easy_hard_flags(t)
            easy = sum(r.accepted_len for r in t.rounds) + sum(
                1 for r in t.rounds if r.replacement_kind == "bonus"
            )
            assert flags.count(EASY) == easy
            assert flags.count(HARD) == len(t.output) - easy


class TestRaster:
    def test_rows_are_padded_with_absent(self):
        long = synth([(4, 4, "bonus", 1)])  # 5 tokens
        short = synth([(5, 1, "correction", 1)])  # 2 tokens
        raster = build_raster([long, short])
        assert raster.width == 5
        assert raster.rows[1][2:] == [ABSENT] * 3
        assert raster.counts() == (6, 1)

    def test_ratio_oracle(self):
        raster = EasyHardRaster([[EASY, EASY, EASY, HARD, EASY]])
        assert consecutive_easy_ratio(raster, [0, 2, 4]) == [
            pytest.approx(0.8),
            pytest.approx(0.6),
            pytest.approx(0.0),
        ]

    def test_runs_do_not_cross_rows(self):
        # Two rows of 2 easies each: no run exceeds 2 even though the flat
        # stream would contain 4 consecutive easies.
        raster = EasyHardRaster([[EASY, EASY], [EASY, EASY]])
        assert consecutive_easy_ratio(raster, [2]) == [0.0]

    def test_absent_cells_are_invisible(self):
        raster = EasyHardRaster([[EASY, ABSENT, EASY, EASY]])
        # The padding does not split the denominator, but it does split runs
        # of easiness? No: padding only ever appears at the end of a row, so
        # mid-row ABSENT ending a run is fine to treat as a break.
        assert consecutive_easy_ratio(raster, [0]) == [1.0]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from([EASY, HARD]), min_size=1, max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    def test_ratio_is_nonincreasing_in_the_threshold(self, rows):
        width = max(len(r) for r in rows)
        raster = EasyHardRaster([r + [ABSENT] * (width - len(r)) for r in rows])
        ratios = consecutive_easy_ratio(raster, list(range(0, 8)))
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        easy, hard = raster.counts()
        assert ratios[0] == pytest.approx(easy / (easy + hard))


class TestLengthCdf:
    def test_two_point_oracle(self):
        t = synth([(10, 4, "correction", 1), (10, 10, "bonus", 1)])
        accepted, speculated = accepted_length_cdf(t)
        assert accepted == [(4, pytest.approx(0.5)), (10, pytest.approx(1.0))]
        assert speculated == [(10, pytest.approx(1.0))]

    def test_terminal_fraction_is_one(self):
        rng = np.random.default_rng(5)
        specs = [
            (int(n), int(rng.integers(0, n + 1)), "correction", 1)
            for n in rng.integers(1, 15, size=20)
        ]
        accepted, speculated = accepted_length_cdf(synth(specs))
        assert accepted[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert speculated[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert [v for v, _ in accepted] == sorted({s[1] for s in specs})

    def test_empty_input_is_an_error(self):
        with pytest.raises(ConfigError, match="no rounds to build a length CDF"):
            accepted_length_cdf([])


class TestLatencyBreakdown:
    def test_fixed_ar_eight_oracle(self):
        # Eight drafter passes at 0.05 plus one verify round: 0.4 vs 1.0,
        # shares 0.4/1.4 and 1.0/1.4.
        t = synth([(8, 8, "bonus", 8)])
        b = latency_breakdown(t)
        assert b.draft_latency == pytest.approx(0.4)
        assert b.verify_latency == pytest.approx(1.0)
        assert b.draft_share == pytest.approx(0.4 / 1.4)
        assert b.verify_share == pytest.approx(1.0 / 1.4)

    def test_shares_sum_to_one(self):
        t = [synth([(8, 3, "correction", 2), (4, 4, "bonus", 1)]), synth([(2, 0, "correction", 1)])]
        b = latency_breakdown(t)
        assert b.draft_share + b.verify_share == pytest.approx(1.0, abs=1e-12)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ConfigError, match="no rounds to break down"):
            latency_breakdown([])


class TestAgreementBySteps:
    def test_self_agreement_is_perfect_at_full_budget(self):
        # Drafter == target: with one pass per slot the drafted chain is the
        # rollout itself, so the final step budget scores exactly 1.
        model = train_ngram([list("abcd" * 30)], order=3, smoothing=0.0)
        drafter = DiffusionDrafter(model, block_size=4)
        prompt = model.vocabulary.encode("ab")
        curve = agreement_by_steps(model, drafter, [prompt], 20)
        assert len(curve) == 4
        assert curve[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in curve)

    def test_explicit_step_list(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=41)[0]
        curve = agreement_by_steps(mixed_lab.target, mixed_lab.drafter, [prompt], 24, steps=[1, 8])
        assert len(curve) == 2
        assert curve[1] >= curve[0] - 0.25  # same workload, sane range

    def test_no_full_block_is_an_error(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=42)[0]
        with pytest.raises(ConfigError, match="no full blocks to score agreement on"):
            agreement_by_steps(mixed_lab.target, mixed_lab.drafter, [prompt], 3)


class TestOnRealEpisodes:
    def test_summary_matches_hand_recount(self, mixed_lab):
        prompts = mixed_lab.prompts(5, seed=43)
        transcripts = [
            run_episode(
                mixed_lab.target, mixed_lab.drafter, FixedDLLM(8), CostModel(), p, 48
            )
            for p in prompts
        ]
        stats = summarize(transcripts)
        rounds = [r for t in transcripts for r in t.rounds]
        assert stats.rounds == len(rounds)
        assert stats.acceptance_rate == pytest.approx(
            sum(r.accepted_len for r in rounds) / sum(r.proposed_len for r in rounds)
        )
        flags = [f for t in transcripts for f in easy_hard_flags(t)]
        assert len(flags) == sum(len(t.output) for t in transcripts)
