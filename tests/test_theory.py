"""Closed-form speedup model: frozen oracles, sawtooth shape, maximizers.

The frozen values come from the geometric-series identity
E[tokens per round] = (1 - alpha^(gamma+1)) / (1 - alpha), evaluated by hand:

* alpha=0.8, gamma=4, free drafter: (1 - 0.8^5) / 0.2 = 0.67232 / 0.2 = 3.3616.
* alpha=0.8, gamma=16, block-parallel(8), c=0.05: two blocks, cost 1.1,
  speedup = (1 - 0.8^17) / 0.2 / 1.1.
* gamma=17 spills into a third block: cost 1.15, speedup (1 - 0.8^18)/0.2/1.15.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.errors import ConfigError
from speclab.theory import (
    DRAFTER_AR,
    DRAFTER_BLOCK,
    best_gamma,
    drafter_passes,
    expected_tokens_per_round,
    speedup_curve,
    theoretical_speedup,
)


class TestFrozenOracles:
    def test_free_drafter_alpha_08_gamma_4(self):
        assert theoretical_speedup(0.8, 4, 0.0) == pytest.approx(3.3616, abs=1e-9)

    def test_block_parallel_alpha_08_gamma_16(self):
        got = theoretical_speedup(0.8, 16, 0.05, DRAFTER_BLOCK, 8)
        assert got == pytest.approx((1 - 0.8**17) / 0.2 / 1.1, abs=1e-12)
        assert got == pytest.approx(4.443100008468852, abs=1e-9)

    def test_block_parallel_alpha_08_gamma_17(self):
        got = theoretical_speedup(0.8, 17, 0.05, DRAFTER_BLOCK, 8)
        assert got == pytest.approx((1 - 0.8**18) / 0.2 / 1.15, abs=1e-12)
        assert got == pytest.approx(4.269502615176165, abs=1e-9)

    def test_expected_tokens_small_cases(self):
        # gamma=1: 1 + alpha; gamma=2: 1 + alpha + alpha^2.
        assert expected_tokens_per_round(0.5, 1) == pytest.approx(1.5, abs=1e-15)
        assert expected_tokens_per_round(0.5, 2) == pytest.approx(1.75, abs=1e-15)

    def test_free_drafters_agree_when_passes_are_free(self):
        for gamma in (1, 5, 23):
            ar = theoretical_speedup(0.7, gamma, 0.0, DRAFTER_AR)
            bp = theoretical_speedup(0.7, gamma, 0.0, DRAFTER_BLOCK, 8)
            assert ar == bp == expected_tokens_per_round(0.7, gamma)


class TestPassCounts:
    def test_ar_pays_per_token(self):
        assert drafter_passes(13, DRAFTER_AR) == 13

    @pytest.mark.parametrize("gamma,expected", [(1, 1), (8, 1), (9, 2), (16, 2), (17, 3)])
    def test_block_parallel_pays_per_block(self, gamma, expected):
        assert drafter_passes(gamma, DRAFTER_BLOCK, 8) == expected

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown drafter kind"):
            drafter_passes(4, "quantum")


class TestSawtooth:
    def test_block_curve_drops_exactly_at_block_boundaries(self):
        curve = speedup_curve(0.8, range(1, 41), 0.05, DRAFTER_BLOCK, 8)
        drops = [g for g in range(2, 41) if curve[g - 1] < curve[g - 2]]
        assert drops == [9, 17, 25, 33]

    def test_curve_rises_inside_each_block_span(self):
        curve = speedup_curve(0.8, range(1, 41), 0.05, DRAFTER_BLOCK, 8)
        for g in range(2, 41):
            if g not in (9, 17, 25, 33):
                assert curve[g - 1] > curve[g - 2]

    def test_ar_curve_is_unimodal_around_its_peak(self):
        curve = speedup_curve(0.8, range(1, 41), 0.05, DRAFTER_AR)
        peak = curve.index(max(curve))
        assert all(curve[i] < curve[i + 1] for i in range(peak))
        assert all(curve[i] > curve[i + 1] for i in range(peak, len(curve) - 1))


class TestMaximizers:
    def test_frozen_best_settings(self):
        assert best_gamma(0.8, range(1, 41), 0.05, DRAFTER_AR) == (
            8,
            pytest.approx(3.0920795428571433, abs=1e-9),
        )
        gamma, value = best_gamma(0.8, range(1, 41), 0.05, DRAFTER_BLOCK, 8)
        assert gamma == 16
        assert value == pytest.approx(4.443100008468852, abs=1e-9)

    @pytest.mark.parametrize("alpha,cost", [(0.8, 0.05), (0.6, 0.1), (0.9, 0.02)])
    def test_block_parallel_speculates_deeper_and_wins(self, alpha, cost):
        grid = range(1, 41)
        ar_gamma, ar_value = best_gamma(alpha, grid, cost, DRAFTER_AR)
        bp_gamma, bp_value = best_gamma(alpha, grid, cost, DRAFTER_BLOCK, 8)
        assert bp_gamma >= ar_gamma
        assert bp_value > ar_value

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="empty speculation-length grid"):
            best_gamma(0.8, [], 0.05)


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ConfigError, match="acceptance rate must be in"):
            expected_tokens_per_round(alpha, 4)
        with pytest.raises(ConfigError, match="acceptance rate must be in"):
            theoretical_speedup(alpha, 4, 0.05)

    def test_other_parameters(self):
        with pytest.raises(ConfigError, match="speculation length must be >= 1"):
            theoretical_speedup(0.8, 0, 0.05)
        for cost_ratio in (-0.01, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="cost ratio must be a finite number >= 0"):
                theoretical_speedup(0.8, 4, cost_ratio)
        with pytest.raises(ConfigError, match="unknown drafter kind"):
            theoretical_speedup(0.8, 4, 0.05, drafter_kind="oracle")
        with pytest.raises(ConfigError, match="block size must be >= 1"):
            theoretical_speedup(0.8, 4, 0.05, block_size=0)
        with pytest.raises(ConfigError, match="block size must be >= 1"):
            drafter_passes(4, DRAFTER_BLOCK, 0)


class TestModelProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        gamma=st.integers(min_value=1, max_value=60),
    )
    def test_tokens_per_round_stay_in_range(self, alpha, gamma):
        tokens = expected_tokens_per_round(alpha, gamma)
        assert 1.0 <= tokens <= gamma + 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        gamma=st.integers(min_value=2, max_value=60),
        cost=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_block_parallel_never_loses_to_ar_at_equal_depth(self, alpha, gamma, cost):
        # ceil(gamma/8) < gamma for gamma >= 2, so the block bill is smaller.
        ar = theoretical_speedup(alpha, gamma, cost, DRAFTER_AR)
        bp = theoretical_speedup(alpha, gamma, cost, DRAFTER_BLOCK, 8)
        assert bp > ar

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        gamma=st.integers(min_value=1, max_value=60),
    )
    def test_geometric_sum_identity(self, alpha, gamma):
        by_sum = math.fsum(alpha**k for k in range(gamma + 1))
        assert expected_tokens_per_round(alpha, gamma) == pytest.approx(by_sum, rel=1e-12)
