"""Exact likelihood analytics: pair probabilities, Stein terms, tail sets."""

import dataclasses
import math
import unittest.mock
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgl.analytics as analytics
from conftest import (
    brute_annealed_pmf,
    brute_likelihood_ratio,
    brute_pair_hit_probability,
)
from pgl.analytics import (
    BalancedSpec,
    ChenSteinParams,
    balanced_product,
    chen_stein_terms,
    critical_onset_index,
    exact_annealed_pmf,
    exact_likelihood_mean,
    likelihood_ratio,
    log_likelihood_values,
    mean_abs_likelihood_deviation,
    overlap_pair_probabilities,
    pair_hit_probability,
    symbol_sum_tail_mass,
    union_bound_hit_probability,
)
from pgl.errors import CapabilityError
from pgl.sampler import Word, derive_seed, sample_words
from pgl.schedule import BiasSchedule, Constant, LogPower, Table, Zero, envelope

TABLE6 = Table((0.1, -0.05, 0.2, 0.05, 0.15, -0.1))
ONSET_FACTOR_BOUND = (2.0 ** 0.25 - 1.0) / 2.0

# Bias families for the exact deviation sum: tiny, extreme, zero, and large
# next to tiny.  Normal floats only: a subnormal bias puts R - 1 where no
# float has a relative precision of 1e-13.
BIAS_FAMILIES = (
    st.floats(-1e-9, 1e-9, allow_subnormal=False),
    st.sampled_from([0.49, -0.49]),
    st.just(0.0),
    st.sampled_from([0.49, -0.49, 1e-8, -1e-8]),
)


def rational_mean_abs_deviation(gammas) -> Fraction:
    """Mean |R - 1| over all patterns of the window gammas, in exact rationals."""
    total = Fraction(0)
    for code in range(1 << len(gammas)):
        ratio = Fraction(1)
        for i, g in enumerate(gammas):
            ratio *= 1 + (2 if (code >> i) & 1 else -2) * Fraction(g)
        total += abs(ratio - 1)
    return total / (1 << len(gammas))


def per_symbol_monte_carlo(schedule, j, k, mc_samples, seed):
    """The Monte Carlo E|R_j - 1| summed one symbol at a time: the reference
    for the table lookups of mean_abs_likelihood_deviation."""
    two_gamma = 2.0 * schedule.gamma_slice(j, k)
    plus = np.log1p(two_gamma)
    minus = np.log1p(-two_gamma)
    codes = sample_words(k, derive_seed(seed, k, j), mc_samples)
    logs = np.zeros(mc_samples)
    for i in range(k):
        bit = ((codes >> np.uint64(i)) & np.uint64(1)).astype(bool)
        logs += np.where(bit, plus[i], minus[i])
    deviations = np.abs(np.expm1(logs))
    return float(deviations.mean()), float(deviations.std(ddof=1) / math.sqrt(mc_samples))


def count_bias_reads(monkeypatch) -> list[tuple[int, int]]:
    """Record (start, count) of every BiasSchedule.gamma_slice call."""
    reads = []
    original = BiasSchedule.gamma_slice

    def counted(self, start, count):
        reads.append((start, count))
        return original(self, start, count)

    monkeypatch.setattr(BiasSchedule, "gamma_slice", counted)
    return reads


class TestLikelihoodEnumeration:
    @pytest.mark.parametrize("schedule,j", [(TABLE6, 1), (LogPower(1.0), 3)])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_values_match_direct_products(self, schedule, j, k):
        values = log_likelihood_values(schedule, j, k)
        assert values.shape == (1 << k,)
        # entry t of the enumeration is the pattern with code t
        for t in range(1 << k):
            code = t
            bits = [(code >> i) & 1 for i in range(k)]
            expected = math.log(brute_likelihood_ratio(schedule, j, bits))
            assert values[t] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(-0.45, 0.45, allow_nan=False), min_size=6, max_size=6
        ),
        j=st.integers(1, 50),
        k=st.integers(1, 10),
        data=st.data(),
    )
    def test_entry_w_is_the_log_ratio_of_word_w(self, values, j, k, data):
        sched = Table(tuple(values))
        w = data.draw(st.integers(0, (1 << k) - 1), label="w")
        expected = math.log(likelihood_ratio(sched, j, Word(k, w)))
        assert log_likelihood_values(sched, j, k)[w] == pytest.approx(expected, abs=1e-12)

    def test_unbiased_values_are_zero(self):
        assert np.all(log_likelihood_values(Zero(), 5, 10) == 0.0)

    @pytest.mark.parametrize(
        "schedule", [Zero(), Constant(0.1), LogPower(1.0), LogPower(0.25), TABLE6]
    )
    @pytest.mark.parametrize("j", [1, 17, 1000])
    def test_mean_likelihood_is_one(self, schedule, j):
        assert exact_likelihood_mean(schedule, j, 10) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            log_likelihood_values(Zero(), 0, 3)
        with pytest.raises(ValueError):
            log_likelihood_values(Zero(), 1, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.integers(1, 8),
        j=st.integers(1, 50),
    )
    def test_mean_likelihood_is_one_for_random_tables(self, seed, k, j):
        rng = np.random.default_rng(seed)
        sched = Table(tuple(rng.uniform(-0.3, 0.3, size=6)))
        assert exact_likelihood_mean(sched, j, k) == pytest.approx(1.0, abs=1e-9)


class TestLikelihoodRatio:
    def test_unbiased_ratio_is_one(self):
        for code in (0, 5, 7):
            assert likelihood_ratio(Zero(), 4, Word(3, code)) == 1.0

    def test_hand_computed_table_case(self):
        sched = Table((0.1, 0.2, 0.05))
        word = Word(3, 0b101)                  # symbols +, -, +
        expected = (1 + 2 * 0.2) * (1 - 2 * 0.05) * (1 + 2 * 0.05)
        assert likelihood_ratio(sched, 2, word) == pytest.approx(expected, rel=1e-15)

    def test_strong_constant_bias(self):
        sched = Constant(0.49)
        assert likelihood_ratio(sched, 5, Word(4, 0b1111)) == pytest.approx(
            1.98**4, rel=1e-14
        )
        assert likelihood_ratio(sched, 5, Word(4, 0)) == pytest.approx(
            0.02**4, rel=1e-14
        )

    def test_matches_brute_product(self):
        for j in (1, 4, 9):
            for code in range(16):
                bits = [(code >> i) & 1 for i in range(4)]
                expected = brute_likelihood_ratio(TABLE6, j, bits)
                got = likelihood_ratio(TABLE6, j, Word(4, code))
                assert got == pytest.approx(expected, rel=1e-14)


class TestPairProbabilities:
    def test_same_position_is_rejected(self):
        with pytest.raises(ValueError):
            pair_hit_probability(Zero(), 3, 3, 4)

    def test_symmetric_in_the_two_positions(self):
        for i, j, k in ((1, 3, 4), (2, 9, 4), (5, 6, 3)):
            a = pair_hit_probability(TABLE6, i, j, k)
            b = pair_hit_probability(TABLE6, j, i, k)
            assert a == b

    def test_unbiased_pairs_factor_exactly(self):
        for i, j, k in ((1, 2, 3), (1, 9, 3), (4, 6, 5)):
            assert pair_hit_probability(Zero(), i, j, k) == pytest.approx(
                2.0 ** (-2 * k), rel=1e-14
            )

    def test_disjoint_constant_bias_case(self):
        # separated windows: 2^-2k * prod (1 + 4 gamma^2)
        expected = (1.04**2) / 16.0
        assert pair_hit_probability(Constant(0.1), 1, 4, 2) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize(
        "schedule", [Constant(0.12), LogPower(0.5), TABLE6]
    )
    @pytest.mark.parametrize(
        "i,j,k",
        [(1, 2, 3), (2, 4, 3), (1, 4, 3), (3, 4, 4), (2, 7, 4), (5, 2, 2)],
    )
    def test_matches_full_brute_force(self, schedule, i, j, k):
        expected = brute_pair_hit_probability(schedule, i, j, k)
        got = pair_hit_probability(schedule, i, j, k)
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-15)

    def test_pairs_beyond_level_26_are_exact(self):
        # under the fair coin any two distinct windows match a uniform
        # pattern together with probability 2^-2k, overlapping or not
        assert pair_hit_probability(Zero(), 1, 2, 28) == 2.0 ** -56
        assert pair_hit_probability(Zero(), 1, 30, 28) == 2.0 ** -56

    def test_vectorized_overlaps_match_scalar_calls(self):
        sched = LogPower(1.0)
        k = 6
        for d in (1, 3, 5):
            block = overlap_pair_probabilities(sched.gamma_slice(9, 12 + k + d - 1), k, d, count=12)
            for offset in range(12):
                i = 9 + offset
                assert block[offset] == pytest.approx(
                    pair_hit_probability(sched, i, i + d, k), rel=1e-12
                )
            with pytest.raises(ValueError, match="bias run"):
                overlap_pair_probabilities(sched.gamma_slice(9, 12 + k + d - 2), k, d, count=12)

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    @pytest.mark.parametrize("count", [1, 2, 7, 33])
    def test_window_products_match_direct_products(self, d, count):
        values = np.random.default_rng(d * 100 + count).uniform(0.5, 1.5, count + d)
        for width in range(1, d + 1):
            expected = [np.prod(values[m:m + width]) for m in range(count)]
            got = analytics._window_products(values, width, count)
            assert got.shape == (count,)
            np.testing.assert_allclose(got, expected, rtol=1e-14)

    @pytest.mark.parametrize("schedule", [TABLE6, LogPower(1.0)])
    @pytest.mark.parametrize("chunk", [5, 62, 63, 1 << 14])
    def test_pair_sum_matches_brute_force_over_every_pair(self, schedule, chunk,
                                                          monkeypatch):
        # k = 6 takes every distance d = 1..5, so k + d = q d + s meets both
        # s = 0 (d = 1, 2, 3) and s > 0 (d = 4, 5); chunks of 5 positions
        # split every distance's run of pairs; with 62 the last chunk holds
        # lower position 63 alone, whose only pair is at d = 1, and with 63
        # one chunk holds every pair, since position 64 starts none
        k = 6
        n = 1 << k
        expected = math.fsum(
            brute_pair_hit_probability(schedule, i, j, k)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if 0 < abs(i - j) < k
        )
        monkeypatch.setattr(analytics, "_PAIR_CHUNK", chunk)
        got = analytics._pair_sum_exact(schedule, k)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_pair_sum_reads_each_chunk_of_biases_once(self, monkeypatch):
        # 2^16 lower positions are four chunks of 2^14; each chunk's bias run
        # serves all 15 distances
        reads = count_bias_reads(monkeypatch)
        analytics._pair_sum_exact(LogPower(1.0), 16)
        assert len(reads) == 4

    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_far_overlapping_pairs_obey_the_uniform_bound(self, k):
        # once the per-position factor 1 + 2 gamma drops below 2^(1/4),
        # every overlapping pair probability sits below 2^(-3k/2)
        sched = LogPower(1.0)
        onset = critical_onset_index(sched)
        bound = 2.0 ** (-1.5 * k)
        if onset > (1 << k):
            pytest.skip(f"no window pair at level {k} starts at or after {onset}")
        for d in range(1, k):
            count = (1 << k) - d - onset + 1
            block = overlap_pair_probabilities(sched.gamma_slice(onset, count + k + d - 1),
                                               k, d, count=count)
            assert float(block.max()) < bound

    @pytest.mark.parametrize("schedule", [Constant(0.1), LogPower(1.0)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_pair_sums_give_the_second_factorial_moment(self, schedule, k):
        # sum of E[I_i I_j] over ordered pairs i != j equals E[M(M-1)]
        # computed from the exact joint law — two independent pipelines
        n = 1 << k
        pair_sum = sum(
            pair_hit_probability(schedule, i, j, k)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        )
        law = exact_annealed_pmf(schedule, k)
        moment = sum(m * (m - 1) * p for m, p in law.pmf.items())
        assert pair_sum == pytest.approx(moment, rel=1e-10)


class TestMeanAbsDeviation:
    def test_unbiased_deviation_is_zero(self):
        value, stderr = mean_abs_likelihood_deviation(Zero(), 1, 12)
        assert value == 0.0 and stderr == 0.0

    def test_single_symbol_case(self):
        # R is 1.2 or 0.8 with equal odds, so E|R - 1| = 0.2
        value, stderr = mean_abs_likelihood_deviation(Constant(0.1), 1, 1)
        assert value == pytest.approx(0.2, rel=1e-14)
        assert stderr == 0.0

    def test_matches_brute_enumeration(self):
        total = 0.0
        for code in range(8):
            bits = [(code >> i) & 1 for i in range(3)]
            total += abs(brute_likelihood_ratio(TABLE6, 2, bits) - 1.0)
        expected = total / 8.0
        value, _ = mean_abs_likelihood_deviation(TABLE6, 2, 3)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_monte_carlo_agrees_with_exact(self):
        exact, _ = mean_abs_likelihood_deviation(LogPower(1.0), 7, 8)
        mc, stderr = mean_abs_likelihood_deviation(
            LogPower(1.0), 7, 8, exact_cap=4, mc_samples=20000, seed=3
        )
        assert stderr > 0.0
        assert abs(mc - exact) < 6 * stderr
        again, _ = mean_abs_likelihood_deviation(
            LogPower(1.0), 7, 8, exact_cap=4, mc_samples=20000, seed=3
        )
        assert mc == again

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(-0.45, 0.45, allow_nan=False), min_size=6, max_size=6
        ),
        k=st.integers(1, 9),
        j=st.integers(1, 40),
        count=st.integers(1, 40),
        block_entries=st.integers(1, 1 << 11),
    )
    def test_blocked_sum_equals_the_per_position_sum(
        self, values, k, j, count, block_entries
    ):
        # block_entries >> (k - k // 2) rows per block (at least one) puts
        # the block boundaries anywhere in the run of positions
        sched = Table(tuple(values))
        one_at_a_time = 0.0
        for i in range(j, j + count):
            one_at_a_time += mean_abs_likelihood_deviation(sched, i, k)[0]
        with unittest.mock.patch.object(analytics, "_BLOCK_ENTRIES", block_entries):
            blocked = analytics._deviation_sum(sched, j, count, k)
        # every step runs along one row, and the row means are added in the
        # same order
        assert blocked == one_at_a_time

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), family=st.sampled_from(BIAS_FAMILIES), k=st.integers(1, 8))
    def test_exact_sum_matches_rational_enumeration(self, data, family, k):
        values = data.draw(st.lists(family, min_size=k, max_size=k))
        got = analytics._deviation_sum(Table(tuple(values)), 1, 1, k)
        want = rational_mean_abs_deviation(values)
        if want == 0:
            assert got == 0.0
        else:
            assert abs(Fraction(got) - want) <= Fraction(1e-13) * want

    @pytest.mark.parametrize("schedule,j", [(LogPower(1.0), 3), (TABLE6, 2)])
    @pytest.mark.parametrize("k", [16, 20])
    def test_exact_value_matches_the_full_table(self, schedule, j, k):
        full = np.abs(np.expm1(log_likelihood_values(schedule, j, k))).mean()
        value, _ = mean_abs_likelihood_deviation(schedule, j, k)
        assert value == pytest.approx(full, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("schedule", [LogPower(1.0), TABLE6, Constant(-0.49)])
    @pytest.mark.parametrize("k", [1, 5, 11, 12, 13, 22, 60])
    def test_monte_carlo_matches_the_per_symbol_sum(self, schedule, k):
        got = mean_abs_likelihood_deviation(
            schedule, 7, k, exact_cap=0, mc_samples=3000, seed=11
        )
        want = per_symbol_monte_carlo(schedule, 7, k, 3000, 11)
        if k <= 12:
            # one table: its entries are the per-symbol sums, in that order
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_deviation_shrinks_deeper_into_the_sequence(self):
        late, _ = mean_abs_likelihood_deviation(LogPower(1.0), 2**10, 20)
        early, _ = mean_abs_likelihood_deviation(LogPower(1.0), 4, 20)
        assert late < early


class TestChenSteinTerms:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChenSteinParams(k=0)
        with pytest.raises(ValueError):
            ChenSteinParams(k=4, epsilon=1.0)
        with pytest.raises(ValueError):
            ChenSteinParams(k=4, theta=0.6)
        with pytest.raises(ValueError):
            ChenSteinParams(k=4, mc_samples=1)
        with pytest.raises(ValueError):
            ChenSteinParams(k=4, exact_cap=27)

    def test_neighborhood_term_level_three(self):
        report = chen_stein_terms(Zero(), ChenSteinParams(k=3))
        assert report.a_term == pytest.approx(34.0 / 64.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_neighborhood_term_matches_direct_count(self, k):
        n = 1 << k
        pairs = 0
        for j in range(1, n + 1):
            lo, hi = max(1, j - (k - 1)), min(n, j + (k - 1))
            pairs += hi - lo + 1
        expected = pairs * 4.0 ** (-k)
        report = chen_stein_terms(Zero(), ChenSteinParams(k=k))
        assert report.a_term == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [4, 10, 16, 20])
    def test_neighborhood_term_is_small(self, k):
        report = chen_stein_terms(Zero(), ChenSteinParams(k=k))
        assert report.a_term <= (2 * k + 1) * 2.0**-k

    def test_unbiased_overlap_term_level_three(self):
        report = chen_stein_terms(Zero(), ChenSteinParams(k=3))
        assert report.b_term == pytest.approx(26.0 / 64.0, rel=1e-14)
        assert report.b_mode == "exact"

    @pytest.mark.parametrize("schedule", [Constant(0.1), LogPower(1.0)])
    def test_overlap_term_matches_pair_sums(self, schedule):
        k = 4
        n = 1 << k
        expected = 2.0 * sum(
            pair_hit_probability(schedule, i, i + d, k)
            for d in range(1, k)
            for i in range(1, n - d + 1)
        )
        report = chen_stein_terms(schedule, ChenSteinParams(k=k))
        assert report.b_term == pytest.approx(expected, rel=1e-12)

    def test_unbiased_deviation_term_is_zero(self):
        report = chen_stein_terms(Zero(), ChenSteinParams(k=5))
        assert report.c_term == 0.0
        assert report.c_mode == "exact"
        assert report.c_stderr == 0.0
        assert report.total == pytest.approx(
            report.a_term + report.b_term, rel=1e-14
        )

    @pytest.mark.parametrize("schedule", [TABLE6, LogPower(1.0)])
    def test_deviation_term_matches_brute_force(self, schedule):
        k = 6
        deviations = [
            abs(brute_likelihood_ratio(schedule, j, [(code >> i) & 1 for i in range(k)]) - 1.0)
            for j in range(1, (1 << k) + 1)
            for code in range(1 << k)
        ]
        expected = math.fsum(deviations) / 4.0**k
        report = chen_stein_terms(schedule, ChenSteinParams(k=k))
        assert report.c_mode == "exact"
        assert report.c_term == pytest.approx(expected, rel=1e-12)
        assert report.c_term > 0.0

    def test_total_adds_the_three_terms(self):
        report = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=8))
        assert report.total == pytest.approx(
            report.a_term + report.b_term + report.c_term, rel=1e-14
        )
        assert report.lam == 1.0

    def test_deviation_term_modes(self):
        exact = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=10))
        assert exact.c_mode == "exact" and exact.c_stderr == 0.0
        stratified = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=14))
        assert stratified.c_mode == "bound" and stratified.c_stderr == 0.0
        sampled = chen_stein_terms(
            LogPower(1.0), ChenSteinParams(k=14, exact_cap=8)
        )
        assert sampled.c_mode == "monte-carlo" and sampled.c_stderr > 0.0

    def test_stratified_bound_dominates_the_exact_sum(self, monkeypatch):
        exact = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=10))
        monkeypatch.setattr(analytics, "_FULL_SUM_CAP", 8)
        bound = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=10))
        assert bound.c_mode == "bound"
        assert bound.c_term >= exact.c_term - 1e-12

    def test_overlap_bound_dominates_the_exact_sum(self):
        exact = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=10))
        bounded = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=10, exact_cap=8))
        assert exact.b_mode == "exact" and bounded.b_mode == "bound"
        assert bounded.b_term >= exact.b_term - 1e-15

    def test_onset_index_in_reports(self):
        assert chen_stein_terms(Zero(), ChenSteinParams(k=4)).onset_index == 1
        assert chen_stein_terms(Constant(0.2), ChenSteinParams(k=4)).onset_index is None
        lp = chen_stein_terms(LogPower(1.0), ChenSteinParams(k=4))
        assert lp.onset_index == math.floor(math.exp(1.0 / ONSET_FACTOR_BOUND)) + 1

    def test_report_rejects_nan(self):
        report = chen_stein_terms(Zero(), ChenSteinParams(k=3))
        with pytest.raises(ValueError, match="NaN in c_term, total"):
            dataclasses.replace(report, c_term=math.nan, total=math.nan)

    def test_report_serialization_keys(self):
        report = chen_stein_terms(Zero(), ChenSteinParams(k=3))
        payload = report.as_dict()
        assert set(payload) == {
            "k", "lambda", "A", "B", "B_mode", "C", "C_mode", "C_stderr",
            "total", "j0", "epsilon", "theta",
        }
        assert payload["k"] == 3
        assert payload["lambda"] == 1.0
        assert payload["A"] == report.a_term
        assert payload["j0"] == 1


class TestBoundsForEverySchedule:
    """A term labelled bound is at least its exact value, whatever the sign
    and order of the biases."""

    def test_negative_constant_has_no_onset_for_the_b_bound(self):
        sched = Constant(-0.3)
        report = chen_stein_terms(sched, ChenSteinParams(k=16, exact_cap=15))
        exact = analytics._pair_sum_exact(sched, 16)
        assert exact == pytest.approx(0.23890, abs=1e-5)
        assert report.b_mode == "bound" and report.onset_index is None
        assert exact <= report.b_term

    def test_saturated_bias_b_bound_dominates_the_exact_sum(self):
        # logpow:0.25 sits at its cap 0.49 far beyond 2^16, so pairs of
        # windows at every distance hit together about as often as one does
        sched = LogPower(0.25)
        report = chen_stein_terms(sched, ChenSteinParams(k=16, exact_cap=15))
        exact = analytics._pair_sum_exact(sched, 16)
        assert exact > 16.0
        assert report.b_mode == "bound" and report.b_term >= exact

    # Above exact_cap, B is the stratified envelope bound and nothing else, and
    # on non-increasing schedules it stays within a small factor of the exact
    # sum; the factors hold the ratios seen at k = 14..16 with some headroom.
    @pytest.mark.parametrize("sched,factor", [
        (Zero(), 1.001),
        (Constant(0.1), 1.001),
        (Constant(-0.3), 1.001),
        (LogPower(0.25), 1.001),
        (LogPower(0.5), 1.15),
        (LogPower(1.0), 3.0),
        (LogPower(2.0), 5.5),
        (Table(tuple(min(0.49, 1.0 / math.log(n + 1)) for n in range(1, (1 << 15) + 1))), 2.75),
    ], ids=lambda value: getattr(value, "label", None))
    @pytest.mark.parametrize("k", [14, 15, 16])
    def test_bounded_b_is_the_envelope_bound_and_stays_tight(self, sched, factor, k):
        report = chen_stein_terms(sched, ChenSteinParams(k=k, exact_cap=k - 1))
        assert report.b_mode == "bound"
        assert report.b_term == analytics._pair_bound(envelope(sched), k)
        exact = analytics._pair_sum_exact(sched, k)
        assert exact <= report.b_term <= factor * exact

    @pytest.mark.parametrize("table,exact", [
        (Table((0.0,) * 6200 + (0.45,) * 1800, tail="zero"), 0.213598),
        (Table((0.0,) * 1000 + (0.3,)), 1.466419),
    ])
    def test_rising_table_c_bound_dominates_the_exact_sum(self, table, exact):
        k = 14
        full = math.ldexp(analytics._deviation_sum(table, 1, 1 << k, k), -k)
        assert full == pytest.approx(exact, abs=1e-6)
        report = chen_stein_terms(table, ChenSteinParams(k=k))
        assert report.c_mode == "bound"
        assert report.c_term >= full

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.floats(-0.49, 0.49), min_size=1, max_size=64),
        tail=st.sampled_from(["repeat", "zero"]),
        k=st.integers(2, 12),
    )
    def test_bounds_dominate_the_exact_sums_for_any_table(self, values, tail, k):
        table = Table(tuple(values), tail=tail)
        bounded = chen_stein_terms(table, ChenSteinParams(k=k, exact_cap=k - 1))
        assert bounded.b_mode == "bound"
        assert bounded.b_term >= analytics._pair_sum_exact(table, k) - 1e-12
        with unittest.mock.patch.object(analytics, "_FULL_SUM_CAP", 1):
            stratified = chen_stein_terms(table, ChenSteinParams(k=k))
        assert stratified.c_mode == "bound"
        full = math.ldexp(analytics._deviation_sum(table, 1, 1 << k, k), -k)
        assert stratified.c_term >= full - 1e-12


class TestOnsetIndex:
    def test_known_schedules(self):
        assert critical_onset_index(Zero()) == 1
        assert critical_onset_index(Constant(0.05)) == 1
        assert critical_onset_index(Constant(0.2)) is None
        assert critical_onset_index(Table((0.3, 0.2, 0.05))) == 3
        assert critical_onset_index(Table((0.05, 0.2))) is None
        # the onset reads |gamma|, as the pair probabilities do
        assert critical_onset_index(Constant(-0.05)) == 1
        assert critical_onset_index(Constant(-0.3)) is None
        assert critical_onset_index(Table((-0.3, 0.2, -0.05))) == 3
        assert critical_onset_index(Table((0.05, -0.2))) is None

    def test_log_decay_crossing(self):
        expected = math.floor(math.exp(1.0 / ONSET_FACTOR_BOUND)) + 1
        sched = LogPower(1.0)
        n = critical_onset_index(sched)
        assert n == expected
        assert 1 + 2 * sched.gamma(n) < 2.0**0.25 <= 1 + 2 * sched.gamma(n - 1)

    def test_slow_decay_has_no_reachable_onset(self):
        assert critical_onset_index(LogPower(0.5)) is None


class TestExactAnnealedLaw:
    def test_single_level_unbiased_law(self):
        law = exact_annealed_pmf(Zero(), 1)
        assert law.label == "exact-annealed:zero:k=1"
        assert law.pmf[0] == pytest.approx(0.25, abs=1e-12)
        assert law.pmf[1] == pytest.approx(0.5, abs=1e-12)
        assert law.pmf[2] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "schedule,k",
        [(Constant(0.15), 2), (LogPower(1.0), 2), (Zero(), 3)],
    )
    def test_matches_full_enumeration(self, schedule, k):
        expected = brute_annealed_pmf(schedule, k)
        law = exact_annealed_pmf(schedule, k)
        assert set(law.pmf) == set(expected)
        for m, p in expected.items():
            assert law.pmf[m] == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mean_count_is_one(self, k):
        law = exact_annealed_pmf(Constant(0.1), k)
        assert law.mean() == pytest.approx(1.0, abs=1e-12)
        assert sum(law.pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_level_five_exceeds_the_exact_envelope(self):
        with pytest.raises(CapabilityError):
            exact_annealed_pmf(Zero(), 5)


class TestBalancedProducts:
    def test_empty_sets_give_one(self):
        spec = BalancedSpec(k=8, plus=(), minus=())
        assert balanced_product(Constant(0.3), 5, spec) == 1.0

    def test_constant_bias_hand_value(self):
        spec = BalancedSpec(k=6, plus=(1, 2, 3), minus=(4, 5, 6))
        expected = (1.1**3) * (0.9**3)      # = 0.970299
        got = balanced_product(Constant(0.1), 11, spec)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.970299, rel=1e-12)

    def test_matches_direct_product(self):
        spec = BalancedSpec(k=6, plus=(2, 5), minus=(3, 6))
        j = 3
        expected = 1.0
        for i in spec.plus:
            expected *= 1.0 + TABLE6.gamma(i + j - 1)
        for i in spec.minus:
            expected *= 1.0 - TABLE6.gamma(i + j - 1)
        assert balanced_product(TABLE6, j, spec) == pytest.approx(expected, rel=1e-14)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BalancedSpec(k=4, plus=(1, 1), minus=(2, 3))
        with pytest.raises(ValueError):
            BalancedSpec(k=4, plus=(1, 2), minus=(2, 3))
        with pytest.raises(ValueError):
            BalancedSpec(k=4, plus=(1,), minus=(2, 3))
        with pytest.raises(ValueError):
            BalancedSpec(k=4, plus=(1,), minus=(5,))

    def test_saturated_log_decay_stays_below_one(self):
        # far positions under slow log decay: every balanced product <= 1
        sched = LogPower(0.25)
        rng = np.random.default_rng(17)
        k = 64
        for _ in range(300):
            j = int(rng.integers(2**32, 2**40))
            size = int(rng.integers(1, k // 2 + 1))
            chosen = rng.choice(np.arange(1, k + 1), size=2 * size, replace=False)
            spec = BalancedSpec(
                k=k,
                plus=tuple(int(x) for x in chosen[:size]),
                minus=tuple(int(x) for x in chosen[size:]),
            )
            assert balanced_product(sched, j, spec) <= 1.0 + 1e-12

    def test_huge_positions_use_exact_integer_indices(self):
        spec = BalancedSpec(k=4, plus=(1, 2), minus=(3, 4))
        value = balanced_product(LogPower(0.25), 2**63 + 11, spec)
        assert 0.0 < value <= 1.0 + 1e-12


class TestSymbolSumTail:
    def test_hand_counted_small_cases(self):
        # level 4, eta 1: sum < -2 keeps only the all-minus pattern
        assert symbol_sum_tail_mass(4, 1.0).exact == pytest.approx(1 / 16, abs=1e-15)
        # eta 0: strictly negative sums, i.e. at most one plus among four
        assert symbol_sum_tail_mass(4, 0.0).exact == pytest.approx(5 / 16, abs=1e-15)

    @pytest.mark.parametrize("k,eta", [(5, 0.3), (12, 1.2), (9, 0.7)])
    def test_matches_binomial_enumeration(self, k, eta):
        cutoff = -eta * math.sqrt(k)
        expected = sum(
            math.comb(k, m) for m in range(k + 1) if 2 * m - k < cutoff
        ) / 2.0**k
        assert symbol_sum_tail_mass(k, eta).exact == pytest.approx(expected, abs=1e-12)

    def test_boundary_sums_are_excluded(self):
        # at level 16, eta 1 the cutoff -4 is itself a possible sum; patterns
        # sitting exactly on it stay out of the tail
        mass = symbol_sum_tail_mass(16, 1.0).exact
        expected = sum(math.comb(16, m) for m in range(6)) / 2.0**16
        assert mass == pytest.approx(expected, abs=1e-15)

    def test_normal_approximation_column(self):
        for eta in (0.1, 0.5, 1.0, 2.0):
            got = symbol_sum_tail_mass(50, eta).normal_approx
            assert got == pytest.approx(NormalDist().cdf(-eta), abs=1e-12)

    def test_wide_levels_approach_the_gaussian(self):
        result = symbol_sum_tail_mass(400, 0.5)
        assert abs(result.exact - result.normal_approx) < 0.03

    def test_exact_sum_is_correctly_rounded(self):
        # level 15, eta 0.1: m <= 7 of 15 plus symbols, exactly half the mass
        assert symbol_sum_tail_mass(15, 0.1).exact == 0.5

    def test_extreme_threshold_empties_the_tail(self):
        assert symbol_sum_tail_mass(16, 10.0).exact == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            symbol_sum_tail_mass(0, 1.0)
        with pytest.raises(ValueError):
            symbol_sum_tail_mass(4, -0.1)
        for eta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="eta must be a finite number >= 0"):
                symbol_sum_tail_mass(4, eta)


class TestUnionBound:
    def test_unbiased_bound_is_one(self):
        assert union_bound_hit_probability(Zero(), 8, [Word(8, 37)])[0] == pytest.approx(
            1.0, rel=1e-14
        )

    def test_strong_minus_bias_all_plus_word(self):
        got = union_bound_hit_probability(Constant(-0.49), 8, [Word(8, 255)])[0]
        assert got == pytest.approx(0.02**8, rel=1e-12)

    def test_matches_direct_average(self):
        k = 4
        word_bits = [1, 0, 0, 1]
        # the bound is sum_j 2^-k R_j over the 2^k window positions
        expected = sum(
            brute_likelihood_ratio(TABLE6, j, word_bits) / 16.0
            for j in range(1, 17)
        )
        got = union_bound_hit_probability(TABLE6, k, [Word(4, 0b1001)])[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_saturated_bias_starves_minus_heavy_patterns(self):
        # under near-cap plus bias an all-minus pattern is essentially
        # unreachable: the whole union bound stays far below 1/2
        got = union_bound_hit_probability(LogPower(0.25), 16, [Word(16, 0)])[0]
        assert got < 0.5
        assert got < 1e-20

    def test_words_share_each_chunk_of_biases(self, monkeypatch):
        # 2^21 positions are two chunks of 2^20: two bias runs serve all four
        # words, and each word's bound equals its bound taken alone
        reads = count_bias_reads(monkeypatch)
        words = [Word(21, code) for code in (0, 1, 1 << 20, (1 << 21) - 1)]
        bounds = union_bound_hit_probability(LogPower(1.0), 21, words)
        assert len(reads) == 2
        assert bounds == [union_bound_hit_probability(LogPower(1.0), 21, [w])[0] for w in words]
        reads.clear()
        assert union_bound_hit_probability(LogPower(1.0), 21, []) == []
        assert reads == []

    def test_level_cap_and_word_mismatch(self):
        with pytest.raises(CapabilityError):
            union_bound_hit_probability(Zero(), 31, [Word(31, 0)])[0]
        with pytest.raises(ValueError):
            union_bound_hit_probability(Zero(), 8, [Word(4, 0)])[0]
