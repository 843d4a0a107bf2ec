"""Window histograms and quenched count laws against naive scans."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import naive_window_counts, pack_bits
import pgl.counter as counter
from pgl.counter import (
    level_codes,
    quenched_distribution,
    window_codes,
    window_histogram,
)
from pgl.errors import ResourceError
from pgl.sampler import PackedSequence, sample_sequence
from pgl.schedule import Constant, LogPower, Zero, parse_schedule


def histogram_as_dict(counts) -> dict[int, int]:
    return {int(c): int(counts[c]) for c in np.flatnonzero(counts)}


class TestHistogram:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_naive_scan(self, k):
        seq = sample_sequence(LogPower(1.0), (1 << k) + k - 1, seed=40 + k)
        counts = window_histogram(seq, k)
        assert counts.shape == (1 << k,)
        assert histogram_as_dict(counts) == naive_window_counts(list(seq.bits01), k)

    def test_every_window_is_counted(self):
        for k, seed in ((1, 0), (5, 1), (10, 2)):
            seq = sample_sequence(Constant(0.2), (1 << k) + k - 1, seed=seed)
            assert int(window_histogram(seq, k).sum()) == 1 << k

    def test_constant_plus_sequence(self):
        assert window_histogram(pack_bits([1] * 5), 2).tolist() == [0, 0, 0, 4]

    def test_longer_sequences_are_allowed_extra_tail_ignored(self):
        base = sample_sequence(Zero(), (1 << 4) + 3, seed=8)
        longer = sample_sequence(Zero(), (1 << 4) + 50, seed=8)
        a = window_histogram(base, 4)
        b = window_histogram(longer, 4)
        assert histogram_as_dict(a) == histogram_as_dict(b)

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError, match="need 10 positions"):
            window_histogram(pack_bits([1] * 9), 3)

    def test_rejects_bad_levels(self):
        seq = pack_bits([1, 0, 1])
        with pytest.raises(ValueError):
            window_histogram(seq, 0)
        # the memory-policy guard fires before any length check
        with pytest.raises(ResourceError, match="memory policy"):
            window_histogram(seq, 27)


class TestWindowCodes:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 9])
    def test_codes_match_a_naive_scan(self, k):
        # short and ragged buffers: fewer than eight windows, and lengths
        # that are not a whole number of bytes
        for extra in (0, 1, 13):
            seq = sample_sequence(LogPower(1.0), (1 << k) + k - 1 + extra, seed=k + extra)
            bits = seq.bits01.tolist()
            expected = [sum(bits[j + t] << t for t in range(k)) for j in range(1 << k)]
            codes = window_codes(seq, k)
            assert codes.dtype == np.uint32
            assert codes.tolist() == expected

    def test_every_level_reads_the_prefix_of_one_build(self):
        top = 14
        seq = sample_sequence(LogPower(0.5), (1 << top) + top - 1, seed=21)
        codes = window_codes(seq, top)
        assert level_codes(codes, top) is codes
        for k in (1, 5, 8, 13, 14):
            assert np.array_equal(level_codes(codes, k), window_codes(seq, k))
            assert np.array_equal(
                np.bincount(level_codes(codes, k), minlength=1 << k), window_histogram(seq, k)
            )
        with pytest.raises(ValueError, match="needs 32768 window codes"):
            level_codes(codes, 15)

    def test_the_widest_level_of_32_bit_loads_matches_a_naive_scan(self):
        # k = 25: the window at shift 7 of a byte's load takes bits 7..31,
        # the last level whose loads are 32-bit
        k, edge = 25, 4096
        n = 1 << k
        length = n + k - 1
        packed = np.random.default_rng(25).integers(0, 256, (length + 7) // 8, dtype=np.uint8)
        codes = window_codes(PackedSequence(packed, length), k)
        weights = 1 << np.arange(k)
        for first in (0, n - edge):  # both on a byte boundary
            span = edge + k - 1
            bits = np.unpackbits(packed[first // 8 :], count=span, bitorder="little")
            naive = sliding_window_view(bits.astype(np.int64), k) @ weights
            assert np.array_equal(codes[first : first + edge], naive)

    def test_levels_above_the_cap_raise_before_any_allocation(self):
        # a 3-bit sequence: the length check would raise ValueError, so the
        # memory-policy guard must come first
        with pytest.raises(ResourceError, match="memory policy"):
            window_codes(pack_bits([1, 0, 1]), 27)


class TestQuenchedDistribution:
    def test_constant_plus_sequence_law(self):
        law = quenched_distribution(window_codes(pack_bits([1] * 5), 2))
        assert law.pmf == {0: 0.75, 4: 0.25}
        assert law.label == "quenched:k=2"
        assert law.weights == {0: 3, 4: 1}
        assert law.denominator == 4
        assert law.exact_mean() == Fraction(1)

    def test_single_level_law(self):
        # x = ++: both windows read +, so the count is 2 or 0 with equal odds
        law = quenched_distribution(window_codes(pack_bits([1, 1]), 1))
        assert law.pmf == {0: 0.5, 2: 0.5}
        assert law.mean() == pytest.approx(1.0)

    def test_pmf_matches_multiplicity_census(self):
        k = 6
        seq = sample_sequence(Constant(-0.15), (1 << k) + k - 1, seed=14)
        law = quenched_distribution(window_codes(seq, k))
        census = naive_window_counts(list(seq.bits01), k)
        expected: dict[int, float] = {0: (1 << k) - len(census)}
        for count in census.values():
            expected[count] = expected.get(count, 0) + 1
        expected = {m: c / (1 << k) for m, c in expected.items() if c}
        assert set(law.pmf) == set(expected)
        for m, p in expected.items():
            assert law.pmf[m] == pytest.approx(p, abs=1e-15)

    def test_law_matches_a_counter_over_the_counts(self):
        # saturated bias at k = 20: one pattern occurs hundreds of thousands
        # of times, so the multiplicities are long and sparse
        k = 20
        seq = sample_sequence(LogPower(0.25), (1 << k) + k - 1, seed=7)
        counts = window_histogram(seq, k)
        weights = Counter(counts.tolist())
        assert max(weights) > 100_000
        law = quenched_distribution(window_codes(seq, k))
        assert law.weights == dict(weights)
        assert law.pmf == {m: w / (1 << k) for m, w in sorted(weights.items())}
        assert list(law.pmf) == sorted(weights)
        assert law.exact_mean() == Fraction(1)

    @pytest.mark.parametrize("k,seed", [(4, 0), (8, 5), (10, 11)])
    def test_mean_count_is_exactly_one(self, k, seed):
        seq = sample_sequence(LogPower(0.25), (1 << k) + k - 1, seed=seed)
        law = quenched_distribution(window_codes(seq, k))
        assert law.exact_mean() == Fraction(1)
        assert sum(law.pmf.values()) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(("zero", "logpow:1.0", "const:0.49")),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        block=st.sampled_from((1, 2, 3)),
    )
    def test_law_matches_the_multiplicity_of_the_counts(self, spec, k, seed, block):
        # blocks of 1-3 codes make runs cross block boundaries; under
        # const:0.49 the all-ones pattern, the largest code, has the longest
        # run, so the run still open after the last block is the longest
        n = 1 << k
        codes = window_codes(sample_sequence(parse_schedule(spec), n + k - 1, seed), k)
        multiplicity = np.bincount(np.bincount(codes, minlength=n))
        weights = {0: int(multiplicity[0])}
        weights.update((int(m), int(multiplicity[m])) for m in np.flatnonzero(multiplicity))
        with mock.patch.object(counter, "_RUN_BLOCK", block):
            law = quenched_distribution(codes)
        assert law.weights == weights
        assert law.pmf == {m: w / n for m, w in sorted(weights.items())}
        assert list(law.pmf) == sorted(weights)


def runs_of(lengths, seed=0) -> np.ndarray:
    """Sorted uint32 codes holding one run of each length, in the given
    order, with gaps of 0-2 unused codes between the runs' values."""
    values = np.cumsum(np.random.default_rng(seed).integers(1, 4, size=len(lengths)))
    return np.repeat(values, lengths).astype(np.uint32)


def census(codes) -> dict[int, int]:
    """Weights by ``np.bincount`` of ``np.bincount``, with the zero weight
    set to the number of codes less the number of distinct codes."""
    multiplicity = np.bincount(np.bincount(codes))
    weights = {0: codes.size - np.unique(codes).size}
    weights.update((int(m), int(multiplicity[m])) for m in np.flatnonzero(multiplicity) if m)
    return weights


class TestRunRead:
    # the first ten runs fill codes 0..63, so one ends exactly where a block
    # of 64 does; 200 outgrows that block; every length 1.._CHAIN + 3 occurs
    # again, and a run of one ends the codes
    RUNS = [11, 10, 9, 8, 7, 6, 5, 4, 3, 1, 2, 200, *range(1, counter._CHAIN + 4), 1]

    @pytest.mark.parametrize("tally", (counter._TALLY, 10))
    @pytest.mark.parametrize("block", (1, 2, 3, 7, 64))
    def test_runs_of_every_length_meet_the_census(self, block, tally):
        # with a tally of 10, runs of 9, 10 and 11 codes fall on both sides
        # of the last counted length
        assert sum(self.RUNS[:10]) == 64 and self.RUNS[11] > 64
        codes = runs_of(self.RUNS)
        expected = census(codes)
        with mock.patch.object(counter, "_RUN_BLOCK", block), mock.patch.object(counter, "_TALLY", tally):
            law = quenched_distribution(codes)
        assert law.weights == expected
        assert list(law.weights) == sorted(expected)

    @pytest.mark.parametrize("block", (1, 2, 3, 7, 64, counter._RUN_BLOCK))
    @pytest.mark.parametrize("tail", ("geometric:0.6", "geometric:0.3", "pareto"))
    def test_random_runs_meet_the_census(self, tail, block):
        # in one default block, the passes over geometric(0.6) runs stop when
        # the matches are sparse, over geometric(0.3) runs after _CHAIN, and
        # over pareto runs when a pass shrinks the matches by under a
        # quarter; the pareto blocks hold runs of _TALLY codes or more
        rng = np.random.default_rng(7)
        if tail == "pareto":
            lengths = 1 + (rng.pareto(0.8, 4000) * 3).astype(int)
        else:
            lengths = rng.geometric(float(tail.split(":")[1]), 4000)
        codes = runs_of(np.minimum(lengths, 5000), seed=block)
        expected = census(codes)
        with mock.patch.object(counter, "_RUN_BLOCK", block):
            law = quenched_distribution(codes)
        assert law.weights == expected


class TestRunReadMemory:
    @pytest.mark.parametrize("source", ("equal", "zero"))
    def test_peak_stays_within_a_few_blocks(self, source):
        # the sort is in place and a block's temporaries are a few bools per
        # code, so the peak does not grow with 2^k: reading 2^20 codes takes
        # less than four blocks of bytes, whether all the codes are equal
        # or come from a fair coin
        k = 20
        n = 1 << k
        if source == "equal":
            codes = np.full(n, 12345, dtype=np.uint32)
        else:
            codes = window_codes(sample_sequence(Zero(), n + k - 1, seed=3), k)
        tracemalloc.start()
        try:
            law = quenched_distribution(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law.exact_mean() == Fraction(1)
        assert peak < 4 * counter._RUN_BLOCK
