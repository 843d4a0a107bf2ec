"""Sequence and pattern sampling: determinism, purity, statistics."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import pack_bits, prefix_probability
from pgl import sampler
from pgl.analytics import likelihood_ratio
from pgl.counter import window_codes
from pgl.sampler import (
    derive_seed,
    mix64,
    sample_sequence,
    sample_sequences,
    sample_words,
)
from pgl.schedule import BiasSchedule, Constant, LogPower, Table, Zero, parse_schedule


def exact_thresholds(sched, start, count):
    """floor((1/2 + gamma_n) * 2^64) over a run of positions: the exact
    thresholds whose bits the chunk brackets must reproduce."""
    return sampler._limits(sched.gamma_slice(start, count))


@dataclass(frozen=True)
class Unchecked(BiasSchedule):
    """A constant bias that its constructor does not check, so that the
    sampler's own range guard is what fires."""

    value: float

    def _gamma_at(self, ns):
        ns[:] = self.value
        return ns

    @property
    def label(self) -> str:
        return "unchecked"


class TestSeeds:
    def test_mix64_matches_published_splitmix_stream(self):
        # outputs of the standard 64-bit split-mix generator seeded with 0
        golden = 0x9E3779B97F4A7C15
        mask = (1 << 64) - 1
        expected = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        for i, value in enumerate(expected, start=1):
            assert mix64((i * golden) & mask) == value

    def test_derive_seed_depends_on_every_part_and_order(self):
        base = derive_seed(1, 2, 3)
        assert base == derive_seed(1, 2, 3)
        assert base != derive_seed(1, 3, 2)
        assert base != derive_seed(2, 2, 3)
        assert base != derive_seed(1, 2)
        assert 0 <= base < 1 << 64

    def test_derive_seed_accepts_large_parts(self):
        assert 0 <= derive_seed(2**64 - 1, 2**63) < 1 << 64


# Biases next to +-1/2, where rounding decides acceptance, and any double in
# [-1/2, 1/2]; construction rejects what the sampler could not use.
NEAR_HALF = (0.4999999999999999, -0.4999999999999999, 0.49999999999999994, -0.49999999999999994)
BIASES = st.one_of(st.sampled_from(NEAR_HALF), st.floats(-0.5, 0.5))


@st.composite
def accepted_schedules(draw):
    """A schedule of any kind that construction accepts."""
    kind = draw(st.sampled_from(["zero", "const", "logpow", "table"]))
    try:
        if kind == "zero":
            return Zero()
        if kind == "const":
            return Constant(draw(BIASES))
        if kind == "logpow":
            return LogPower(draw(st.floats(0.01, 4.0)), cap=draw(BIASES), n0=draw(st.integers(2, 64)))
        values = tuple(draw(st.lists(BIASES, min_size=1, max_size=8)))
        return Table(values, tail=draw(st.sampled_from(["repeat", "zero"])))
    except ValueError:
        reject()


class TestSequences:
    def test_sampling_is_deterministic(self):
        a = sample_sequence(LogPower(1.0), 4096, seed=11)
        b = sample_sequence(LogPower(1.0), 4096, seed=11)
        assert np.array_equal(a.packed, b.packed)
        c = sample_sequence(LogPower(1.0), 4096, seed=12)
        assert not np.array_equal(a.packed, c.packed)

    def test_prefix_is_pure_in_the_seed(self):
        # position n depends only on (seed, n): a short draw is a prefix of
        # a long one, for biased and unbiased schedules alike
        for sched in (Zero(), Constant(0.3), LogPower(0.5)):
            long = sample_sequence(sched, 1000, seed=5)
            short = sample_sequence(sched, 37, seed=5)
            assert np.array_equal(short.bits01, long.bits01[:37])

    def test_shared_chunks_match_one_unchunked_draw_per_seed(self):
        # eight chunks and a ragged tail, every kind sharing each seed's
        # words: every sequence equals one straight Philox draw compared
        # with its own schedule's thresholds at all positions.  Chunk 0 of
        # a log-power decay puts about 40 % of its words inside the chunk's
        # bracket, and the table's values alternate in sign and switch to
        # its zero tail in the middle of chunk 1.
        chunk = sampler._CHUNK
        signs = np.where(np.arange(chunk + chunk // 2 + 5) % 2 == 0, 0.3, -0.25)
        schedules = [
            LogPower(0.25), LogPower(0.5), LogPower(1.0), LogPower(2.0),
            parse_schedule("logpow:0.7:cap=0.3:n0=40"),
            Zero(), Constant(0.3), Constant(-0.3), Table(values=signs, tail="zero"),
        ]
        length = 8 * chunk + 13
        thresholds = [exact_thresholds(sched, 1, length) for sched in schedules]
        for seed in (0, 5, 2**63 + 7):
            result = sample_sequences(schedules, length, seed)
            assert len(result) == len(schedules)
            stream = np.random.Philox(key=seed).random_raw(length)
            for sched, limits, seq in zip(schedules, thresholds, result):
                assert seq.length == length
                assert np.array_equal(seq.bits01, (stream < limits).astype(np.uint8))
                assert np.array_equal(seq.packed, sample_sequence(sched, length, seed).packed)

    def test_every_threshold_lies_in_its_chunk_bracket(self):
        # chunk by chunk, the widened bracket holds every threshold the
        # chunk computes: positions 1..2^24 of each log-power variant, and
        # four chunks and a ragged tail of the constant kinds and of a table
        # whose values alternate in sign and end inside chunk 1, under both
        # tail rules
        chunk = sampler._CHUNK
        signs = np.where(np.arange(chunk + chunk // 2 + 5) % 2 == 0, 0.3, -0.25)
        runs = [
            (sched, 2**24) for sched in (
                LogPower(0.25), LogPower(0.5), LogPower(1.0), LogPower(2.0),
                parse_schedule("logpow:0.7:cap=0.3:n0=40"),
            )
        ]
        runs += [
            (sched, 4 * chunk + 13) for sched in (
                Zero(), Constant(0.3), Constant(-0.3),
                Table(values=signs), Table(values=signs, tail="zero"),
            )
        ]
        for sched, length in runs:
            for start in range(1, length + 1, chunk):
                count = min(chunk, length + 1 - start)
                low, high = sampler._bracket(sched, start, count)
                thresholds = exact_thresholds(sched, start, count)
                assert ((low <= thresholds) & (thresholds < high)).all(), (sched.label, start)

    def test_accessors_agree(self):
        bits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0]
        seq = pack_bits(bits)
        assert seq.length == 11
        assert seq.bits01.dtype == np.uint8
        assert seq.bits01.tolist() == bits
        # position n is bit (n - 1) % 8 of byte (n - 1) // 8, LSB first
        assert seq.packed.tolist() == [0b01011001, 0b011]

    def test_empirical_frequency_tracks_the_bias(self):
        cases = [(Zero(), 0.5), (Constant(0.3), 0.8), (Constant(-0.49), 0.01)]
        n = 10**5
        for sched, p in cases:
            seq = sample_sequence(sched, n, seed=2)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(seq.bits01.mean() - p) < 4 * sigma

    def test_window_sums_have_binomial_moments(self):
        # 10^4 disjoint 64-bit windows of a fair sequence: mean 32, variance 16
        windows, width = 10**4, 64
        seq = sample_sequence(Zero(), windows * width, seed=9)
        sums = seq.bits01.reshape(windows, width).sum(axis=1)
        assert abs(sums.mean() - 32.0) < 4 * (4.0 / math.sqrt(windows))
        assert abs(sums.var(ddof=1) - 16.0) < 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_sequence(Zero(), 0, seed=1)
        # a bias of +/- 1/2 leaves no randomness; the guard fires on use
        with pytest.raises(ValueError, match="outside"):
            sample_sequence(Unchecked(0.5), 8, seed=1)
        with pytest.raises(ValueError):
            sample_sequence(Unchecked(-0.7), 8, seed=1)

    @settings(max_examples=300, deadline=None)
    @given(
        sched=accepted_schedules(),
        start=st.one_of(st.integers(1, 70), st.integers(1, 2**40)),
        count=st.integers(1, 40),
    )
    @example(sched=Constant(0.4999999999999999), start=1, count=1)
    @example(sched=Constant(-0.4999999999999999), start=1, count=1)
    @example(sched=Constant(-0.49999999999999994), start=1, count=1)
    @example(sched=LogPower(1.0, cap=0.4999999999999999), start=1, count=4)
    @example(sched=Table((0.4999999999999999, -0.49999999999999994), tail="zero"), start=1, count=3)
    def test_thresholds_are_the_exact_floor_for_every_accepted_bias(self, sched, start, count):
        # floor(fl(1/2 + gamma) * 2^64) in exact arithmetic, never 0 and
        # never 2^64: every bias construction accepts samples in range
        got = exact_thresholds(sched, start, count).tolist()
        for g, t in zip(sched.gamma_slice(start, count).tolist(), got):
            assert t == math.floor(Fraction(0.5 + g) * 2**64)
            assert 1 <= t <= 2**64 - 1

    @settings(max_examples=300, deadline=None)
    @given(
        sched=accepted_schedules(),
        start=st.one_of(st.integers(1, 70), st.integers(1, 2**40)),
        offsets=st.lists(st.integers(0, 199), min_size=1, max_size=40, unique=True),
    )
    @example(sched=LogPower(1.0, n0=40), start=30, offsets=[0, 8, 9, 10, 11, 60])
    @example(sched=Table((0.1, -0.2, 0.3), tail="zero"), start=1, offsets=[0, 1, 2, 3, 9])
    @example(sched=Table((0.1, -0.2, 0.3)), start=3, offsets=[0, 1])
    def test_scattered_gamma_is_the_run_gamma_bit_for_bit(self, sched, start, offsets):
        # the sampler evaluates gamma only at the positions of words inside
        # a chunk's bracket; they must get the bits of the enclosing run,
        # and the run's thresholds must lie inside its bracket
        offsets = sorted(offsets)
        count = offsets[-1] + 1
        ns = np.array(offsets, dtype=np.float64)
        ns += start
        run = sched.gamma_slice(start, count)
        assert np.array_equal(sched._gamma_at(ns).view(np.uint64), run[offsets].view(np.uint64))
        low, high = sampler._bracket(sched, start, count)
        thresholds = exact_thresholds(sched, start, count)
        assert ((low <= thresholds) & (thresholds < high)).all()


class TestWords:
    def test_word_bit_conventions(self):
        # a pattern is an integer code at level k: bit i - 1 holds symbol i,
        # 1 for + and 0 for -, as in the codes of a sequence's windows
        seq = pack_bits([1, 0, 1, 1, 0])
        assert window_codes(seq, 2).tolist() == [0b01, 0b10, 0b11, 0b01]
        sched = Table((0.1, 0.2, 0.05))
        assert likelihood_ratio(sched, 1, 3, 0b001) == pytest.approx(1.2 * 0.6 * 0.9, rel=1e-15)
        assert likelihood_ratio(sched, 1, 3, 0b100) == pytest.approx(0.8 * 0.6 * 1.1, rel=1e-15)
        for code in range(8):
            bits = [(code >> i) & 1 for i in range(3)]
            assert likelihood_ratio(sched, 1, 3, code) == pytest.approx(
                8 * prefix_probability(sched, bits), rel=1e-14
            )
        assert all(0 <= int(code) < 8 for code in sample_words(3, 7, 100))

    def test_word_validation(self):
        # a level outside 1..MAX_WORD_LEVEL; codes are checked where they
        # are read (test_analytics)
        for k in (0, 61):
            with pytest.raises(ValueError):
                sample_words(k, 1, 1)

    def test_draws_are_pure_in_seed_and_index(self):
        k, seed = 12, 31
        stream = sample_words(k, seed, 10)
        # word t is stream word t of the seed's Philox generator, masked
        straight = np.random.Philox(key=seed).random_raw(10) & np.uint64((1 << k) - 1)
        assert np.array_equal(stream, straight)
        assert np.array_equal(sample_words(k, seed, 1), stream[:1])

    def test_word_frequencies_are_uniform(self):
        k, n = 3, 10**5
        codes = sample_words(k, seed=7, count=n)
        freq = np.bincount(codes.astype(np.int64), minlength=1 << k) / n
        sigma = math.sqrt((1 / 8) * (7 / 8) / n)
        assert np.all(np.abs(freq - 1 / 8) < 4 * sigma)

    def test_word_frequencies_pass_chi_square(self):
        k, n = 4, 10**5
        codes = sample_words(k, seed=13, count=n)
        observed = np.bincount(codes.astype(np.int64), minlength=1 << k)
        expected = n / (1 << k)
        statistic = float(((observed - expected) ** 2 / expected).sum())
        # the 1 - 1e-4 quantile of chi-square with 15 degrees of freedom
        assert statistic < 44.26322494417528
