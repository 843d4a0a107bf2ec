"""Deterministic sequence and word sampling.

Randomness comes from numpy's Philox counter generator keyed directly by the
caller's seed.  Each seed's stream is read once, in order, from word 0, so
bit n of a sampled sequence depends only on (seed, n), never on the chunk
size or on how many threads are running.

Sequences store one bit per position, bit value 1 encoding symbol +1 and bit
value 0 encoding -1.  Position n is sampled by comparing stream word n-1
against the 64-bit threshold of p_n = 1/2 + gamma_n, so P(bit=1) equals p_n
to within 2^-64.

The biases hardly move across a chunk of positions, so a chunk's words are
decided against one bracket [T_lo, T_hi) per schedule, made from the
chunk's least and greatest gamma (``gamma_bounds``): a word below T_lo
gives bit 1, a word at or above T_hi gives bit 0, and only the words in
between are compared with their own thresholds, from gamma evaluated at
their positions alone.  The bits are those of the exact thresholds: 1/2 +
gamma rounded to double, the scaling by 2^64 and the cast to uint64 are all
monotone, so every gamma of the chunk gives a threshold inside the bracket,
and a word outside it is on the same side of every one.  The bracket is
widened by ``_MARGIN`` threshold units on each side, which absorbs a log or
pow that is not monotone to the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Philox

from .schedule import BiasSchedule

__all__ = [
    "PackedSequence",
    "sample_sequence",
    "sample_sequences",
    "sample_words",
    "mix64",
    "derive_seed",
    "MAX_WORD_LEVEL",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Positions per chunk: a chunk's stream words (512 KiB) stay in cache while
# every schedule compares them with its bracket.
_CHUNK = 1 << 16
# Threshold units by which a chunk's bracket is widened on each side (about
# 2^-40 in p).  gamma_bounds reads the two ends of a non-increasing kind's
# run, so a log or pow that is not monotone to the last ulp could put an
# inner threshold just outside the unwidened bracket; one ulp of p near 1/2
# is 2^11 units.  The margin costs a word only in 2^-39 of draws.
_MARGIN = 1 << 24

# Pattern codes are masked from a single 64-bit draw; 60 keeps headroom in the
# signed arithmetic downstream consumers tend to do.
MAX_WORD_LEVEL = 60


def mix64(value: int) -> int:
    """SplitMix64 finalizer; a bijective 64-bit avalanche mix."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from a master seed and integer coordinates.

    Documented chain: h = mix64(master), then for each coordinate p,
    h = mix64(h XOR (p * golden-ratio-constant mod 2^64)).  Distinct
    coordinate tuples yield independent Philox keys.
    """
    h = mix64(master)
    for p in parts:
        h = mix64(h ^ ((p * _GOLDEN) & _MASK64))
    return h


@dataclass(frozen=True, eq=False)
class PackedSequence:
    """An immutable +-1 sequence stored as packed bits (LSB-first per byte)."""

    packed: np.ndarray
    length: int

    def __post_init__(self) -> None:
        need = (self.length + 7) // 8
        if self.packed.dtype != np.uint8 or self.packed.size != need:
            raise ValueError("packed buffer does not match the declared bit length")

    @property
    def bits01(self) -> np.ndarray:
        """The sequence as a 0/1 uint8 vector of length L (bit 1 <-> +1)."""
        return np.unpackbits(self.packed, count=self.length, bitorder="little")


def sample_sequence(schedule: BiasSchedule, length: int, seed: int) -> PackedSequence:
    """Sample x_1..x_L with P(x_n = +1) = 1/2 + gamma_n, deterministically.

    Bit n depends only on (seed, n, gamma_n); chunking below is invisible.
    """
    return sample_sequences([schedule], length, seed)[0]


def sample_sequences(
    schedules: Sequence[BiasSchedule], length: int, seed: int
) -> list[PackedSequence]:
    """The seed's sequence under each schedule, in order, each drawn as
    ``sample_sequence`` describes.

    The seed's stream is read once, in order: each chunk's words are drawn
    once and decided for every schedule against that schedule's bracket for
    the chunk (``_bracket_bits``).  The bracket saves each chunk's gamma
    evaluation but costs a second comparison with the words and gamma at
    each word inside the bracket, so it pays most with a slowly moving
    gamma (README, "Performance and caps").  Memory beyond the packed
    outputs stays one chunk of words whatever the length.
    """
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    packed = [np.empty((length + 7) // 8, dtype=np.uint8) for _ in schedules]
    stream = Philox(key=seed & _MASK64)
    pos = 0
    while pos < length:
        start, count = pos + 1, min(_CHUNK, length - pos)
        words = stream.random_raw(count)
        # _CHUNK is a multiple of 8, so every chunk starts on a byte
        span = slice(pos >> 3, (pos + count + 7) >> 3)
        for schedule, buffer in zip(schedules, packed):
            bits = _bracket_bits(schedule, start, words)
            buffer[span] = np.packbits(bits, bitorder="little")
        pos += count
    return [PackedSequence(buffer, length) for buffer in packed]


def _limits(gamma: np.ndarray) -> np.ndarray:
    """floor((1/2 + gamma) * 2^64), built in ``gamma``'s own buffer.  Past
    the guard, p * 2^64 is a positive double below 2^64 (an integer even: p
    is a multiple of 2^-54), so the truncating cast to uint64 is the floor."""
    p = gamma
    p += 0.5
    if not (0.0 < p.min() and p.max() < 1.0):
        raise ValueError("schedule produced a bias outside (-1/2, 1/2)")
    p *= 2.0**64
    return p.astype(np.uint64)


def _bracket(schedule: BiasSchedule, start: int, count: int) -> tuple[np.uint64, np.uint64]:
    """(T_lo, T_hi): every threshold of the chunk lies in [T_lo, T_hi).

    The ends are the thresholds of the chunk's least and greatest gamma,
    widened by ``_MARGIN`` and kept inside [0, 2^64 - 1]."""
    least, most = _limits(np.array(schedule.gamma_bounds(start, count))).tolist()
    return np.uint64(max(least - _MARGIN, 0)), np.uint64(min(most + _MARGIN, _MASK64))


def _bracket_bits(schedule: BiasSchedule, start: int, words: np.ndarray) -> np.ndarray:
    """``words < _limits(schedule.gamma_slice(start, len(words)))``, the
    chunk at ``start`` compared with its exact thresholds: only the words
    that the chunk bracket's two ends decide differently get their own
    threshold, from ``_gamma_at`` at their positions (module docstring)."""
    low, high = _bracket(schedule, start, len(words))
    bits = words < low
    near = np.flatnonzero((words < high) != bits)
    if near.size:
        ns = near.astype(np.float64)
        ns += start
        bits[near] = words[near] < _limits(schedule._gamma_at(ns))
    return bits


def sample_words(k: int, seed: int, count: int) -> np.ndarray:
    """Vector of ``count`` independent uniform word codes (uint64).

    Code t is masked from stream word t of this seed.
    """
    if not 1 <= k <= MAX_WORD_LEVEL:
        raise ValueError(f"word length must lie in 1..{MAX_WORD_LEVEL}")
    return Philox(key=seed & _MASK64).random_raw(count) & np.uint64((1 << k) - 1)
