"""Sliding-window pattern counting and quenched count laws.

For a sequence x and level k, the window at position j (1-based) is
(x_j, ..., x_{j+k-1}), encoded as the integer whose bit t-1 is the 0/1 bit of
x_{j+t-1}; x_j sits at the least significant bit.  The histogram scans the
first 2^k windows in one pass with a rolling code update costing O(1) per
position.

The quenched count law of x at level k is the distribution of the count
N_x(w) when the pattern w is drawn uniformly: pmf(m) is the fraction of the
2^k patterns occurring exactly m times.  Its mean is exactly 1, because the
2^k windows distribute exactly 2^k occurrences over the 2^k patterns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ResourceError
from .sampler import PackedSequence, Word

__all__ = [
    "WindowHistogram",
    "CountDistribution",
    "window_histogram",
    "count_word",
    "quenched_distribution",
    "histogram_to_csv",
    "distribution_to_csv",
    "DENSE_CAP",
]

# Counting keeps a 2^k array of 32-bit counters (256 MiB at the cap); above
# it the counters would exceed the memory policy.
DENSE_CAP = 26


@dataclass(frozen=True, eq=False)
class WindowHistogram:
    """Occurrence counts of every level-k pattern over the first 2^k windows."""

    k: int
    counts: np.ndarray
    distinct: int

    @property
    def positions(self) -> int:
        return 1 << self.k

    def count(self, word: Word) -> int:
        if word.k != self.k:
            raise ValueError(f"word has level {word.k}, histogram has level {self.k}")
        return int(self.counts[word.code])


@dataclass(frozen=True)
class CountDistribution:
    """A probability law on counts m = 0, 1, 2, ...

    When the law is exact-rational (quenched laws are: integer pattern
    multiplicities over a 2^k denominator) the integer data rides along so
    that identities like mean == 1 can be checked without rounding.
    """

    pmf: dict[int, float]
    label: str
    weights: dict[int, int] | None = field(default=None, compare=False)
    denominator: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for m, p in self.pmf.items():
            if m < 0 or p < 0:
                raise ValueError(f"invalid pmf entry {m}: {p}")
        total = sum(self.pmf.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf masses sum to {total!r}, not 1")

    def mass(self, m: int) -> float:
        return self.pmf.get(m, 0.0)

    def mean(self) -> float:
        return sum(m * p for m, p in sorted(self.pmf.items()))

    def exact_mean(self) -> Fraction | None:
        """Mean as an exact rational, when integer weights are available."""
        if self.weights is None or self.denominator is None:
            return None
        return Fraction(sum(m * w for m, w in self.weights.items()), self.denominator)

    def support(self) -> list[int]:
        return sorted(self.pmf)


def window_histogram(sequence: PackedSequence, k: int) -> WindowHistogram:
    """Count every level-k pattern over window positions 1..2^k.

    Needs length >= 2^k + k - 1.  32-bit counters up to DENSE_CAP,
    ResourceError beyond.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if k > DENSE_CAP:
        raise ResourceError(
            f"level {k} exceeds the memory policy (cap {DENSE_CAP}); "
            "lower k or raise the policy in a fork that has the memory"
        )
    n = 1 << k
    if sequence.length < n + k - 1:
        raise ValueError(
            f"need {n + k - 1} positions for level {k}, sequence has {sequence.length}"
        )
    bits = sequence.bits01
    codes = bits[0:n].astype(np.uint32)
    for t in range(1, k):
        codes |= bits[t : t + n].astype(np.uint32) << np.uint32(t)
    counts = np.bincount(codes, minlength=n).astype(np.uint32)
    return WindowHistogram(k=k, counts=counts, distinct=int(np.count_nonzero(counts)))


def count_word(sequence: PackedSequence, word: Word) -> int:
    """Occurrences of one pattern over window positions 1..2^k.

    Same window convention as the histogram, without allocating 2^k counters.
    """
    k = word.k
    n = 1 << k
    if sequence.length < n + k - 1:
        raise ValueError(
            f"need {n + k - 1} positions for level {k}, sequence has {sequence.length}"
        )
    bits = sequence.bits01
    match = bits[0:n] == np.uint8(word.code & 1)
    for t in range(1, k):
        match &= bits[t : t + n] == np.uint8((word.code >> t) & 1)
    return int(match.sum())


def quenched_distribution(histogram: WindowHistogram) -> CountDistribution:
    """Count law of a uniform pattern against a fixed sequence.

    The zero-count mass comes from the distinct-pattern count, never from
    iterating the absent patterns.
    """
    n = 1 << histogram.k
    multiplicity = np.bincount(histogram.counts[histogram.counts > 0])
    weights = {int(m): int(c) for m, c in enumerate(multiplicity) if m > 0 and c > 0}
    weights[0] = n - histogram.distinct
    pmf = {m: w / n for m, w in sorted(weights.items())}
    return CountDistribution(
        pmf=pmf,
        label=f"quenched:k={histogram.k}",
        weights=weights,
        denominator=n,
    )


def histogram_to_csv(histogram: WindowHistogram, path: str | Path) -> None:
    """Write `word_code,count` rows for occurring patterns, code ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word_code", "count"])
        for code in np.nonzero(histogram.counts)[0]:
            writer.writerow([int(code), int(histogram.counts[code])])


def distribution_to_csv(distribution: CountDistribution, path: str | Path) -> None:
    """Write `m,probability` rows, m ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "probability"])
        for m in distribution.support():
            writer.writerow([m, repr(distribution.pmf[m])])
