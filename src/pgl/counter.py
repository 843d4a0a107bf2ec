"""Sliding-window pattern counting and quenched count laws.

For a sequence x and level k, the window at position j (1-based) is
(x_j, ..., x_{j+k-1}), encoded as the integer whose bit t-1 is the 0/1 bit of
x_{j+t-1}; x_j sits at the least significant bit.  Codes are read straight
from the packed buffer: the 64-bit little-endian word loaded at byte b holds
the windows at positions 8b+1, ..., 8b+8, one shift apart.  Since the level-k
code of a window is the low k bits of its level-K code, one level-K build
serves every level k <= K through its first 2^k codes.  A level-k histogram
is the plain array of 2^k pattern counts, entry w for the pattern with code w.

The quenched count law of x at level k is the distribution of the count
N_x(w) when the pattern w is drawn uniformly: pmf(m) is the fraction of the
2^k patterns occurring exactly m times.  Its mean is exactly 1, because the
2^k windows distribute exactly 2^k occurrences over the 2^k patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ResourceError
from .sampler import PackedSequence

__all__ = [
    "CountDistribution",
    "window_codes",
    "level_codes",
    "level_histogram",
    "window_histogram",
    "quenched_distribution",
    "DENSE_CAP",
]

# Counting keeps 2^k window codes and 2^k counters, each of native integer
# width (512 MiB apiece at the cap); above it they would exceed the memory
# policy.
DENSE_CAP = 26

# Rows of eight windows built per block, so that a block's codes stay in
# cache while the eight shift phases fill them.
_CODE_BLOCK = 1 << 14


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


def window_codes(sequence: PackedSequence, k: int) -> np.ndarray:
    """Level-k codes of the windows at positions 1..2^k, as an intp vector.

    Needs length >= 2^k + k - 1.  No buffer that long exists beyond
    k = 57, the longest window one 64-bit load holds at every shift.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    n = 1 << k
    if sequence.length < n + k - 1:
        raise ValueError(
            f"need {n + k - 1} positions for level {k}, sequence has {sequence.length}"
        )
    rows = (n + 7) // 8
    # Eight zero bytes of padding keep the last rows' loads inside the buffer.
    padded = np.zeros(rows + 8, dtype=np.uint8)
    take = min(sequence.packed.size, padded.size)
    padded[:take] = sequence.packed[:take]
    loads = np.ndarray((rows,), dtype="<i8", buffer=padded, strides=(1,))
    codes = np.empty((rows, 8), dtype=np.intp)
    mask = n - 1
    for lo in range(0, rows, _CODE_BLOCK):
        block = np.ascontiguousarray(loads[lo : lo + _CODE_BLOCK])
        for shift in range(8):
            # an arithmetic shift only fills bits that the mask drops
            np.bitwise_and(block >> shift, mask, out=codes[lo : lo + _CODE_BLOCK, shift])
    return codes.reshape(-1)[:n]


def level_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Level-k codes of the first 2^k windows, from the codes of a level >= k.

    The codes themselves when they are level k already (2^k of them).
    """
    n = 1 << k
    if codes.size < n:
        raise ValueError(f"level {k} needs {n} window codes, got {codes.size}")
    return codes if codes.size == n else codes[:n] & (n - 1)


def level_histogram(codes: np.ndarray, k: int) -> np.ndarray:
    """Occurrences of every level-k pattern over the first 2^k windows of
    ``codes``: entry w counts the pattern with code w."""
    return np.bincount(level_codes(codes, k), minlength=1 << k)


def window_histogram(sequence: PackedSequence, k: int) -> np.ndarray:
    """Occurrences of every level-k pattern over window positions 1..2^k.

    Needs length >= 2^k + k - 1.  Up to DENSE_CAP; ResourceError beyond,
    before any window is read.
    """
    if k > DENSE_CAP:
        raise ResourceError(
            f"level {k} exceeds the memory policy (cap {DENSE_CAP}); "
            "lower k or raise the policy in a fork that has the memory"
        )
    return level_histogram(window_codes(sequence, k), k)


def quenched_distribution(counts: np.ndarray) -> CountDistribution:
    """Count law of a uniform pattern against a fixed sequence, from its
    level-k pattern counts (2^k of them).

    multiplicity[m] is the number of patterns occurring exactly m times, so
    the zero-count mass is its entry 0 and only its non-zero entries become
    weights.
    """
    n = counts.size
    multiplicity = np.bincount(counts)
    weights = {0: int(multiplicity[0])}
    weights.update((int(m), int(multiplicity[m])) for m in np.flatnonzero(multiplicity))
    pmf = {m: w / n for m, w in sorted(weights.items())}
    return CountDistribution(
        pmf=pmf,
        label=f"quenched:k={n.bit_length() - 1}",
        weights=weights,
        denominator=n,
    )
