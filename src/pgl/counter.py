"""Sliding-window pattern counting and quenched count laws.

For a sequence x and level k, the window at position j (1-based) is
(x_j, ..., x_{j+k-1}), encoded as the integer whose bit t-1 is the 0/1 bit of
x_{j+t-1}; x_j sits at the least significant bit.  Codes are read straight
from the packed buffer: the little-endian word loaded at byte b (32 bits up
to level 25, 64 above) holds the windows at positions 8b+1, ..., 8b+8, one
shift apart.  The codes are laid out in plane order: for k >= 3, entry
s * 2^(k-3) + b is the window at position 8b + s + 1, so plane s holds the
loads shifted by s; for k <= 2 there is one load and the codes are in
window order.  Every reader takes them as a multiset (the law sorts them,
a histogram bincounts them).  Since the level-k code of a window is the low
k bits of its level-K code, one level-K build serves every level k <= K
through the first 2^(k-3) codes of each plane (``level_codes``).  Codes are
uint32, which holds every level up to DENSE_CAP.  A level-k histogram is
the plain array of 2^k pattern counts, entry w for the pattern with code w.

The quenched count law of x at level k is the distribution of the count
N_x(w) when the pattern w is drawn uniformly: pmf(m) is the fraction of the
2^k patterns occurring exactly m times.  Its mean is exactly 1, because the
2^k windows distribute exactly 2^k occurrences over the 2^k patterns.  The
law is read from the sorted codes: a pattern occurring m times is a run of
length m, so no array of counts is built.  The runs are read in blocks of
whole runs.  In a block, boolean passes compare each code with the code d
places on, and the number of matches alone counts the runs of every length
up to the last pass d; only the runs longer than d are located, as
stretches of matches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ResourceError
from .sampler import PackedSequence

__all__ = [
    "CountDistribution",
    "window_codes",
    "level_codes",
    "window_histogram",
    "quenched_distribution",
    "DENSE_CAP",
]

# Counting keeps 2^k uint32 window codes (256 MiB at the cap) and no array of
# counts; above it they would exceed the memory policy.
DENSE_CAP = 26

# Loads built per block, so that a block's copy stays in cache while it
# fills its rows of the eight planes.
_CODE_BLOCK = 1 << 14

# Sorted codes whose runs are read at a time.  A block ends where the run
# holding the code after it starts, so it holds only whole runs; a run longer
# than a block is measured alone by a binary search for its end.  A block's
# passes hold three bools per code; larger blocks add to the peak memory of a
# deep level.
_RUN_BLOCK = 1 << 16

# Most boolean passes over a block; pass d marks the codes equal to the code
# d places on.
_CHAIN = 8

# Runs shorter than this are counted in one array of _TALLY + 1 counts (the
# last entry gathers the longer runs and is not read); a block holds at most
# _RUN_BLOCK / _TALLY runs of _TALLY codes or more, counted one by one.
_TALLY = 1 << 10


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
    """Level-k codes of the windows at positions 1..2^k, as a uint32 vector
    in plane order (module docstring): for k >= 3, entry s * 2^(k-3) + b is
    the window at position 8b + s + 1; for k <= 2, entry j is window j + 1.

    Needs length >= 2^k + k - 1.  Up to DENSE_CAP; ResourceError beyond,
    before anything is allocated.  The loads at each byte are 32-bit when
    k + 7 <= 32, so that the window at every shift 0..7 fits one, and
    64-bit above, cast to uint32 as they are written.  Each block of loads
    is copied once and written into all eight planes by one shift, then
    masked in place.
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
    rows = (n + 7) // 8
    # Eight zero bytes of padding keep the last rows' loads inside the buffer.
    padded = np.zeros(rows + 8, dtype=np.uint8)
    take = min(sequence.packed.size, padded.size)
    padded[:take] = sequence.packed[:take]
    load = "<u4" if k + 7 <= 32 else "<u8"
    loads = np.ndarray((rows,), dtype=load, buffer=padded, strides=(1,))
    shifts = np.arange(8, dtype=load)[:, None]
    codes = np.empty((8, rows), dtype=np.uint32)
    for lo in range(0, rows, _CODE_BLOCK):
        block = np.ascontiguousarray(loads[lo : lo + _CODE_BLOCK])
        out = codes[:, lo : lo + _CODE_BLOCK]
        np.right_shift(block, shifts, out=out, casting="unsafe")
        out &= np.uint32(n - 1)
    return codes.reshape(-1)[:n]


def level_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Level-k codes of the first 2^k windows, in plane order, from the
    ``window_codes`` of a level >= k: the codes themselves when there are
    2^k of them, else a masked copy of the first 2^(k-3) codes of each
    plane, or for k <= 2 of the first code of each of the first 2^k planes
    (the windows at positions 1..2^k, in window order)."""
    n = 1 << k
    if codes.size < n:
        raise ValueError(f"level {k} needs {n} window codes, got {codes.size}")
    if codes.size == n:
        return codes
    planes = codes.reshape(8, -1) if codes.size >= 8 else codes[:, None]
    chosen = planes[:, : n >> 3] if n >= 8 else planes[:n, 0]
    return (chosen & np.uint32(n - 1)).reshape(-1)


def window_histogram(sequence: PackedSequence, k: int) -> np.ndarray:
    """Occurrences of every level-k pattern over window positions 1..2^k,
    as ``np.bincount`` of ``window_codes`` (which has the same limits)."""
    return np.bincount(window_codes(sequence, k), minlength=1 << k)


def quenched_distribution(codes: np.ndarray) -> CountDistribution:
    """Count law of a uniform pattern against a fixed sequence, from its
    level-k window codes (2^k of them), which it sorts in place.

    A pattern occurring m >= 1 times is a run of m equal sorted codes, so
    weight m is the number of runs of length m, and the zero-count weight is
    2^k less the number of runs.  The runs are read in blocks of whole runs
    (``_block_runs``); a run longer than a block is measured by its end.
    """
    n = codes.size
    codes.sort()
    tally = np.zeros(_TALLY + 1, dtype=np.int64)
    weights = Counter()  # runs of _TALLY codes or more, or outgrowing a block
    lo = 0
    while lo < n:
        hi = lo + _RUN_BLOCK
        if hi < n:  # cut before the run holding codes[hi]
            hi = lo + int(np.searchsorted(codes[lo:hi], codes[hi], side="left"))
        if hi > lo:
            _block_runs(codes[lo:hi], tally, weights)
        else:  # the run at lo outgrows a block
            hi = lo + int(np.searchsorted(codes[lo:], codes[lo], side="right"))
            weights[hi - lo] += 1
        lo = hi
    weights.update({m: int(tally[m]) for m in np.flatnonzero(tally[:_TALLY]).tolist()})
    weights[0] = n - sum(weights.values())
    weights = dict(sorted(weights.items()))
    return CountDistribution(
        pmf={m: w / n for m, w in weights.items()},
        label=f"quenched:k={n.bit_length() - 1}",
        weights=weights,
        denominator=n,
    )


def _block_runs(x: np.ndarray, tally: np.ndarray, longest: Counter) -> None:
    """Count the runs of the sorted block x, which holds whole runs: a run of
    length L < _TALLY in ``tally[L]``, one of _TALLY codes or more in
    ``longest``.

    After pass d the chain marks the j with x[j] == x[j + d]; it holds
    S_d = sum over runs of max(0, L - d) Trues, so S_{d-1} - S_d runs have
    L >= d.  The passes stop once the Trues are sparse (at most one in 128
    codes), or shrink by less than a quarter in a pass (long runs hold most
    of them), or after ``_CHAIN``.  A run with L > d is then a stretch of
    L - d Trues, measured between the chain's edges.
    """
    m = x.size
    same = x[1:] == x[:-1]
    chain = same
    sums = [m, np.count_nonzero(same)]
    while len(sums) <= _CHAIN and 128 * sums[-1] > m and 4 * sums[-1] <= 3 * sums[-2]:
        d = len(sums)
        out = None if chain is same else chain[:-1]
        chain = np.logical_and(chain[:-1], same[d - 1 :], out=out)
        sums.append(np.count_nonzero(chain))
    d = len(sums) - 1
    longer = 0
    if sums[d]:
        # chain[i] != chain[i + 1] just before a stretch and at its last
        # True; a stretch at either end of the chain gets its edge here
        edges = np.flatnonzero(np.not_equal(chain[1:], chain[:-1]))
        if chain[0]:
            edges = np.concatenate(([-1], edges))
        if chain[-1]:
            edges = np.concatenate((edges, [chain.size - 1]))
        lengths = edges[1::2] - edges[::2] + d
        tally += np.bincount(np.minimum(lengths, _TALLY), minlength=_TALLY + 1)
        longest.update(lengths[lengths >= _TALLY].tolist())
        longer = lengths.size
    at_least = [sums[i - 1] - sums[i] for i in range(1, d + 1)] + [longer]
    for length in range(1, d + 1):
        tally[length] += at_least[length - 1] - at_least[length]
