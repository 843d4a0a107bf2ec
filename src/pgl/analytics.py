"""Exact and Monte Carlo analytics for window-hit statistics.

Setting: a sequence is sampled with per-position biases gamma_n (schedule),
a level-k pattern w with symbols omega_i = +-1 is drawn uniformly, and
I_j indicates that the window at position j matches w.  Everything here
follows from the likelihood ratio of a window against the fair coin,

    R_j(w) = prod_{i=1}^k (1 + 2 omega_i gamma_{i+j-1}),

which satisfies P(window j matches w) = 2^-k R_j(w) and has mean exactly 1
over uniform w.  The module computes:

* exact pattern-averaged quantities by enumerating all 2^k patterns in code
  order (log R_j is a sum over symbols, so the table for k symbols is the
  table for k-1 symbols twice, one copy per value of the last symbol), and
  mean |R_j - 1| from two sorted half-size tables, one row per window; a
  grid of windows that all read one bias is evaluated at one window, and
  at bias 0 (R = 1) not at all;
* exact joint hit probabilities for two windows, disjoint (closed form) or
  overlapping (the sum over shift-compatible patterns factorizes over
  residue classes of the overlap distance, and each class is a chain
  product built once for every start, so a run of positions costs a few
  array products per class length and a windowed product over the classes);
* the three Stein-method error terms A, B, C bounding the total-variation
  distance between the law of the total match count and Poisson(1), whose
  bounds read the biases through the |gamma| envelope (BiasSchedule.envelope),
  so they hold for biases of either sign and in any order;
* the ingredients of the non-convergence mechanism at slowly decaying bias:
  balanced products, the mass of patterns with atypically negative symbol
  sum, and the union bound for the hit probability of a fixed pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counter import CountDistribution
from .errors import NanGuard, ResourceError
from .sampler import derive_seed, sample_words
from .schedule import BiasSchedule, first_persistent_below

__all__ = [
    "ChenSteinParams",
    "ChenSteinReport",
    "BalancedSpec",
    "TailMass",
    "likelihood_ratio",
    "log_likelihood_values",
    "exact_likelihood_mean",
    "pair_hit_probability",
    "overlap_pair_probabilities",
    "mean_abs_likelihood_deviation",
    "chen_stein_terms",
    "exact_annealed_pmf",
    "balanced_product",
    "symbol_sum_tail_mass",
    "union_bound_hit_probability",
    "critical_onset_index",
    "EXACT_ANNEALED_CAP",
    "UNION_BOUND_CAP",
    "MC_SAMPLES_CAP",
]

# The exact C sum sorts two 2^(k/2)-entry half tables at each of the 2^k
# positions, 0.04-0.06 s at k = 13; above it, C takes the stratified bound.
_FULL_SUM_CAP = 13
# All-prefix enumeration for the exact annealed law costs 2^(2^k + k - 1).
EXACT_ANNEALED_CAP = 4
# Union bounds scan all 2^k window positions.
UNION_BOUND_CAP = 30
# Monte Carlo C holds mc_samples 64-bit codes and a few same-length float
# arrays: 2^22 samples (1 024 times the default) peak near 130 MB, inside the
# 256 MiB memory policy of counter.DENSE_CAP.
MC_SAMPLES_CAP = 1 << 22
# Onset threshold for per-factor control: positions with 1 + 2 gamma_n below
# 2^(1/4) make every overlap-pair factor small enough for the 2^(-3k/2) bound.
# The onset index j0 is reported with the Stein terms and enters none of them.
_ONSET_FACTOR_BOUND = (2.0 ** 0.25 - 1.0) / 2.0


@dataclass(frozen=True)
class ChenSteinParams:
    """Knobs for the Stein-method error terms at level k.

    epsilon in (0, 1) sets the C term's head block, the positions below
    2^(epsilon k), when C is not summed in full.  The reference rate is 1
    and the concentration exponent is 1/4; neither is a knob, and the report
    writes both as constants.  exact_cap (at most 26; 20 is the comfortable
    default) is the largest k for which B and the C grid values are summed
    exactly, in chunks of 2^14 positions and two 2^(k/2)-entry half tables,
    with nothing cached.  mc_samples (2..MC_SAMPLES_CAP) sizes the Monte
    Carlo fallback; seed makes it reproducible.
    """

    k: int
    epsilon: float = 0.1
    mc_samples: int = 4096
    exact_cap: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("level k must be >= 1")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")
        if self.mc_samples > MC_SAMPLES_CAP:
            raise ResourceError(
                f"mc_samples {self.mc_samples} exceeds the memory policy (cap {MC_SAMPLES_CAP})"
            )
        if not 1 <= self.exact_cap <= 26:
            raise ValueError("exact_cap must lie in 1..26")


@dataclass(frozen=True)
class ChenSteinReport(NanGuard):
    """The three error terms and their provenance.

    total = A + B + C upper-bounds the total-variation distance between the
    law of the match count over 2^k windows and Poisson(1), whose mean 1
    is the row's "lambda"; the concentration exponent 1/4 is a constant
    column that the bounds schema v1 keeps.  Modes record whether each term
    is exact, a monotone/analytic bound, or Monte Carlo (with standard
    error).
    """

    k: int
    a_term: float
    b_term: float
    b_mode: str
    c_term: float
    c_mode: str
    c_stderr: float
    total: float
    onset_index: int | None
    epsilon: float

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": 1.0,
            "A": self.a_term,
            "B": self.b_term,
            "B_mode": self.b_mode,
            "C": self.c_term,
            "C_mode": self.c_mode,
            "C_stderr": self.c_stderr,
            "total": self.total,
            "j0": self.onset_index,
            "epsilon": self.epsilon,
            "theta": 0.25,
        }


@dataclass(frozen=True)
class BalancedSpec:
    """Disjoint, equally sized index sets inside 1..k for balanced products."""

    k: int
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("level k must be >= 1")
        pset, mset = set(self.plus), set(self.minus)
        if len(pset) != len(self.plus) or len(mset) != len(self.minus):
            raise ValueError("index sets must not repeat indices")
        if pset & mset:
            raise ValueError("index sets must be disjoint")
        if len(pset) != len(mset):
            raise ValueError("index sets must have equal sizes")
        for i in pset | mset:
            if not 1 <= i <= self.k:
                raise ValueError(f"index {i} outside 1..{self.k}")


@dataclass(frozen=True)
class TailMass:
    """Exact and Gaussian-approximate mass of a symbol-sum tail set: the
    patterns with at most max_plus +1 symbols (-1 when the set is empty)."""

    exact: float
    normal_approx: float
    max_plus: int


# ---------------------------------------------------------------------------
# Enumeration over all 2^k patterns


def _pattern_sums(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """values[..., w] = sum of plus[i] over the set bits i of w plus minus[i]
    over its clear bits, for every k-bit code w (k = len(plus)).

    plus and minus hold one symbol per row: shape (k,) gives one table of
    2^k entries, shape (k, rows) gives rows tables side by side, returned as
    one contiguous (rows, 2^k) array.  Built in place by doubling, with the
    codes outer and the rows inner, so that each step runs along every row
    at once: once symbols 0..i-1 are in the first n = 2^i codes, symbol i
    copies them, plus plus[i], into the next n codes and adds minus[i] to the
    first n.  Every entry takes its additions in symbol order, whatever the
    layout.
    """
    values = np.zeros((1 << len(plus),) + np.shape(plus)[1:])
    n = 1
    for up, down in zip(plus, minus):
        np.add(values[:n], up, out=values[n : 2 * n])
        values[:n] += down
        n *= 2
    return np.ascontiguousarray(values.T)


def _symbol_logs(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + 2 gamma) and log(1 - 2 gamma), elementwise: the log factors
    of a +1 and a -1 symbol."""
    two_gamma = 2.0 * gamma
    return np.log1p(two_gamma), np.log1p(-two_gamma)


def log_likelihood_values(schedule: BiasSchedule, j: int, k: int) -> np.ndarray:
    """log R_j(w) for every level-k pattern w, indexed by its code:
    entry w is log likelihood_ratio(schedule, j, k, w)."""
    if j < 1 or k < 1:
        raise ValueError("window position and level must be >= 1")
    return _pattern_sums(*_symbol_logs(schedule.gamma_slice(j, k)))


def exact_likelihood_mean(schedule: BiasSchedule, j: int, k: int) -> float:
    """Mean of R_j over all 2^k patterns; identically 1 up to roundoff."""
    return float(np.exp(log_likelihood_values(schedule, j, k)).mean())


# ---------------------------------------------------------------------------
# Likelihood ratios and hit probabilities


def _check_code(k: int, code: int) -> None:
    """A level-k pattern code w encodes symbol i (1-based) in bit i-1 of w,
    1 for +1 and 0 for -1, so it lies in [0, 2^k)."""
    if not 0 <= code < (1 << k):
        raise ValueError(f"pattern code {code} outside [0, 2^{k})")


def _bias_run(
    schedule: BiasSchedule, start: int, length: int, width: int
) -> tuple[np.ndarray, bool]:
    """The biases at start..start+length-1, as (run, constant), for a kernel
    that evaluates every window of the run and adds up their values.

    When ``gamma_bounds`` gives least == greatest, the run holds one bias:
    run is that bias repeated over width positions, the span of the run's
    first window, and constant is True.  Every window of such a run takes
    the same steps on the same factors, so the kernel evaluates that one
    window and reduces np.broadcast_to(value, count), which has the bits of
    the reduction over every window.  Otherwise run is the run's fresh
    gamma_slice.
    """
    lo, hi = schedule.gamma_bounds(start, length)
    if lo == hi:
        return np.full(width, lo), True
    return schedule.gamma_slice(start, length), False


def likelihood_ratio(schedule: BiasSchedule, j: int, k: int, code: int) -> float:
    """R_j(w) = prod_i (1 + 2 omega_i gamma_{i+j-1}) for the level-k pattern
    with code w (``_check_code``)."""
    if j < 1 or k < 1:
        raise ValueError("window position and level must be >= 1")
    _check_code(k, code)
    two_gamma = 2.0 * schedule.gamma_slice(j, k)
    signs = np.array([2.0 * ((code >> i) & 1) - 1.0 for i in range(k)])
    return float(np.prod(1.0 + signs * two_gamma))


def pair_hit_probability(schedule: BiasSchedule, i: int, j: int, k: int) -> float:
    """P(windows at i and j both match one shared uniform pattern), exact.

    Disjoint windows (|i-j| >= k): the pattern average factorizes per symbol
    into 2^-2k prod_t (1 + 4 gamma_{t+i-1} gamma_{t+j-1}).

    Overlapping windows (0 < |i-j| < k): only patterns that equal their own
    shift by d = |i-j| can match twice; they are determined by their first d
    symbols, and the joint probability is the biased probability of the
    (k+d)-symbol juxtaposition.  The sum over the 2^d compatible patterns
    factorizes over residue classes mod d (see overlap_pair_probabilities).
    """
    if i < 1 or j < 1 or k < 1:
        raise ValueError("positions and level must be >= 1")
    if i == j:
        raise ValueError("pair positions must differ")
    lo, hi = min(i, j), max(i, j)
    d = hi - lo
    if d >= k:
        gi = schedule.gamma_slice(lo, k)
        gj = schedule.gamma_slice(hi, k)
        return math.ldexp(float(np.prod(1.0 + 4.0 * gi * gj)), -2 * k)
    return float(overlap_pair_probabilities(schedule.gamma_slice(lo, k + d), k, d, 1)[0])


def overlap_pair_probabilities(
    gamma: np.ndarray, k: int, distance: int, count: int, scratch: _PairScratch | None = None
) -> np.ndarray:
    """Joint hit probabilities for window pairs (i, i+distance), vectorized
    over count consecutive lower positions i, for overlap distance 0 < d < k;
    gamma is the bias run from the first i on (count + k + d - 1 values read).

    For each i the value is
        2^-(2k+d) * prod_{r=1}^{d} [ prod_{t = r, r+d, ... <= k+d} (1 + 2 g_t)
                                   + prod_{t = r, r+d, ... <= k+d} (1 - 2 g_t) ]
    with g_t = gamma_{i+t-1}: patterns compatible with a self-overlap at
    distance d are periodic with period d, so the sum over them factorizes
    into independent residue classes, one per period slot.

    With k + d = q d + s (0 <= s < d), class r holds q + 1 positions when
    r <= s and q otherwise.  So each bracket is F_L(m) = P+_L(m) + P-_L(m),
    where P±_L(m) = prod_{u<L} (1 ± 2 gamma_{m+ud}) is a chain product built
    once for every start m, and the product over the classes is a window
    product: F_{q+1} over the s starts i..i+s-1 times F_q over the d - s
    starts i+s..i+d-1.  Only products, no logs: O((q + log d) (count + d)).

    Every step writes into ``scratch`` (a _PairScratch), which the call makes
    for itself unless one is passed; a caller that passes one for every
    distance over the same gamma array forms 1 ± 2 gamma once, and gets back
    a view into it that its next call overwrites.
    """
    d = distance
    if not 0 < d < k:
        raise ValueError("overlap distance must satisfy 0 < d < k")
    if count < 1 or len(gamma) < count + k + d - 1:
        raise ValueError("need count >= 1 and a bias run of count + k + d - 1 values")
    if scratch is None:
        gamma = gamma[: count + k + d - 1]
        scratch = _PairScratch(len(gamma))
    grow, shrink = scratch.factors(gamma)
    q, s = divmod(k + d, d)
    starts = count + d - 1
    # chain products of length q at every start, then q + 1 for the first
    # count + s - 1 starts (the only ones a class of q + 1 positions uses)
    up = scratch.up[:starts]
    down = scratch.down[:starts]
    np.copyto(up, grow[:starts])
    np.copyto(down, shrink[:starts])
    for u in range(1, q):
        up *= grow[u * d : u * d + starts]
        down *= shrink[u * d : u * d + starts]
    short = np.add(up[s:], down[s:], out=scratch.values[: starts - s])
    acc = _window_products(short, d - s, count, scratch.acc, scratch.spare)
    if s:
        long_starts = count + s - 1
        tail = slice(q * d, q * d + long_starts)
        up_long = np.multiply(up[:long_starts], grow[tail], out=up[:long_starts])
        down_long = np.multiply(down[:long_starts], shrink[tail], out=down[:long_starts])
        longer = np.add(up_long, down_long, out=scratch.values[:long_starts])
        acc *= _window_products(longer, s, count, scratch.longer, scratch.spare)
    acc *= math.ldexp(1.0, -(2 * k + d))
    return acc


class _PairScratch:
    """The working arrays of overlap_pair_probabilities for bias runs of up
    to ``size`` values, in one block: the factors 1 ± 2 gamma of the run
    loaded last, the chain products, the class brackets and a spare for
    their window doubling, and the two window products.  One exact B sum
    makes one and hands it to every call, so no step allocates; nothing
    else holds it.
    """

    def __init__(self, size: int) -> None:
        (self.grow, self.shrink, self.up, self.down, self.values, self.spare, self.acc,
         self.longer) = np.empty((8, size))
        self._loaded = None

    def factors(self, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """1 + 2 gamma and 1 - 2 gamma over the run, formed only when gamma is
        not the array loaded last (so it must not change in between)."""
        n = len(gamma)
        if gamma is not self._loaded:
            two_g = np.multiply(gamma, 2.0, out=self.shrink[:n])
            np.add(1.0, two_g, out=self.grow[:n])
            np.subtract(1.0, two_g, out=self.shrink[:n])
            self._loaded = gamma
        return self.grow[:n], self.shrink[:n]


def _window_products(
    values: np.ndarray, width: int, count: int, out: np.ndarray, spare: np.ndarray
) -> np.ndarray:
    """out[m] = prod(values[m : m + width]) for m = 0..count-1 (width >= 1),
    written into out[:count] and returned.

    Binary doubling: products over 2^b consecutive entries come from two
    products over 2^(b-1), and the set bits of width pick the spans that
    tile each window.  Each level of spans is written over the array that
    held the level before last, values or spare, so both are overwritten.
    """
    spans, free = values[: count + width - 1], spare
    product = None
    size, offset = 1, 0
    while True:
        if width & size:
            part = spans[offset : offset + count]
            if product is None:
                product = out[:count]
                np.copyto(product, part)
            else:
                product *= part
            offset += size
        if 2 * size > width:
            return product
        doubled = np.multiply(spans[:-size], spans[size:], out=free[: len(spans) - size])
        spans, free = doubled, spans
        size *= 2


# ---------------------------------------------------------------------------
# Pattern-averaged deviation of the likelihood ratio


# Entries in the widest working array of a block of rows: 2^15 doubles,
# 256 KiB.  A row of the exact deviation sum is widest in its merge of
# sorted E and t, 2^(k - h) + 2^h entries (256 rows at k = 12); a row of
# Monte Carlo grid values in its mc_samples codes or its 12-symbol table
# (8 rows at the default 4096 samples, 1 at MC_SAMPLES_CAP).  The exact sum
# at k = 12 took 22, 18.6, 17.9 and 19.6 ms with 2^13..2^16 entries, and
# its allocations peaked at 0.6, 1.0, 1.7 and 3.2 MB.
_BLOCK_ENTRIES = 1 << 15


def _block_rows(row_entries: int) -> int:
    """Rows per block when the widest working array holds row_entries
    entries a row."""
    return max(1, _BLOCK_ENTRIES // row_entries)


def _deviation_sum(schedule: BiasSchedule, j: int, count: int, k: int) -> float:
    """sum of E|R_i - 1| over i = j..j+count-1, exact over all 2^k patterns:
    the row means of _deviation_means added in position order (no row mean
    depends on its block; a run of one bias gives one row, see _bias_run).
    """
    if j < 1 or k < 1:
        raise ValueError("window position and level must be >= 1")
    run, _ = _bias_run(schedule, j, count + k - 1, k)
    # symbol i of the window at j + r is column r of row i
    plus, minus = (sliding_window_view(logs, k).T for logs in _symbol_logs(run))
    means = np.broadcast_to(_deviation_means(plus, minus), count)
    # accumulate adds one mean at a time, in position order
    return float(np.add.accumulate(means)[-1])


def _deviation_means(plus: np.ndarray, minus: np.ndarray) -> list[float]:
    """E|R - 1| of every window, in column order: column r of the (k,
    windows) arrays plus and minus holds the _symbol_logs of window r.

    The first h = k // 2 symbols of a window give the low log-sums a, the
    rest the N high log-sums b (_pattern_sums tables, one row per window).
    R - 1 = e^a (E - t) with E = expm1(b) and t = expm1(-a); with E sorted,
    its prefix sums P and c = #{E <= t} from a stable merge of sorted E and
    t, sum |E - t| = P_N - 2 P_c + (2c - N) t.  Each step runs along rows,
    so no value depends on blocks or on which windows share the call; P_c
    is one gather from the flat (rows, N + 1) prefix array at c + row (N + 1).
    """
    k, windows = plus.shape
    h = k // 2
    n = 1 << (k - h)
    step = _block_rows(n + (1 << h))
    means = []
    for start in range(0, windows, step):
        rows = slice(start, start + step)
        # -a ascending, so t ascends and e^a = exp(-(-a))
        neg_low = _pattern_sums(plus[:h, rows], minus[:h, rows])
        np.negative(neg_low, out=neg_low)
        neg_low.sort(axis=1)
        t = np.expm1(neg_low)
        high = _pattern_sums(plus[h:, rows], minus[h:, rows])
        high.sort(axis=1)
        np.expm1(high, out=high)
        prefix = np.zeros((len(high), n + 1))  # P_0 = 0
        np.cumsum(high, axis=1, out=prefix[:, 1:])
        # t_i lands at i + c_i in the merge: stable, so E goes first on ties
        merged = np.argsort(np.concatenate((high, t), axis=1), axis=1, kind="stable")
        below = np.nonzero(merged >= n)[1].reshape(t.shape) - np.arange(1 << h)
        flat = below + np.arange(0, prefix.size, n + 1)[:, None]
        spread = prefix[:, -1:] - 2.0 * prefix.ravel().take(flat)
        spread += (2 * below - n) * t
        spread *= np.exp(-neg_low)
        means += (spread.sum(axis=1) / (1 << k)).tolist()
    return means


def _one_bias(biases: np.ndarray) -> bool:
    """Whether every entry of biases is one value: least == greatest."""
    return bool(biases.min() == biases.max())


def mean_abs_likelihood_deviation(
    schedule: BiasSchedule, positions: list[int], params: ChenSteinParams
) -> tuple[list[float], list[float]]:
    """E |R_j - 1| over uniform level-k patterns at each window position j
    in positions, k = params.k; returns (values, stderrs) in that order.

    One matrix holds the windows' biases, a column per position.  Exact
    (stderr 0) for k <= params.exact_cap: the columns go through
    _deviation_means.  Beyond, Monte Carlo over mc_samples patterns per
    position, reproducible per (seed, k, j), one table lookup per 12
    symbols; the positions go in blocks of _block_rows rows, which share
    each table build and lookup while every position keeps its own
    sample_words stream.  No value depends on which positions share a call.

    A matrix of one bias (least entry == greatest) holds one column many
    times over, and each column's steps run along its own row: a bias of 0
    gives R = 1, so values and stderrs 0.0 with no sample drawn; otherwise
    the exact mean of the first column stands for every position, and each
    Monte Carlo block builds one table row, from the first column, that all
    its rows read.
    """
    k, mc_samples = params.k, params.mc_samples
    biases = np.stack([schedule.gamma_slice(j, k) for j in positions], axis=1)
    one_bias = _one_bias(biases)
    if one_bias and biases[0, 0] == 0.0:
        return [0.0] * len(positions), [0.0] * len(positions)
    plus, minus = _symbol_logs(biases[:, :1] if one_bias else biases)
    if k <= params.exact_cap:
        values = _deviation_means(plus, minus)
        if one_bias:
            values *= len(positions)
        return values, [0.0] * len(values)
    values, stderrs = [], []
    step = _block_rows(max(mc_samples, 1 << min(k, 12)))
    for start in range(0, len(positions), step):
        rows = slice(start, start + step)
        # one bias: one table row, whose offset 0 every row's index reads
        cols = slice(0, 1) if one_bias else rows
        # codes hold k <= MAX_WORD_LEVEL < 64 bits, so their int64 view
        # reads the same values and yields signed indices
        codes = np.stack(
            [sample_words(k, derive_seed(params.seed, k, j), mc_samples) for j in positions[rows]]
        ).view(np.int64)
        logs = np.zeros(codes.shape)
        for lo in range(0, k, 12):
            table = _pattern_sums(plus[lo : lo + 12, cols], minus[lo : lo + 12, cols])
            width = table.shape[1]
            # each row's 12-symbol index, offset to its row of the flat table
            index = (codes >> lo) & (width - 1)
            index += np.arange(0, table.size, width)[:, None]
            logs += table.ravel().take(index)
        deviations = np.abs(np.expm1(logs))
        values += deviations.mean(axis=1).tolist()
        stderrs += (deviations.std(axis=1, ddof=1) / math.sqrt(mc_samples)).tolist()
    return values, stderrs


# ---------------------------------------------------------------------------
# Stein-method error terms


def critical_onset_index(schedule: BiasSchedule) -> int | None:
    """Smallest position from which 1 + 2 |gamma_n| stays below 2^(1/4).

    From this position on, every overlap-pair joint probability at level k is
    below 2^(-3k/2): each residue-class bracket is at most
    2 prod (1 + 2 |gamma_t|).  None when the schedule never decays that far.
    Reported as j0 beside the Stein terms; no term is computed from it.
    """
    return first_persistent_below(schedule, _ONSET_FACTOR_BOUND)


# Window positions per overlap_pair_probabilities call in the exact B sum:
# 2^14 doubles (128 KiB) per working array keeps every one of them in cache.
# Each chunk's sum fixes the printed bits, so the size is part of the output.
_PAIR_CHUNK = 1 << 14


def _pair_sum_exact(schedule: BiasSchedule, k: int) -> float:
    """Sum of joint hit probabilities over all ordered overlapping pairs
    (j, i) with i, j in 1..2^k and 0 < |i-j| < k.

    Each chunk of _PAIR_CHUNK lower positions i reads its bias run once for
    every distance d, whose pairs (i, i+d) with i <= 2^k - d go through
    overlap_pair_probabilities (chain products per residue class), all in
    one _PairScratch.  A run of one bias is evaluated at one lower position
    (see _bias_run), and its chunk sum depends only on (bias, d, count), so
    each such key is summed once per call and its float reused by every
    chunk that repeats it.  The chunk sums are added exactly (math.fsum),
    so their order does not matter.
    """
    n = 1 << k
    run_length = min(_PAIR_CHUNK + 2 * k - 2, n + k - 1)
    scratch = _PairScratch(run_length)
    chunk_sums = []
    repeated = {}  # (bias, d, count) -> the chunk sum of a run of one bias
    for i in range(1, n, _PAIR_CHUNK):
        # a pair's joint window spans k + d <= 2k - 1 positions
        run, constant = _bias_run(schedule, i, min(run_length, n + k - i), 2 * k - 1)
        for d in range(1, min(k - 1, n - i) + 1):
            count = min(_PAIR_CHUNK, n - d + 1 - i)
            if constant:
                key = (float(run[0]), d, count)
                if key not in repeated:
                    probs = overlap_pair_probabilities(run, k, d, 1, scratch)
                    repeated[key] = float(np.broadcast_to(probs, count).sum())
                chunk_sums.append(repeated[key])
            else:
                probs = overlap_pair_probabilities(run, k, d, count, scratch)
                chunk_sums.append(float(probs.sum()))
    return 2.0 * math.fsum(chunk_sums)


def _neighborhood_term(k: int) -> float:
    """2^-2k * sum_j (1 + #{i != j : |i-j| < k}), in closed form.

    The neighbor count sums to 2(k-1) 2^k - k(k-1) over j in 1..2^k.
    """
    n_terms = (2 * k - 1) * (1 << k) - k * (k - 1)
    return math.ldexp(float(n_terms), -2 * k)


def _stratum_grid(lo: int, n: int) -> list[tuple[int, int]]:
    """Half-octave strata covering window positions lo..n: a list of
    (left endpoint, width); the final position n is its own stratum."""
    points = {lo, n}
    p = 1
    while p < n:
        p <<= 1
        if lo < p < n:
            points.add(p)
        half = 3 * (p >> 1)
        if lo < half < n:
            points.add(half)
    ordered = sorted(points)
    strata = [(a, b - a) for a, b in zip(ordered, ordered[1:])]
    strata.append((n, 1))
    return strata


# Exact evaluation of the head block is cheap at the default epsilon; an
# absurdly large epsilon could make it dominate, so cap the per-position work.
_HEAD_BLOCK_EXACT_LIMIT = 4096


def _pair_bound(envelope: BiasSchedule, k: int) -> float:
    """Upper bound on _pair_sum_exact for any schedule with this envelope.

    A residue-class bracket of a pair probability is 2 sum over even subsets
    S of prod_{t in S} 2 gamma_t, so it grows with each |gamma_t|: the pairs
    whose lower window starts in a half-octave stratum are bounded by the
    constant-bias pair probability at the stratum's left-end gamma*, with
    k + d = q d + s giving s classes of q + 1 positions and d - s of q.
    The (strata, distances) array of those probabilities is built in one
    pass; each row is reduced along its contiguous axis, as one stratum's
    distances alone would be, and the rows are added in stratum order.
    """
    d = np.arange(1, k)
    q, s = np.divmod(k + d, d)
    scale = np.ldexp(1.0, -(2 * k + d))
    strata = _stratum_grid(1, 1 << k)
    # the left ends ascend, so one _gamma_at call reads gamma* at all of them
    left_gamma = envelope._gamma_at(np.array([left for left, _ in strata], dtype=np.float64))
    g = 2.0 * np.abs(left_gamma)[:, None]
    short = (1.0 + g) ** q + (1.0 - g) ** q
    long = (1.0 + g) ** (q + 1) + (1.0 - g) ** (q + 1)
    rows = (long**s * short ** (d - s) * scale).sum(axis=1).tolist()
    total = 0.0
    for (_, width), row in zip(strata, rows):
        total += width * row
    return 2.0 * total


def _c_term(schedule: BiasSchedule, params: ChenSteinParams) -> tuple[float, str, float]:
    """2^-k sum_j E|R_j - 1| over j in 1..2^k: exact, stratified-monotone
    bound, or Monte Carlo, in that order of preference.  E|R_j - 1| is
    symmetric and convex in each gamma_i, so it grows with each |gamma_i|,
    and a stratum's left-end value under the envelope bounds the stratum.
    """
    k = params.k
    n = 1 << k
    exact_points = k <= params.exact_cap
    if exact_points and k <= _FULL_SUM_CAP:
        return math.ldexp(_deviation_sum(schedule, 1, n, k), -k), "exact", 0.0

    lo = min(int(math.ceil(2 ** (params.epsilon * k))), n)
    c_value = 0.0
    variance = 0.0
    # head block j < lo, empty if lo = 1: each E|R_j - 1| <= E[R_j] + 1 = 2
    head = lo - 1
    if exact_points and 0 < head <= _HEAD_BLOCK_EXACT_LIMIT:
        c_value += math.ldexp(_deviation_sum(schedule, 1, head, k), -k)
    else:
        c_value += 2.0 * head * math.ldexp(1.0, -k)
    # tail block j >= lo: monotone upper integration on a half-octave grid
    strata = _stratum_grid(lo, n)
    values, stderrs = mean_abs_likelihood_deviation(
        schedule.envelope, [left for left, _ in strata], params
    )
    for (_, width), value, stderr in zip(strata, values, stderrs):
        c_value += width * math.ldexp(value, -k)
        variance += (width * math.ldexp(stderr, -k)) ** 2
    mode = "bound" if exact_points else "monte-carlo"
    return c_value, mode, math.sqrt(variance)


# The default onset_index of chen_stein_terms: find it from the schedule.
_ONSET_OF_SCHEDULE = object()


def chen_stein_terms(
    schedule: BiasSchedule, params: ChenSteinParams, onset_index=_ONSET_OF_SCHEDULE
) -> ChenSteinReport:
    """Assemble the Poisson(1) approximation error terms at level k.

    A: exact closed form over the window-neighborhood structure.
    B: sum of joint hit probabilities over overlapping pairs; exact through
       exact_cap, else the stratified envelope bound (_pair_bound).
    C: pattern-averaged likelihood deviation summed over positions; exact for
       small k, stratified monotone bound with exact or Monte Carlo grid
       values beyond (mode and stderr reported).  Both bounds hold for
       biases of either sign and in any order.

    onset_index, reported as j0, is critical_onset_index(schedule); it does
    not depend on k, so a caller with many levels may find it once and pass it.
    """
    if onset_index is _ONSET_OF_SCHEDULE:
        onset_index = critical_onset_index(schedule)
    k = params.k
    a_value = _neighborhood_term(k)
    if k <= params.exact_cap:
        b_value, b_mode = _pair_sum_exact(schedule, k), "exact"
    else:
        b_value, b_mode = _pair_bound(schedule.envelope, k), "bound"
    c_value, c_mode, c_stderr = _c_term(schedule, params)
    return ChenSteinReport(
        k=k,
        a_term=a_value,
        b_term=b_value,
        b_mode=b_mode,
        c_term=c_value,
        c_mode=c_mode,
        c_stderr=c_stderr,
        total=a_value + b_value + c_value,
        onset_index=onset_index,
        epsilon=params.epsilon,
    )


# ---------------------------------------------------------------------------
# Exact annealed law (tiny k)


def exact_annealed_pmf(schedule: BiasSchedule, k: int) -> CountDistribution:
    """Exact law of the match count when sequence and pattern are both random.

    Enumerates every length-(2^k + k - 1) prefix with its product-measure
    probability and every pattern; k <= EXACT_ANNEALED_CAP.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if k > EXACT_ANNEALED_CAP:
        raise ResourceError(
            f"exact annealed law needs 2^(2^k + k - 1) prefixes; k <= {EXACT_ANNEALED_CAP}"
        )
    n = 1 << k
    length = n + k - 1
    prefixes = np.arange(1 << length, dtype=np.uint32)
    gam = schedule.gamma_slice(1, length)
    prob = np.ones(1 << length)
    for pos in range(length):
        bit = ((prefixes >> np.uint32(pos)) & np.uint32(1)).astype(bool)
        prob *= np.where(bit, 0.5 + gam[pos], 0.5 - gam[pos])
    mask = np.uint32(n - 1)
    window_codes = [(prefixes >> np.uint32(j)) & mask for j in range(n)]
    accum = np.zeros(n + 1)
    for code in range(n):
        matches = np.zeros(1 << length, dtype=np.uint16)
        for j in range(n):
            matches += window_codes[j] == code
        accum += np.bincount(matches, weights=prob, minlength=n + 1)
    accum *= math.ldexp(1.0, -k)
    pmf = {m: float(p) for m, p in enumerate(accum) if p > 0.0}
    return CountDistribution(pmf=pmf, label=f"exact-annealed:{schedule.label}:k={k}")


# ---------------------------------------------------------------------------
# Non-convergence ingredients


def balanced_product(schedule: BiasSchedule, j: int, spec: BalancedSpec) -> float:
    """prod_{i in plus} (1 + gamma_{i+j-1}) * prod_{i in minus} (1 - gamma_{i+j-1}).

    For non-increasing schedules this stays <= 1 once the decay is slow
    relative to gamma^2, which is what defeats pattern-average cancellation.
    """
    if j < 1:
        raise ValueError("window position must be >= 1")
    gamma = schedule.gamma_slice(j, spec.k).tolist()
    value = 1.0
    for i in spec.plus:
        value *= 1.0 + gamma[i - 1]
    for i in spec.minus:
        value *= 1.0 - gamma[i - 1]
    return value


def symbol_sum_tail_mass(k: int, eta: float) -> TailMass:
    """Mass of k-symbol patterns with symbol sum strictly below -eta sqrt(k).

    Exact via the binomial tail (sum over counts of +1 symbols), alongside
    the Gaussian tail Phi(-eta).  Sums within 1e-9 relative of the cutoff are
    excluded, so a tail pattern has at most max_plus +1 symbols.  The tail is
    an integer sum of binomial coefficients, built by a running recurrence,
    and one correctly rounded int division by 2^k.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError("eta must be a finite number >= 0")
    # below -1 every cutoff gives the empty tail; the clamp keeps an eta
    # whose eta sqrt(k) overflows from making the threshold -inf
    threshold = max((k - eta * math.sqrt(k)) / 2.0, -1.0)
    nearest = round(threshold)
    if abs(threshold - nearest) < 1e-9 * max(1.0, abs(threshold)):
        m_max = int(nearest) - 1
    else:
        m_max = math.floor(threshold)
    total = 0
    coefficient = 1
    for m in range(m_max + 1):
        total += coefficient
        coefficient = coefficient * (k - m) // (m + 1)
    exact = total / (1 << k)
    normal = 0.5 * math.erfc(eta / math.sqrt(2.0))
    return TailMass(exact=exact, normal_approx=normal, max_plus=max(m_max, -1))


def union_bound_hit_probability(schedule: BiasSchedule, k: int, codes: list[int]) -> list[float]:
    """2^-k sum_{j=1}^{2^k} R_j(w) for each level-k pattern code w: union
    bounds for P(w occurs).

    Scans all 2^k positions in chunks (k <= UNION_BOUND_CAP), reading each
    chunk's biases once for every pattern, whose window products all go
    into one array, as 1 - 2 gamma goes into another, both made once per
    call (a run of one bias: one window, see _bias_run).  Factors
    stay >= 1 - 2*cap > 0 for capped schedules, so products cannot
    underflow within this envelope.
    """
    for code in codes:
        _check_code(k, code)
    if k > UNION_BOUND_CAP:
        raise ResourceError(f"union bound scans 2^k positions; k <= {UNION_BOUND_CAP}")
    if not codes:
        return []
    n = 1 << k
    totals = [0.0] * len(codes)
    chunk = 1 << 20
    acc = np.empty(min(chunk, n))
    shrink = np.empty(min(chunk, n) + k - 1)
    for j in range(1, n + 1, chunk):
        count = min(chunk, n - j + 1)
        gam, constant = _bias_run(schedule, j, count + k - 1, k)
        windows = 1 if constant else count
        gam *= 2.0  # 1 + 2 gamma then overwrites it: one 2^20 array fewer per chunk
        # factors[b] is the factor of a symbol with bit b: 1 - 2 gamma or 1 + 2 gamma
        factors = (np.subtract(1.0, gam, out=shrink[: len(gam)]), np.add(gam, 1.0, out=gam))
        for w, code in enumerate(codes):
            products = acc[:windows]
            np.copyto(products, factors[code & 1][:windows])
            for i in range(1, k):
                products *= factors[(code >> i) & 1][i : i + windows]
            totals[w] += float(np.broadcast_to(products, count).sum())
    return [math.ldexp(total, -k) for total in totals]
