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
  mean |R_j - 1| from two sorted half-size tables, one row per window;
* exact joint hit probabilities for two windows, disjoint (closed form) or
  overlapping (the sum over shift-compatible patterns factorizes over
  residue classes of the overlap distance, and each class is a chain
  product built once for every start, so a run of positions costs a few
  array products per class length and a windowed product over the classes);
* the three Stein-method error terms A, B, C bounding the total-variation
  distance between the law of the total match count and Poisson(1), whose
  bounds read the biases through the |gamma| envelope (schedule.envelope),
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
from .errors import CapabilityError, NanGuard, ResourceError
from .sampler import Word, derive_seed, sample_words
from .schedule import BiasSchedule, envelope, first_persistent_below

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
# positions, about 0.1 s at k = 13; above it, C takes the stratified bound.
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

    exact_cap (at most 26; 20 is the comfortable default) is the largest k
    for which B and the C grid values are summed exactly, in chunks of 2^14
    positions and two 2^(k/2)-entry half tables, with nothing cached.
    mc_samples (2..MC_SAMPLES_CAP) sizes the Monte Carlo fallback; seed makes
    it reproducible.
    """

    k: int
    epsilon: float = 0.1
    theta: float = 0.25
    mc_samples: int = 4096
    exact_cap: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("level k must be >= 1")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.theta < 0.5:
            raise ValueError("theta must lie in (0, 1/2)")
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
    law of the match count over 2^k windows and Poisson(1); modes record
    whether each term is exact, a monotone/analytic bound, or Monte Carlo
    (with standard error).
    """

    k: int
    lam: float
    a_term: float
    b_term: float
    b_mode: str
    c_term: float
    c_mode: str
    c_stderr: float
    total: float
    onset_index: int | None
    epsilon: float
    theta: float

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": self.lam,
            "A": self.a_term,
            "B": self.b_term,
            "B_mode": self.b_mode,
            "C": self.c_term,
            "C_mode": self.c_mode,
            "C_stderr": self.c_stderr,
            "total": self.total,
            "j0": self.onset_index,
            "epsilon": self.epsilon,
            "theta": self.theta,
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
    """Exact and Gaussian-approximate mass of a symbol-sum tail set."""

    exact: float
    normal_approx: float


# ---------------------------------------------------------------------------
# Enumeration over all 2^k patterns


def _pattern_sums(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """values[..., w] = sum of plus[i] over the set bits i of w plus minus[i]
    over its clear bits, for every k-bit code w (k = len(plus)).

    plus and minus hold one symbol per row: shape (k,) gives one table of
    2^k entries, shape (k, rows) gives rows tables side by side, shape
    (rows, 2^k), with each symbol's values broadcast down a column.  Built in
    place by doubling: once symbols 0..i-1 are in the first n = 2^i entries,
    symbol i copies them, plus plus[i], into the next n entries and adds
    minus[i] to the first n.
    """
    values = np.zeros(np.shape(plus)[1:] + (1 << len(plus),))
    n = 1
    for up, down in zip(plus, minus):
        np.add(values[..., :n], up[..., None], out=values[..., n : 2 * n])
        values[..., :n] += down[..., None]
        n *= 2
    return values


def log_likelihood_values(schedule: BiasSchedule, j: int, k: int) -> np.ndarray:
    """log R_j(w) for every level-k pattern w, indexed by its code:
    entry w is log R_j(Word(k, w))."""
    if j < 1 or k < 1:
        raise ValueError("window position and level must be >= 1")
    two_gamma = 2.0 * schedule.gamma_slice(j, k)
    return _pattern_sums(np.log1p(two_gamma), np.log1p(-two_gamma))


def exact_likelihood_mean(schedule: BiasSchedule, j: int, k: int) -> float:
    """Mean of R_j over all 2^k patterns; identically 1 up to roundoff."""
    return float(np.exp(log_likelihood_values(schedule, j, k)).mean())


# ---------------------------------------------------------------------------
# Likelihood ratios and hit probabilities


def likelihood_ratio(schedule: BiasSchedule, j: int, word: Word) -> float:
    """R_j(w) = prod_i (1 + 2 omega_i gamma_{i+j-1})."""
    if j < 1:
        raise ValueError("window position must be >= 1")
    two_gamma = 2.0 * schedule.gamma_slice(j, word.k)
    signs = np.fromiter(word.symbols(), dtype=np.float64, count=word.k)
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
    gamma: np.ndarray, k: int, distance: int, count: int
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
    """
    d = distance
    if not 0 < d < k:
        raise ValueError("overlap distance must satisfy 0 < d < k")
    if count < 1 or len(gamma) < count + k + d - 1:
        raise ValueError("need count >= 1 and a bias run of count + k + d - 1 values")
    q, s = divmod(k + d, d)
    starts = count + d - 1
    two_g = 2.0 * gamma[: count + k + d - 1]
    grow = 1.0 + two_g
    shrink = 1.0 - two_g
    # chain products of length q at every start, then q + 1 for the first
    # count + s - 1 starts (the only ones a class of q + 1 positions uses)
    up = grow[:starts].copy()
    down = shrink[:starts].copy()
    for u in range(1, q):
        up *= grow[u * d : u * d + starts]
        down *= shrink[u * d : u * d + starts]
    long_starts = count + s - 1
    acc = _window_products(up[s:] + down[s:], d - s, count)
    if s:
        tail = slice(q * d, q * d + long_starts)
        longer = up[:long_starts] * grow[tail] + down[:long_starts] * shrink[tail]
        acc *= _window_products(longer, s, count)
    return acc * math.ldexp(1.0, -(2 * k + d))


def _window_products(values: np.ndarray, width: int, count: int) -> np.ndarray:
    """out[m] = prod(values[m : m + width]) for m = 0..count-1 (width >= 1).

    Binary doubling: products over 2^b consecutive entries come from two
    products over 2^(b-1), and the set bits of width pick the spans that
    tile each window.
    """
    spans = values[: count + width - 1]
    out = None
    size, offset = 1, 0
    while True:
        if width & size:
            part = spans[offset : offset + count]
            out = part.copy() if out is None else out * part
            offset += size
        if 2 * size > width:
            return out
        spans = spans[:-size] * spans[size:]
        size *= 2


# ---------------------------------------------------------------------------
# Pattern-averaged deviation of the likelihood ratio


# High-half table entries per block of the exact deviation sum (32 KiB, 64
# rows at k = 12): of 2^10..2^16, 2^12 and 2^14 ran k = 12 fastest.
_BLOCK_ENTRIES = 1 << 12


def _deviation_sum(schedule: BiasSchedule, j: int, count: int, k: int) -> float:
    """sum of E|R_i - 1| over i = j..j+count-1, exact over all 2^k patterns.

    The first h = k // 2 symbols of a window give the low log-sums a, the
    rest the N high log-sums b (_pattern_sums tables, one row per window).
    R - 1 = e^a (E - t) with E = expm1(b) and t = expm1(-a); with E sorted,
    its prefix sums P and c = #{E <= t} from a stable merge of sorted E and
    t, sum |E - t| = P_N - 2 P_c + (2c - N) t.  Each step runs along rows and
    the row means are added in position order, so no value depends on blocks.
    """
    if j < 1 or k < 1:
        raise ValueError("window position and level must be >= 1")
    two_gamma = 2.0 * schedule.gamma_slice(j, count + k - 1)
    # symbol i of the window at j + r is column r of row i
    plus = sliding_window_view(np.log1p(two_gamma), k).T
    minus = sliding_window_view(np.log1p(-two_gamma), k).T
    h = k // 2
    n = 1 << (k - h)
    step = max(1, _BLOCK_ENTRIES >> (k - h))
    total = 0.0
    for start in range(0, count, step):
        rows = slice(start, start + step)
        # -a ascending, so t ascends and e^a = exp(-(-a))
        neg_low = np.sort(-_pattern_sums(plus[:h, rows], minus[:h, rows]), axis=1)
        t = np.expm1(neg_low)
        high = np.expm1(np.sort(_pattern_sums(plus[h:, rows], minus[h:, rows]), axis=1))
        prefix = np.cumsum(np.pad(high, ((0, 0), (1, 0))), axis=1)  # P_0 = 0
        # t_i lands at i + c_i in the merge: stable, so E goes first on ties
        merged = np.argsort(np.concatenate((high, t), axis=1), axis=1, kind="stable")
        below = np.nonzero(merged >= n)[1].reshape(t.shape) - np.arange(1 << h)
        spread = prefix[:, -1:] - 2.0 * np.take_along_axis(prefix, below, axis=1)
        spread += (2 * below - n) * t
        spread *= np.exp(-neg_low)
        for mean in (spread.sum(axis=1) / (1 << k)).tolist():
            total += mean
    return total


def mean_abs_likelihood_deviation(
    schedule: BiasSchedule,
    j: int,
    k: int,
    *,
    exact_cap: int = 20,
    mc_samples: int = 4096,
    seed: int = 0,
) -> tuple[float, float]:
    """E |R_j - 1| over uniform patterns; returns (value, stderr).

    Exact (stderr 0) for k <= exact_cap; beyond, Monte Carlo over mc_samples
    patterns, reproducible per (seed, k, j), one table lookup per 12 symbols.
    """
    if k <= exact_cap:
        return _deviation_sum(schedule, j, 1, k), 0.0
    two_gamma = 2.0 * schedule.gamma_slice(j, k)
    plus = np.log1p(two_gamma)
    minus = np.log1p(-two_gamma)
    codes = sample_words(k, derive_seed(seed, k, j), mc_samples)
    logs = np.zeros(mc_samples)
    for lo in range(0, k, 12):
        table = _pattern_sums(plus[lo : lo + 12], minus[lo : lo + 12])
        logs += table[(codes >> np.uint64(lo)) & np.uint64(len(table) - 1)]
    deviations = np.abs(np.expm1(logs))
    value = float(deviations.mean())
    stderr = float(deviations.std(ddof=1) / math.sqrt(mc_samples))
    return value, stderr


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
# 2^14 doubles (128 KiB) per temporary keeps every one of them in cache.
_PAIR_CHUNK = 1 << 14


def _pair_sum_exact(schedule: BiasSchedule, k: int) -> float:
    """Sum of joint hit probabilities over all ordered overlapping pairs
    (j, i) with i, j in 1..2^k and 0 < |i-j| < k.

    Each chunk of _PAIR_CHUNK lower positions i reads its bias run once for
    every distance d, whose pairs (i, i+d) with i <= 2^k - d go through
    overlap_pair_probabilities (chain products per residue class); the chunk
    sums are added exactly (math.fsum), so their order does not matter.
    """
    n = 1 << k
    chunk_sums = []
    for i in range(1, n, _PAIR_CHUNK):
        gamma = schedule.gamma_slice(i, min(_PAIR_CHUNK + 2 * k - 2, n + k - i))
        for d in range(1, min(k - 1, n - i) + 1):
            count = min(_PAIR_CHUNK, n - d + 1 - i)
            chunk_sums.append(float(overlap_pair_probabilities(gamma, k, d, count).sum()))
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
    """
    d = np.arange(1, k)
    q, s = np.divmod(k + d, d)
    scale = np.ldexp(1.0, -(2 * k + d))
    total = 0.0
    for left, width in _stratum_grid(1, 1 << k):
        g = 2.0 * abs(envelope.gamma(left))
        short = (1.0 + g) ** q + (1.0 - g) ** q
        long = (1.0 + g) ** (q + 1) + (1.0 - g) ** (q + 1)
        total += width * float((long**s * short ** (d - s) * scale).sum())
    return 2.0 * total


def _c_term(
    schedule: BiasSchedule, envelope: BiasSchedule, params: ChenSteinParams
) -> tuple[float, str, float]:
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
    # head block j < lo: each E|R_j - 1| <= E[R_j] + 1 = 2
    head = lo - 1
    if exact_points and head <= _HEAD_BLOCK_EXACT_LIMIT:
        c_value += math.ldexp(_deviation_sum(schedule, 1, head, k), -k)
    else:
        c_value += 2.0 * head * math.ldexp(1.0, -k)
    # tail block j >= lo: monotone upper integration on a half-octave grid
    for left, width in _stratum_grid(lo, n):
        value, stderr = mean_abs_likelihood_deviation(
            envelope,
            left,
            k,
            exact_cap=params.exact_cap,
            mc_samples=params.mc_samples,
            seed=params.seed,
        )
        c_value += width * math.ldexp(value, -k)
        variance += (width * math.ldexp(stderr, -k)) ** 2
    mode = "bound" if exact_points else "monte-carlo"
    return c_value, mode, math.sqrt(variance)


def chen_stein_terms(schedule: BiasSchedule, params: ChenSteinParams) -> ChenSteinReport:
    """Assemble the Poisson(1) approximation error terms at level k.

    A: exact closed form over the window-neighborhood structure.
    B: sum of joint hit probabilities over overlapping pairs; exact through
       exact_cap, else the stratified envelope bound (_pair_bound).
    C: pattern-averaged likelihood deviation summed over positions; exact for
       small k, stratified monotone bound with exact or Monte Carlo grid
       values beyond (mode and stderr reported).  Both bounds hold for
       biases of either sign and in any order.
    """
    k = params.k
    a_value = _neighborhood_term(k)
    bounding = envelope(schedule)
    if k <= params.exact_cap:
        b_value, b_mode = _pair_sum_exact(schedule, k), "exact"
    else:
        b_value, b_mode = _pair_bound(bounding, k), "bound"
    c_value, c_mode, c_stderr = _c_term(schedule, bounding, params)
    return ChenSteinReport(
        k=k,
        lam=1.0,
        a_term=a_value,
        b_term=b_value,
        b_mode=b_mode,
        c_term=c_value,
        c_mode=c_mode,
        c_stderr=c_stderr,
        total=a_value + b_value + c_value,
        onset_index=critical_onset_index(schedule),
        epsilon=params.epsilon,
        theta=params.theta,
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
        raise CapabilityError(
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
    Scalar gamma lookups keep indices exact for j beyond 2^53.
    """
    if j < 1:
        raise ValueError("window position must be >= 1")
    value = 1.0
    for i in spec.plus:
        value *= 1.0 + schedule.gamma(i + j - 1)
    for i in spec.minus:
        value *= 1.0 - schedule.gamma(i + j - 1)
    return value


def symbol_sum_tail_mass(k: int, eta: float) -> TailMass:
    """Mass of k-symbol patterns with symbol sum strictly below -eta sqrt(k).

    Exact via the binomial tail (sum over counts of +1 symbols), alongside
    the Gaussian tail Phi(-eta).  Boundary sums exactly at -eta sqrt(k) are
    excluded (strict inequality).  The tail is an integer sum of binomial
    coefficients, built by a running recurrence, and one correctly rounded
    int division by 2^k.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError("eta must be a finite number >= 0")
    threshold = (k - eta * math.sqrt(k)) / 2.0
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
    return TailMass(exact=exact, normal_approx=normal)


def union_bound_hit_probability(schedule: BiasSchedule, k: int, words: list[Word]) -> list[float]:
    """2^-k sum_{j=1}^{2^k} R_j(w) for each word w: union bounds for P(w occurs).

    Scans all 2^k positions in chunks (k <= UNION_BOUND_CAP), reading each
    chunk's biases once for every word.  Factors stay >= 1 - 2*cap > 0 for
    capped schedules, so products cannot underflow within this envelope.
    """
    for word in words:
        if word.k != k:
            raise ValueError(f"word has level {word.k}, expected {k}")
    if k > UNION_BOUND_CAP:
        raise CapabilityError(f"union bound scans 2^k positions; k <= {UNION_BOUND_CAP}")
    if not words:
        return []
    n = 1 << k
    totals = [0.0] * len(words)
    chunk = 1 << 20
    for j in range(1, n + 1, chunk):
        count = min(chunk, n - j + 1)
        gam = schedule.gamma_slice(j, count + k - 1)
        gam *= 2.0  # 1 + 2 gamma then overwrites it: one 2^20 array fewer per chunk
        # factors[b] is the factor of a symbol with bit b: 1 - 2 gamma or 1 + 2 gamma
        factors = (1.0 - gam, np.add(gam, 1.0, out=gam))
        for w, word in enumerate(words):
            acc = factors[word.bit(1)][:count].copy()
            for i in range(1, k):
                acc *= factors[word.bit(i + 1)][i : i + count]
            totals[w] += float(acc.sum())
    return [math.ldexp(total, -k) for total in totals]
