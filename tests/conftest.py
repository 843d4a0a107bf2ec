"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive — direct window scans, explicit
products over whole prefixes, full enumerations — so that the library is
checked against arithmetic a reader can verify by hand.  Keep these slow
and obvious; never import them from the package under test.
"""

from __future__ import annotations

import math

import numpy as np

from pgl.sampler import PackedSequence


def pack_bits(bits) -> PackedSequence:
    """Build a PackedSequence from explicit 0/1 bits (bit 1 = symbol +1)."""
    arr = np.asarray(list(bits), dtype=np.uint8)
    packed = np.packbits(arr, bitorder="little")
    return PackedSequence(packed=packed, length=int(arr.size))


def naive_window_counts(bits, k: int) -> dict[int, int]:
    """Count level-k patterns over the first 2^k windows by direct scan.

    The window starting at (0-based) position j has code sum_i bits[j+i] << i:
    the first symbol of the window is the least significant bit.
    """
    bits = list(bits)
    counts: dict[int, int] = {}
    for j in range(1 << k):
        code = 0
        for i in range(k):
            code |= bits[j + i] << i
        counts[code] = counts.get(code, 0) + 1
    return counts


def prefix_probability(schedule, bits) -> float:
    """Probability of an explicit prefix under the product measure."""
    p = 1.0
    for n, b in enumerate(bits, start=1):
        g = schedule.gamma(n)
        p *= (0.5 + g) if b else (0.5 - g)
    return p


def brute_pair_hit_probability(schedule, i: int, j: int, k: int) -> float:
    """P(windows at i and j both equal the pattern), by full enumeration.

    Sums over every bit string on the positions min(i, j)..max(i, j)+k-1
    that the two windows cover (the positions before them are free and sum
    out to 1).  A string puts the same pattern at both windows exactly when
    its two windows agree, and then that one pattern, of the 2^k, matches
    twice.  Exponential in |i-j| + k; keep both small.
    """
    lo = min(i, j)
    length = abs(i - j) + k
    bits = (np.arange(1 << length)[:, None] >> np.arange(length)) & 1
    gam = np.array([schedule.gamma(n) for n in range(lo, lo + length)])
    prob = np.where(bits == 1, 0.5 + gam, 0.5 - gam).prod(axis=1)
    agree = np.all(bits[:, i - lo:i - lo + k] == bits[:, j - lo:j - lo + k], axis=1)
    return float(prob[agree].sum()) / (1 << k)


def brute_annealed_pmf(schedule, k: int) -> dict[int, float]:
    """Exact law of the match count with pattern and sequence both random.

    Full enumeration of every (prefix, pattern) combination; usable for
    k <= 3 only.
    """
    n = 1 << k
    length = n + k - 1
    pmf: dict[int, float] = {}
    for code in range(1 << k):
        wbits = [(code >> t) & 1 for t in range(k)]
        for x in range(1 << length):
            xbits = [(x >> t) & 1 for t in range(length)]
            m = sum(1 for j in range(n) if xbits[j:j + k] == wbits)
            pmf[m] = pmf.get(m, 0.0) + prefix_probability(schedule, xbits)
    return {m: p / (1 << k) for m, p in sorted(pmf.items())}


def brute_likelihood_ratio(schedule, j: int, word_bits) -> float:
    """prod_i (1 + 2 omega_i gamma_{i+j-1}) with omega = 2*bit - 1."""
    r = 1.0
    for i, b in enumerate(word_bits, start=1):
        g = schedule.gamma(i + j - 1)
        r *= 1.0 + (2.0 * b - 1.0) * 2.0 * g
    return r


def _poisson_pmf(lam: float, m_max: int) -> np.ndarray:
    """Poisson(lam) masses at m = 0..m_max, from exp(m ln lam - lam - ln m!)."""
    m = np.arange(m_max + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(m_max + 1)])
    return np.exp(m * math.log(lam) - lam - log_fact)


def _poisson_mixture(weights, intensities) -> np.ndarray:
    """sum_i weights[i] * Poisson(intensities[i]), as masses at m = 0, 1, ...

    The support reaches ten standard deviations past the largest intensity,
    so the mass left out is far below anything the tests resolve.
    """
    top = max(intensities)
    m_max = int(top + 10 * math.sqrt(top) + 30)
    pmf = np.zeros(m_max + 1)
    for w, lam in zip(weights, intensities):
        pmf += w * _poisson_pmf(lam, m_max)
    return pmf


def tv_between(p: np.ndarray, q: np.ndarray) -> float:
    """(1/2) sum_m |p(m) - q(m)| for mass arrays indexed by m = 0, 1, ..."""
    size = max(len(p), len(q))
    p = np.pad(p, (0, size - len(p)))
    q = np.pad(q, (0, size - len(q)))
    return 0.5 * float(np.abs(p - q).sum())


def tv_to_poisson_one(pmf: np.ndarray) -> float:
    """Total-variation distance from a mass array to Poisson(1)."""
    return tv_between(pmf, _poisson_pmf(1.0, len(pmf) + 30))


def mixed_poisson_prediction(gamma_fn, k: int) -> np.ndarray:
    """Predicted quenched law of the level-k match count, masses at m = 0, 1, ...

    ``gamma_fn(n)`` is the bias of position n (1-based).  A pattern with s
    symbols +1 meets the window starting at position j with probability
    2^-k prod_i (1 + 2 omega_i gamma_{j+i-1}).  Spreading its symbols evenly
    over the window, i.e. replacing each log factor by its window average
    u_j = mean log(1 + 2 gamma_n), d_j = mean log(1 - 2 gamma_n), gives every
    such pattern the intensity

        lambda(s) = 2^-k sum_{j <= 2^k} exp(s u_j + (k - s) d_j),

    and the count law is taken as the mixture sum_s C(k,s) 2^-k Po(lambda(s)).
    Cost O(k 2^k); ``brute_mixed_poisson_pmf`` checks it for small k.
    """
    n = 1 << k
    g = np.array([gamma_fn(i) for i in range(1, n + k)])
    window = np.ones(k) / k
    up = np.convolve(np.log1p(2 * g), window, mode="valid")
    down = np.convolve(np.log1p(-2 * g), window, mode="valid")
    intensities = [float(np.exp(s * up + (k - s) * down).sum()) / n
                   for s in range(k + 1)]
    weights = [math.comb(k, s) / n for s in range(k + 1)]
    return _poisson_mixture(weights, intensities)


def brute_mixed_poisson_pmf(gamma_fn, k: int) -> np.ndarray:
    """Mixed-Poisson count law with every pattern's own exact intensity.

    Pattern w gets lambda(w) = sum_{j <= 2^k} prod_i (1/2 +- gamma_{j+i-1}),
    summed window by window and symbol by symbol; the law is the uniform
    mixture of Po(lambda(w)) over all 2^k patterns.  O(k 4^k); keep k <= 8.
    """
    n = 1 << k
    g = [gamma_fn(i) for i in range(1, n + k)]
    intensities = []
    for code in range(n):
        lam = 0.0
        for j in range(n):
            p = 1.0
            for i in range(k):
                p *= 0.5 + g[j + i] if (code >> i) & 1 else 0.5 - g[j + i]
            lam += p
        intensities.append(lam)
    return _poisson_mixture([1.0 / n] * n, intensities)
