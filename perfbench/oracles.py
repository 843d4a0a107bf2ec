"""Computations the output checks compare against, made apart from ``pgl``.

Nothing here imports ``pgl``.  Each function recomputes a quantity from the
definitions in the project README (schedule formulas, the Philox threshold
rule, the seed derivation chain, the window convention) by a method other
than the one the library uses: windows are read out of the packed bytes and
counted by sorting, not by shifted bit planes and ``bincount``; pair and
likelihood sums enumerate patterns outright instead of using residue classes
or Gray-code walks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.random import Philox

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CAP = 0.49
_CHUNK = 1 << 20


def mix64(value: int) -> int:
    """SplitMix64 finalizer."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """h = mix64(master), then h = mix64(h ^ (p * golden mod 2^64)) per part."""
    h = mix64(master)
    for p in parts:
        h = mix64(h ^ ((p * _GOLDEN) & MASK64))
    return h


def gamma_values(spec: str, start: int, count: int) -> np.ndarray:
    """Biases at positions start..start+count-1 for ``zero`` or ``logpow:<c>``.

    logpow: gamma_n = min(0.49, (ln n)^-c) for n >= 2, and 0.49 at n = 1.
    """
    ns = np.arange(start, start + count, dtype=np.float64)
    if spec == "zero":
        return np.zeros(count)
    kind, _, exponent = spec.partition(":")
    if kind != "logpow" or ":" in exponent:
        raise ValueError(f"oracle knows only zero and logpow:<c>, not {spec!r}")
    out = np.full(count, _CAP)
    tail = ns >= 2
    out[tail] = np.minimum(_CAP, np.log(ns[tail]) ** -float(exponent))
    return out


def redraw_bits(spec: str, length: int, seed: int) -> np.ndarray:
    """x_1..x_L as 0/1 bytes: bit n is 1 iff Philox word n-1 of key ``seed``
    lies below floor((1/2 + gamma_n) 2^64)."""
    gen = Philox(key=seed & MASK64)
    bits = np.empty(length, dtype=np.uint8)
    for pos in range(0, length, _CHUNK):
        count = min(_CHUNK, length - pos)
        p = 0.5 + gamma_values(spec, pos + 1, count)
        thresholds = np.floor(p * 2.0**64).astype(np.uint64)
        bits[pos : pos + count] = gen.random_raw(count) < thresholds
    return bits


def window_codes(bits: np.ndarray, k: int) -> np.ndarray:
    """Codes of the windows at positions 1..2^k, first symbol in bit 0.

    Each code is read as a little-endian 64-bit load from the packed bytes
    at the window's byte offset, shifted by its bit offset.
    """
    if not 1 <= k <= 56:
        raise ValueError("window_codes reads one 64-bit load per window; k <= 56")
    n = 1 << k
    packed = np.packbits(bits[: n + k - 1], bitorder="little")
    padded = np.concatenate([packed, np.zeros(8, dtype=np.uint8)])
    loads = np.ndarray(
        shape=(padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,)
    )
    codes = np.empty(n, dtype=np.uint32 if k <= 32 else np.uint64)
    mask = np.uint64(n - 1)
    for lo in range(0, n, _CHUNK):
        j = np.arange(lo, min(n, lo + _CHUNK), dtype=np.int64)
        codes[j] = (loads[j >> 3] >> (j & 7).astype(np.uint64)) & mask
    return codes


def quenched_masses(bits: np.ndarray, k: int) -> dict[int, int]:
    """Number of level-k patterns seen exactly m times, for every m >= 0."""
    codes = np.sort(window_codes(bits, k))
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    runs = np.diff(np.append(starts, codes.size))
    multiplicity = {int(m): int(c) for m, c in zip(*np.unique(runs, return_counts=True))}
    multiplicity[0] = (1 << k) - starts.size
    return multiplicity


def tv_to_poisson_one(masses: dict[int, int], denominator: int) -> float:
    """(1/2) sum_m |p(m) - e^-1/m!|, the Poisson tail past max(m) included."""
    top = max(masses)
    total = 0.0
    reference = 0.0
    for m in range(top + 1):
        q = math.exp(-1.0 - math.lgamma(m + 1))
        reference += q
        total += abs(masses.get(m, 0) / denominator - q)
    return 0.5 * (total + max(0.0, 1.0 - reference))


def mixed_poisson_prediction(spec: str, k: int) -> np.ndarray:
    """Predicted quenched law at level k, masses at m = 0, 1, ...

    The same model as ``mixed_poisson_prediction`` in ``tests/conftest.py``:
    a pattern with s symbols +1 gets intensity
    lambda(s) = 2^-k sum_{j <= 2^k} exp(s u_j + (k - s) d_j), with u_j, d_j
    the window means of log(1 + 2 gamma_n) and log(1 - 2 gamma_n), and the
    law is sum_s C(k, s) 2^-k Po(lambda(s)).  Windows are summed in chunks
    so that level 24 fits in a few tens of MB.
    """
    n = 1 << k
    lam = np.zeros(k + 1)
    for lo in range(0, n, _CHUNK):
        count = min(_CHUNK, n - lo)
        g = gamma_values(spec, lo + 1, count + k - 1)
        up = np.convolve(np.log1p(2 * g), np.ones(k), mode="valid") / k
        down = np.convolve(np.log1p(-2 * g), np.ones(k), mode="valid") / k
        # exp(s u + (k - s) d) = exp(k d) * exp(u - d)^s, stepped in s
        term = np.exp(k * down)
        ratio = np.exp(up - down)
        for s in range(k + 1):
            lam[s] += float(term.sum())
            term *= ratio
    lam /= n
    top = int(lam.max() + 10 * math.sqrt(lam.max()) + 30)
    m = np.arange(top + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(top + 1)])
    pmf = np.zeros(top + 1)
    for s in range(k + 1):
        pmf += math.comb(k, s) / n * np.exp(m * math.log(lam[s]) - lam[s] - log_fact)
    return pmf


def tv_of_pmf_to_poisson_one(pmf: np.ndarray) -> float:
    """TV from masses at m = 0, 1, ... to Poisson(1), its tail included."""
    log_fact = np.array([math.lgamma(i + 1) for i in range(pmf.size)])
    q = np.exp(-1.0 - log_fact)
    return 0.5 * float(np.abs(pmf - q).sum() + max(0.0, 1.0 - q.sum()))


def neighbour_count_term(k: int) -> float:
    """A = 2^-2k (2^k + #{ordered (i, j): i != j, |i - j| < k}), counted."""
    n = 1 << k
    j = np.arange(1, n + 1, dtype=np.int64)
    neighbours = np.minimum(j - 1, k - 1) + np.minimum(n - j, k - 1)
    return math.ldexp(float(n + int(neighbours.sum())), -2 * k)


def fair_coin_pair_sum(k: int) -> float:
    """B for gamma = 0: 2 sum_{d=1}^{k-1} (2^k - d) 2^-2k, as a rational."""
    n = 1 << k
    return float(Fraction(2 * sum(n - d for d in range(1, k)), n * n))


def _pattern_signs(k: int) -> np.ndarray:
    codes = np.arange(1 << k)
    return np.where((codes[:, None] >> np.arange(k)) & 1, 1.0, -1.0)


def brute_pair_sum(spec: str, k: int) -> float:
    """Sum of P(windows i and j both show one uniform pattern) over ordered
    pairs with 0 < |i - j| < k, by enumerating every pattern.

    For i < j = i + d a pattern can match both windows only if it repeats
    with period d; the two windows then read one (k + d)-symbol string,
    whose probability is the product of 1/2 +- gamma over its positions.
    """
    n = 1 << k
    signs = _pattern_signs(k)
    total = 0.0
    for d in range(1, k):
        periodic = np.all(signs[:, d:] == signs[:, : k - d], axis=1)
        words = signs[periodic]
        joined = np.concatenate([words, words[:, k - d :]], axis=1)
        g = gamma_values(spec, 1, n + k - 1)
        windows = np.lib.stride_tricks.sliding_window_view(g, k + d)[: n - d]
        probs = np.prod(0.5 + joined[:, None, :] * windows[None, :, :], axis=2)
        total += float(probs.sum())
    return 2.0 * total / n


def brute_deviation_sum(spec: str, k: int) -> float:
    """C = 2^-k sum_{j <= 2^k} 2^-k sum_w |R_j(w) - 1|, every pattern listed."""
    n = 1 << k
    signs = _pattern_signs(k)
    g = gamma_values(spec, 1, n + k - 1)
    windows = np.lib.stride_tricks.sliding_window_view(g, k)
    ratios = np.prod(1.0 + 2.0 * signs[:, None, :] * windows[None, :, :], axis=2)
    return float(np.abs(ratios - 1.0).sum()) / (n * n)


def onset_index_logpow(exponent: float) -> int:
    """Smallest n with 1 + 2 (ln n)^-c < 2^(1/4), for a decaying logpow:c."""
    bound = (2.0**0.25 - 1.0) / 2.0
    n = max(2, int(math.exp(bound ** (-1.0 / exponent))) - 2)
    while not math.log(n) ** -exponent < bound:
        n += 1
    return n
