"""Reference law and distances: the Poisson(1) pmf and law, total
variation, aggregation, and binomial confidence intervals."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .counter import CountDistribution

__all__ = [
    "poisson_pmf",
    "POISSON_ONE",
    "tv_distance",
    "aggregate_annealed",
    "binomial_ci",
]

_TAIL_TOL = 1e-12


def poisson_pmf(m: int) -> float:
    """P(Poisson(1) = m), computed in log space for stability."""
    if m < 0:
        raise ValueError("count must be >= 0")
    return math.exp(-1.0 - math.lgamma(m + 1))


def _poisson_one() -> CountDistribution:
    """Poisson(1) on 0..M for the least M whose neglected tail is < _TAIL_TOL."""
    pmf: dict[int, float] = {}
    m, cumulative = 0, 0.0
    while 1.0 - cumulative >= _TAIL_TOL:
        pmf[m] = poisson_pmf(m)
        cumulative += pmf[m]
        m += 1
    return CountDistribution(pmf=pmf, label="poisson:1.0")


# The reference law of every summary: simple Poisson genericity compares
# the match count with Poisson(1) alone.
POISSON_ONE = _poisson_one()


def tv_distance(p: CountDistribution, q: CountDistribution) -> float:
    """(1/2) sum_m |p(m) - q(m)| over the union support.

    Both inputs must be normalized within 1e-9 (truncated reference laws
    qualify); the mass outside the represented support is not counted, and
    stays below 1e-12 for laws built by this package.
    """
    for dist in (p, q):
        total = sum(dist.pmf.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{dist.label}: masses sum to {total!r}, not 1")
    support = set(p.pmf) | set(q.pmf)
    # Left to right: from Python 3.12 sum() compensates float additions, so
    # the printed bytes would depend on the Python version.
    total = 0.0
    for m in sorted(support):
        total += abs(p.mass(m) - q.mass(m))
    return 0.5 * total


def aggregate_annealed(
    laws: list[CountDistribution],
) -> tuple[CountDistribution, dict[int, float]]:
    """Bin-wise mean of count laws plus the standard error of each bin.

    Averaging quenched laws over fresh sequences estimates the annealed law
    (sequence and pattern both random).  Standard errors use the sample
    standard deviation over laws; a single law gets stderr 0.  The masses
    form one C-ordered (bins x laws) array reduced along its rows, so each
    bin gets the same pairwise sums as a 1-D column of its masses would.
    """
    if not laws:
        raise ValueError("aggregate_annealed needs at least one law")
    support = sorted(set().union(*(law.pmf.keys() for law in laws)))
    row = {m: i for i, m in enumerate(support)}
    n = len(laws)
    masses = np.zeros((len(support), n))
    for j, law in enumerate(laws):
        masses[[row[m] for m in law.pmf], j] = list(law.pmf.values())
    errors = masses.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(support))
    pmf = dict(zip(support, masses.mean(axis=1).tolist()))
    mean_law = CountDistribution(pmf=pmf, label=f"annealed:mean-of-{n}")
    return mean_law, dict(zip(support, errors.tolist()))


def binomial_ci(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))
