"""Poisson references, total-variation distance, aggregation, intervals."""

import math

import numpy as np
import pytest

from pgl.counter import CountDistribution, quenched_distribution, window_codes
from pgl.sampler import derive_seed, sample_sequence
from pgl.schedule import Zero
from pgl.stats import (
    POISSON_ONE,
    aggregate_annealed,
    binomial_ci,
    poisson_pmf,
    tv_distance,
)


def random_law(rng, support=7) -> CountDistribution:
    masses = rng.dirichlet(np.ones(support))
    return CountDistribution(
        pmf={m: float(p) for m, p in enumerate(masses)}, label="random"
    )


class TestPoisson:
    def test_reference_values(self):
        e1 = math.exp(-1.0)
        assert poisson_pmf(0) == pytest.approx(e1, rel=1e-14)
        assert poisson_pmf(1) == pytest.approx(e1, rel=1e-14)
        assert poisson_pmf(3) == pytest.approx(e1 / 6.0, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            poisson_pmf(-1)

    def test_distribution_truncates_below_1e12(self):
        # every tv_to_po1 cell is a distance to exactly these masses
        assert list(POISSON_ONE.pmf) == list(range(15))
        for m, mass in POISSON_ONE.pmf.items():
            assert mass == math.exp(-1.0 - math.lgamma(m + 1))
        assert POISSON_ONE.label == "poisson:1.0"
        # the neglected tail, summed in order as the truncation sums it
        tails = []
        cumulative = 0.0
        for mass in POISSON_ONE.pmf.values():
            cumulative += mass
            tails.append(1.0 - cumulative)
        assert 0 < tails[14] < 1e-12 <= tails[13]


class TestTvDistance:
    def test_identical_laws_have_distance_zero(self):
        law = POISSON_ONE
        assert tv_distance(law, law) == 0.0

    def test_point_mass_versus_poisson_one(self):
        point = CountDistribution(pmf={0: 1.0}, label="point")
        assert tv_distance(point, POISSON_ONE) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = random_law(rng), random_law(rng)
            d_pq = tv_distance(p, q)
            d_qp = tv_distance(q, p)
            assert 0.0 <= d_pq <= 1.0
            assert d_pq == pytest.approx(d_qp, abs=1e-14)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p, q, r = (random_law(rng) for _ in range(3))
            assert (tv_distance(p, r)
                    <= tv_distance(p, q)
                    + tv_distance(q, r) + 1e-12)

    def test_disjoint_supports_have_distance_one(self):
        p = CountDistribution(pmf={0: 1.0}, label="a")
        q = CountDistribution(pmf={5: 1.0}, label="b")
        assert tv_distance(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalized_input(self):
        law = POISSON_ONE
        broken = CountDistribution(pmf={0: 1.0}, label="broken")
        object.__setattr__(broken, "pmf", {0: 0.5})
        with pytest.raises(ValueError, match="masses sum to"):
            tv_distance(broken, law)


class TestAggregation:
    def test_single_law_is_returned_with_zero_stderr(self):
        law = CountDistribution(pmf={0: 0.25, 1: 0.75}, label="one")
        mean_law, stderr = aggregate_annealed([law])
        assert mean_law.pmf == law.pmf
        assert set(stderr.values()) == {0.0}

    def test_two_point_masses_average_evenly(self):
        a = CountDistribution(pmf={0: 1.0}, label="a")
        b = CountDistribution(pmf={1: 1.0}, label="b")
        mean_law, stderr = aggregate_annealed([a, b])
        assert mean_law.pmf == {0: 0.5, 1: 0.5}
        expected = math.sqrt(0.5) / math.sqrt(2)   # sd of {0,1} over 2 laws
        assert stderr[0] == pytest.approx(expected, rel=1e-12)
        assert stderr[1] == pytest.approx(expected, rel=1e-12)

    def test_mean_is_preserved(self):
        rng = np.random.default_rng(7)
        laws = [random_law(rng) for _ in range(9)]
        mean_law, _ = aggregate_annealed(laws)
        direct = sum(law.mean() for law in laws) / len(laws)
        assert mean_law.mean() == pytest.approx(direct, abs=1e-12)
        assert sum(mean_law.pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_quenched_inputs_keep_unit_mean(self):
        laws = []
        for t in range(5):
            seq = sample_sequence(Zero(), (1 << 8) + 7, seed=derive_seed(50, t))
            laws.append(quenched_distribution(window_codes(seq, 8)))
        mean_law, _ = aggregate_annealed(laws)
        assert mean_law.mean() == pytest.approx(1.0, abs=1e-12)

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError):
            aggregate_annealed([])

    def test_many_fair_sequences_approach_poisson_one(self):
        # 200 fresh fair sequences at level 16: the averaged law lands within
        # four standard errors of Poisson(1) in every bin up to m = 6
        k, trials = 16, 200
        laws = []
        for t in range(trials):
            seq = sample_sequence(Zero(), (1 << k) + k - 1, seed=derive_seed(777, t))
            laws.append(quenched_distribution(window_codes(seq, k)))
        mean_law, stderr = aggregate_annealed(laws)
        for m in range(7):
            gap = abs(mean_law.mass(m) - poisson_pmf(m))
            assert gap <= 4.0 * stderr[m], f"bin {m}: gap {gap}, stderr {stderr[m]}"


class TestBinomialCi:
    def test_reference_interval(self):
        lo, hi = binomial_ci(50, 100, 0.95)
        # Wilson score interval; z is the 0.975 quantile of the standard normal
        z = 1.959963984540054
        denom = 1 + z * z / 100
        center = (0.5 + z * z / 200) / denom
        half = z * math.sqrt(0.25 / 100 + z * z / 40000) / denom
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)
        assert lo == pytest.approx(0.404, abs=5e-4)
        assert hi == pytest.approx(0.596, abs=5e-4)

    def test_edge_counts(self):
        lo, hi = binomial_ci(0, 20, 0.95)
        assert lo == pytest.approx(0.0, abs=1e-12) and 0.01 < hi < 0.3
        lo, hi = binomial_ci(20, 20, 0.95)
        assert 0.7 < lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)

    def test_interval_contains_point_estimate(self):
        for successes, trials in ((1, 7), (13, 40), (99, 100), (250, 500)):
            lo, hi = binomial_ci(successes, trials, 0.95)
            assert lo <= successes / trials <= hi
            assert 0.0 <= lo < hi <= 1.0

    def test_higher_confidence_widens_the_interval(self):
        lo95, hi95 = binomial_ci(30, 100, 0.95)
        lo99, hi99 = binomial_ci(30, 100, 0.99)
        assert lo99 < lo95 and hi99 > hi95
