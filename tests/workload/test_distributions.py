"""Unit tests for key-rank distributions."""

import random
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import (
    HotspotGenerator,
    UniformGenerator,
    ZipfianGenerator,
)


class TestZipfian:
    def test_ranks_in_range(self):
        gen = ZipfianGenerator(100, rng=random.Random(1))
        assert all(0 <= gen.next() < 100 for __ in range(1000))

    def test_rank_zero_is_hottest(self):
        gen = ZipfianGenerator(1000, theta=0.99, rng=random.Random(1))
        counts = Counter(gen.next() for __ in range(20_000))
        assert counts[0] == max(counts.values())

    def test_probabilities_sum_to_one(self):
        gen = ZipfianGenerator(50, theta=0.9, rng=random.Random(1))
        assert sum(gen.probability(r) for r in range(50)) == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        gen = ZipfianGenerator(20, theta=0.99, rng=random.Random(1))
        probabilities = [gen.probability(r) for r in range(20)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_high_theta_concentrates_mass(self):
        """The paper's 'α = 100' regime: almost all mass on rank 0."""
        gen = ZipfianGenerator(1000, theta=100.0, rng=random.Random(1))
        assert gen.probability(0) > 0.999

    def test_theta_above_one_supported(self):
        gen = ZipfianGenerator(100, theta=1.5, rng=random.Random(1))
        assert 0 <= gen.next() < 100

    def test_empirical_matches_theory(self):
        gen = ZipfianGenerator(100, theta=0.99, rng=random.Random(2))
        counts = Counter(gen.next() for __ in range(50_000))
        assert counts[0] / 50_000 == pytest.approx(gen.probability(0),
                                                   rel=0.1)

    @pytest.mark.parametrize("n, theta", [(1, 0.99), (100, 0.8),
                                          (3000, 0.8), (6000, 0.99),
                                          (1000, 100.0)])
    def test_draws_match_numpy_searchsorted(self, n, theta):
        # The reference: numpy's left-side binary search over the same
        # CDF and the same uniform draws picks every rank identically.
        np = pytest.importorskip("numpy")
        gen = ZipfianGenerator(n, theta=theta, rng=random.Random(9))
        cdf = np.asarray(gen._cdf)
        uniforms = random.Random(9)
        for __ in range(20_000):
            expected = int(np.searchsorted(cdf, uniforms.random(),
                                           side="left"))
            assert gen.next() == expected

    @pytest.mark.parametrize("theta", [0.5, 0.8, 0.99, 1.2, 100.0])
    @pytest.mark.parametrize("n", [10, 1000, 6000, 20000])
    def test_cdf_equals_numpy_bit_for_bit(self, n, theta):
        # The reference: numpy's power and cumsum over the same ranks.
        # Every bit counts, because the key draws fix the event order.
        np = pytest.importorskip("numpy")
        with np.errstate(over="ignore"):  # theta=100: power gives inf
            weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64),
                                     theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        gen = ZipfianGenerator(n, theta=theta, rng=random.Random(1))
        assert gen._cdf.tobytes() == cdf.tobytes()

    def test_deterministic_given_seed(self):
        a = ZipfianGenerator(100, rng=random.Random(5))
        b = ZipfianGenerator(100, rng=random.Random(5))
        assert [a.next() for __ in range(50)] == [b.next() for __ in range(50)]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0, rng=random.Random(1))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, theta=0, rng=random.Random(1))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, rng=random.Random(1)).probability(10)


class TestUniform:
    def test_ranks_in_range(self):
        gen = UniformGenerator(10, rng=random.Random(1))
        assert all(0 <= gen.next() < 10 for __ in range(100))

    def test_roughly_flat(self):
        gen = UniformGenerator(10, rng=random.Random(1))
        counts = Counter(gen.next() for __ in range(10_000))
        assert max(counts.values()) < 2 * min(counts.values())

    def test_validation(self):
        with pytest.raises(WorkloadError):
            UniformGenerator(0, rng=random.Random(1))


class TestHotspot:
    def test_hot_set_receives_hot_probability(self):
        gen = HotspotGenerator(100, hot_fraction=0.1, hot_probability=0.9,
                               rng=random.Random(1))
        hot = sum(1 for __ in range(10_000) if gen.next() < 10)
        assert hot / 10_000 == pytest.approx(0.9, abs=0.02)

    def test_cold_ranks_come_from_cold_set(self):
        gen = HotspotGenerator(100, hot_fraction=0.5, hot_probability=0.5,
                               rng=random.Random(1))
        ranks = {gen.next() for __ in range(5_000)}
        assert any(r >= 50 for r in ranks)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HotspotGenerator(10, hot_fraction=0.0, rng=random.Random(1))
        with pytest.raises(WorkloadError):
            HotspotGenerator(10, hot_probability=1.5, rng=random.Random(1))
