"""Lincoln-Petersen and Chapman two-sample estimators."""

import numpy as np
import pytest

from repro.core.lincoln_petersen import (
    CaptureRecaptureError,
    chapman_estimate,
    lincoln_petersen_estimate,
    lincoln_petersen_from_sets,
    pairwise_chapman_matrix,
)
from repro.ipspace.ipset import IPSet


class TestLincolnPetersen:
    def test_textbook_value(self):
        # N = M*C/R = 100*80/20 = 400.
        est = lincoln_petersen_estimate(100, 80, 20)
        assert est.population == 400.0

    def test_unseen(self):
        est = lincoln_petersen_estimate(100, 80, 20)
        assert est.unseen == 400 - (100 + 80 - 20)

    def test_zero_recaptures_rejected(self):
        with pytest.raises(CaptureRecaptureError):
            lincoln_petersen_estimate(10, 10, 0)

    def test_full_overlap_gives_sample_size(self):
        est = lincoln_petersen_estimate(50, 50, 50)
        assert est.population == 50.0
        assert est.variance == 0.0

    def test_recaptures_bounded(self):
        with pytest.raises(CaptureRecaptureError):
            lincoln_petersen_estimate(10, 5, 6)

    def test_negative_rejected(self):
        with pytest.raises(CaptureRecaptureError):
            lincoln_petersen_estimate(-1, 5, 2)

    def test_ci_contains_point(self):
        est = lincoln_petersen_estimate(100, 80, 20)
        assert est.ci_low <= est.population <= est.ci_high

    def test_ci_never_below_union(self):
        est = lincoln_petersen_estimate(100, 100, 99)
        assert est.ci_low >= 100 + 100 - 99

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            lincoln_petersen_estimate(10, 10, 5, confidence=1.5)


class TestChapman:
    def test_less_than_lp_with_small_r(self):
        lp = lincoln_petersen_estimate(100, 80, 5)
        ch = chapman_estimate(100, 80, 5)
        assert ch.population < lp.population

    def test_finite_with_zero_recaptures(self):
        est = chapman_estimate(10, 10, 0)
        assert est.population == 11 * 11 / 1 - 1

    def test_known_value(self):
        # (M+1)(C+1)/(R+1) - 1 = 101*81/21 - 1
        est = chapman_estimate(100, 80, 20)
        assert est.population == pytest.approx(101 * 81 / 21 - 1)


class TestFromSets:
    def test_matches_counts(self):
        a = IPSet(range(0, 100))
        b = IPSet(range(80, 180))
        est = lincoln_petersen_from_sets(a, b)
        assert est.first_sample == 100
        assert est.second_sample == 100
        assert est.recaptured == 20
        assert est.population == 100 * 100 / 20

    def test_statistical_recovery(self, rng):
        """On independent uniform samples L-P recovers N within noise."""
        N = 20_000
        pop = np.sort(rng.choice(2**30, N, replace=False)).astype(np.uint32)
        a = IPSet.from_sorted_unique(pop[rng.random(N) < 0.4])
        b = IPSet.from_sorted_unique(pop[rng.random(N) < 0.3])
        est = lincoln_petersen_from_sets(a, b)
        assert est.population == pytest.approx(N, rel=0.05)
        assert est.ci_low <= N <= est.ci_high

    def test_positive_dependence_underestimates(self, rng):
        """Positively correlated sources -> L-P underestimates (3.2.2)."""
        N = 20_000
        pop = np.sort(rng.choice(2**30, N, replace=False)).astype(np.uint32)
        # Shared propensity: half the population is 'visible'.
        visible = rng.random(N) < 0.5
        a = IPSet.from_sorted_unique(pop[visible & (rng.random(N) < 0.6)])
        b = IPSet.from_sorted_unique(pop[visible & (rng.random(N) < 0.6)])
        est = lincoln_petersen_from_sets(a, b)
        assert est.population < 0.75 * N


class TestPairwiseChapmanMatrix:
    def test_entries_are_the_pairwise_chapman_estimates(self):
        rng = np.random.default_rng(4)
        datasets = {
            name: IPSet(rng.choice(5_000, size=size, replace=False))
            for name, size in (("a", 900), ("b", 1_400), ("c", 60), ("d", 0))
        }
        names, matrix = pairwise_chapman_matrix(datasets)
        assert names == ("a", "b", "c", "d")
        for i, first in enumerate(names):
            assert np.isnan(matrix[i, i])
            for j, second in enumerate(names):
                if i == j:
                    continue
                one, two = datasets[first], datasets[second]
                expected = chapman_estimate(
                    len(one), len(two), one.overlap_count(two)
                ).population
                assert matrix[i, j] == expected
