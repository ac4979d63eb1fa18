"""Right-truncated Poisson distribution and GLM (``fit_poisson(limit=)``)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.glm import fit_poisson
from repro.core.truncated import (
    truncated_logpmf,
    truncated_loglik,
    truncated_mean,
)


class TestDistribution:
    def test_pmf_sums_to_one(self):
        lam, limit = 3.7, 10
        ks = np.arange(limit + 1)
        total = np.exp(truncated_logpmf(ks, np.full_like(ks, lam, float), limit))
        assert total.sum() == pytest.approx(1.0)

    def test_pmf_zero_above_limit(self):
        assert truncated_logpmf(np.array([6]), np.array([2.0]), 5)[0] == -np.inf

    def test_matches_poisson_for_large_limit(self):
        ks = np.arange(0, 20)
        lam = np.full(20, 4.0)
        trunc = truncated_logpmf(ks, lam, 1e9)
        plain = stats.poisson.logpmf(ks, 4.0)
        assert np.allclose(trunc, plain)

    def test_mean_below_limit(self):
        assert truncated_mean(100.0, 10) < 10

    def test_mean_matches_poisson_for_large_limit(self):
        assert truncated_mean(7.0, 1e6) == pytest.approx(7.0)

    def test_mean_zero_limit(self):
        assert truncated_mean(5.0, 0) == 0.0

    def test_mean_monotone_in_rate(self):
        means = [truncated_mean(lam, 20) for lam in (1.0, 5.0, 15.0, 50.0)]
        assert means == sorted(means)

    def test_mean_matches_direct_computation(self):
        lam, limit = 8.0, 12
        ks = np.arange(limit + 1)
        pmf = np.exp(truncated_logpmf(ks, np.full_like(ks, lam, float), limit))
        assert truncated_mean(lam, limit) == pytest.approx((ks * pmf).sum())

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            truncated_mean(2.0, -1)


class TestTruncatedGlm:
    def test_matches_poisson_glm_with_huge_limit(self, rng):
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = rng.poisson(np.exp(0.5 + 0.3 * X[:, 1])).astype(float)
        plain = fit_poisson(X, y)
        trunc = fit_poisson(X, y, limit=1e12)
        np.testing.assert_allclose(trunc.coef, plain.coef, rtol=1e-8)

    def test_counts_above_limit_rejected(self):
        with pytest.raises(ValueError):
            fit_poisson(np.ones((2, 1)), np.array([5.0, 20.0]), limit=10)

    def test_truncation_raises_rate_estimate(self, rng):
        """Counts piled near the limit imply a rate above the sample
        mean once truncation is accounted for."""
        limit = 10
        true_rate = 12.0
        draws = rng.poisson(true_rate, size=4000)
        y = draws[draws <= limit][:800].astype(float)
        X = np.ones((len(y), 1))
        fit = fit_poisson(X, y, limit=limit)
        rate = float(np.exp(fit.intercept))
        assert rate > y.mean() + 0.5
        assert rate == pytest.approx(true_rate, rel=0.15)

    def test_loglik_consistent(self):
        X = np.ones((3, 1))
        y = np.array([2.0, 3.0, 4.0])
        fit = fit_poisson(X, y, limit=100)
        assert fit.loglik == pytest.approx(
            truncated_loglik(y, fit.fitted, 100)
        )
