"""The pipeline's tails and quantiles match ``scipy.stats`` on grids.

Runtime code computes them with the ``scipy.special`` functions that
``scipy.stats`` itself calls (``repro`` never imports ``scipy.stats``;
see ``tests/test_import_footprint.py``).  Each check below compares the
pipeline's function with the ``scipy.stats`` expression it replaced:
bitwise where ``scipy.stats`` calls the same function, by the decision
it feeds where it does not (the spoof filter's binomial tail).
"""

import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from repro.core.diagnostics import FitDiagnostics
from repro.core.lincoln_petersen import chapman_estimate
from repro.core.profile_ci import DEFAULT_ALPHA, chi2_cut
from repro.core.truncated import poisson_logcdf, truncated_logpmf, truncated_mean
from repro.filtering.spoof_filter import binomial_threshold

RATES = np.concatenate([[0.0, 1e-300, 1e-12], np.logspace(-8, 8, 1601)])


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize(
    "k", [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 17.0, 128.0, 1e3, 65535.0, 1e7, np.inf]
)
def test_poisson_logcdf_is_scipy_stats(k):
    assert same(poisson_logcdf(k, RATES), stats.poisson.logcdf(k, RATES))


@pytest.mark.parametrize("limit", [0, 1, 3.5, 7, 39, 1e6])
def test_truncated_logpmf_is_scipy_stats(limit):
    k = np.arange(0, 40, dtype=np.float64)
    for rate in (1e-3, 0.7, 5.0, 39.0, 1e4):
        r = np.full_like(k, rate)
        # The normaliser is the one scipy.stats call replaced.
        expected = (
            k * np.log(r) - r - gammaln(k + 1.0)
            - stats.poisson.logcdf(np.floor(limit), r)
        )
        expected = np.where(k > limit, -np.inf, expected)
        assert same(truncated_logpmf(k, r, limit), expected)


def _truncated_mean_reference(rate, limit):
    """``truncated_mean`` as written against ``scipy.stats``."""
    rate = np.asarray(rate, dtype=np.float64)
    limit = np.floor(limit)
    with np.errstate(over="ignore", invalid="ignore"):
        log_upper = stats.poisson.logcdf(limit - 1, rate)
        log_lower = stats.poisson.logcdf(limit, rate)
        ratio = np.exp(log_upper - log_lower)
    degenerate = ~np.isfinite(log_lower) | ~np.isfinite(ratio)
    result = np.where(degenerate, limit, rate * np.where(degenerate, 0.0, ratio))
    result = np.minimum(result, limit)
    return np.where(limit == 0, 0.0, result)


@pytest.mark.parametrize("limit", [0, 1, 2, 10, 37.5, 1e3, 1e6])
def test_truncated_mean_is_scipy_stats(limit):
    assert same(truncated_mean(RATES, limit), _truncated_mean_reference(RATES, limit))


def test_truncated_mean_degenerate_branch_is_silent():
    # Far above the limit both log-CDFs underflow to -inf: the mean is
    # the limit itself, with no warning (scipy.stats was silent too).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncated_mean(1e6, 10) == 10.0
        assert truncated_mean(np.array([1e6, 3.0]), 0).tolist() == [0.0, 0.0]
        assert same(truncated_mean(RATES, 5), _truncated_mean_reference(RATES, 5))
    assert not np.isfinite(stats.poisson.logcdf(10, 1e6))


@pytest.mark.parametrize("confidence", np.linspace(0.01, 0.999, 53).tolist() + [1 - 1e-9])
def test_chapman_interval_uses_the_normal_quantile(confidence):
    est = chapman_estimate(4000, 3000, 1200, confidence=confidence)
    z = stats.norm.ppf(0.5 + confidence / 2)
    assert est.ci_high == est.population + z * np.sqrt(est.variance)


@pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.05, 1e-3, 0.5, 1e-12])
def test_chi2_cut_is_scipy_stats(alpha):
    assert chi2_cut(alpha) == stats.chi2.ppf(1.0 - alpha, df=1)


def test_pearson_pvalue_is_scipy_stats():
    for dof in (1, 2, 3, 7, 100, 500):
        for x in np.concatenate([[0.0, np.inf], np.logspace(-6, 5, 221)]):
            diag = FitDiagnostics(pearson_chi2=float(x), deviance=0.0, dof=dof, residuals=())
            assert diag.pearson_pvalue == stats.chi2.sf(x, dof)


def _threshold_reference(density, block_size=256, tail_prob=1e-8):
    """``binomial_threshold`` as written against ``scipy.stats``."""
    if density == 0:
        return 0
    for m in range(block_size + 1):
        if stats.binom.sf(m, block_size, density) < tail_prob:
            return m
    return block_size


def test_binomial_threshold_matches_scipy_stats():
    densities = np.logspace(-12, 0, 2001)
    for density in densities:
        assert binomial_threshold(float(density)) == _threshold_reference(density)
    for block_size, tail in ((16, 1e-4), (1024, 1e-12), (256, 0.0)):
        for density in densities[::50]:
            assert binomial_threshold(
                float(density), block_size, tail
            ) == _threshold_reference(density, block_size, tail)
