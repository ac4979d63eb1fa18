"""Right-truncated Poisson distribution.

The paper bounds each cell count by the size of the publicly routed
space and therefore models ``Z_s`` as Poisson *right-truncated* on
``[0, l]`` (Section 3.3.1): the pmf is the Poisson pmf renormalised by
``F(l; lambda)``.  Truncation matters for small strata whose counts sit
near the limit; for large ``l`` it reduces to the plain Poisson, which
the tests assert.

The truncated law is an exponential family in ``eta = log(lambda)``
with log-partition ``lambda + log F(l; lambda)``, so its log-likelihood
under a log link is concave and Fisher scoring is exact IRLS:
:func:`repro.core.glm.fit_poisson` fits it with ``limit=``, using the
per-cell moments :func:`truncation_terms` computes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, pdtr


def poisson_logcdf(k: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """``log F(k; lambda)`` of the plain Poisson, ``-inf`` below its
    support and where ``F`` underflows (``scipy.stats.poisson.logcdf``
    without importing ``scipy.stats``)."""
    k = np.floor(k)
    with np.errstate(divide="ignore"):
        log_cdf = np.log(pdtr(np.maximum(k, 0.0), rate))
    return np.where(k < 0, -np.inf, log_cdf)


def truncated_logpmf(k: np.ndarray, rate: np.ndarray, limit: float) -> np.ndarray:
    """log pmf of the Poisson right-truncated at ``limit`` (inclusive)."""
    k = np.asarray(k, dtype=np.float64)
    rate = np.maximum(np.asarray(rate, dtype=np.float64), 1e-300)
    base = k * np.log(rate) - rate - gammaln(k + 1.0)
    log_norm = poisson_logcdf(limit, rate)
    out = base - log_norm
    return np.where(k > limit, -np.inf, out)


def truncated_loglik(
    counts: np.ndarray, rate: np.ndarray, limit: float
) -> float:
    """Log-likelihood of cell counts under the truncated Poisson."""
    return float(np.sum(truncated_logpmf(counts, rate, limit)))


def truncated_mean(rate: float | np.ndarray, limit: float) -> float | np.ndarray:
    """Mean of the right-truncated Poisson.

    ``E[Z | Z <= l] = lambda * F(l - 1; lambda) / F(l; lambda)``.
    """
    rate = np.asarray(rate, dtype=np.float64)
    limit = np.floor(limit)
    if np.any(limit < 0):
        raise ValueError("truncation limit must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        log_upper = poisson_logcdf(limit - 1, rate)
        log_lower = poisson_logcdf(limit, rate)
        ratio = np.exp(log_upper - log_lower)
    # When the rate dwarfs the limit both log-CDFs underflow; the
    # distribution then concentrates at the limit itself.
    degenerate = ~np.isfinite(log_lower) | ~np.isfinite(ratio)
    result = np.where(degenerate, limit, rate * np.where(degenerate, 0.0, ratio))
    result = np.minimum(result, limit)
    result = np.where(limit == 0, 0.0, result)
    return float(result) if result.ndim == 0 else result


class LogPartition(NamedTuple):
    """Per-cell log-partition ``head + rest`` of the truncated law.

    ``head`` is ``lambda`` and ``rest`` is ``log F(l; lambda)``, except
    on ``series`` cells (``lambda > l``), where ``lambda`` cancels out of
    the log-partition: ``head`` is ``l eta - log l!`` and ``rest`` is
    ``log sum_j r_j`` (see :func:`truncation_terms`).
    """

    series: np.ndarray
    head: np.ndarray
    rest: np.ndarray

    def total(self) -> float:
        """Sum of the log-partition over cells."""
        return float(self.head.sum()) + float(self.rest.sum())

    def change(
        self,
        new: "LogPartition",
        delta: np.ndarray,
        rate_change: np.ndarray,
        limit: float,
    ) -> np.ndarray:
        """Per-cell ``new - self`` without cancellation, given the
        predictor change ``delta`` and the exact rate change
        ``lambda' - lambda``: the heads are differenced analytically
        where both states use the same form, the rests directly."""
        head = rate_change
        if self.series.any() or new.series.any():
            head = np.where(self.series & new.series, limit * delta, head)
            mixed = self.series != new.series
            head[mixed] = new.head[mixed] - self.head[mixed]
        return head + (new.rest - self.rest)


def truncation_terms(
    eta: np.ndarray, rate: np.ndarray, limit: float
) -> tuple[LogPartition, np.ndarray, np.ndarray]:
    """Per-cell ``(log-partition, mean, variance)`` of the Poisson
    right-truncated at ``limit``, as functions of ``eta``.

    ``rate = exp(eta)`` and ``limit`` is the (integer) bound ``l``.  The
    log-partition is ``lambda + log F(l; lambda)``; the mean and
    variance are its first two derivatives in ``eta``.  With the hazard
    ``h = pmf(l; lambda) / F(l; lambda)`` the mean is
    ``m = lambda (1 - h)`` and the variance ``m - lambda h (l - m)``.

    Above the limit ``F`` loses digits and then underflows, and the law
    sits just below ``l``.  There ``F`` is ``pmf(l; lambda)`` times the
    series ``sum_j r_j`` with ``r_j = l! / ((l - j)! lambda^j)`` — about
    ``1 / (1 - l / lambda)`` far above the limit — and the moments of
    ``l - Z`` come from the same terms, so objective, mean and variance
    are exact on both sides of ``lambda = l``.
    """
    series = rate > limit
    with np.errstate(divide="ignore"):
        log_norm = np.log(pdtr(limit, rate))
    hazard = np.exp(limit * eta - rate - gammaln(limit + 1.0) - log_norm)
    mean = rate * (1.0 - hazard)
    variance = mean - rate * hazard * (limit - mean)
    head = rate
    if series.any():
        e = eta[series]
        # r_j <= q^j exp(-j (j - 1) / 2l) with q = l / lambda: past
        # either bound below 1e-17 the terms no longer count.
        q = float(np.exp(np.log(limit) - e.min())) if limit > 0 else 0.0
        bound = min(39.0 / -np.log(q), np.sqrt(78.0 * limit) + 1.0) if q else 0
        j = np.arange(1 + int(min(limit, np.ceil(bound))), dtype=np.float64)
        steps = np.log(limit - j[:-1])[None, :] - e[:, None]
        r = np.exp(np.cumsum(np.pad(steps, ((0, 0), (1, 0))), axis=1))
        s0 = r.sum(axis=1)
        gap = (r @ j) / s0
        head = rate.copy()
        head[series] = limit * e - gammaln(limit + 1.0)
        log_norm[series] = np.log(s0)
        mean[series] = limit - gap
        variance[series] = (r @ (j * j)) / s0 - gap * gap
    return LogPartition(series, head, log_norm), mean, variance
