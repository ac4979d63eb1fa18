"""Profile-likelihood intervals for the population size (Section 3.3.3).

Following the procedure of Rcapture [23], the unseen count ``n_0`` is
profiled: for a candidate value the all-zero cell is added to the table
with count ``n_0`` (its design row is intercept-only) and the Poisson
log-linear model is refitted; the profile log-likelihood over ``n_0``
then yields a ``100 (1 - alpha) %`` interval via the chi-square
calibration ``2 [l_max - l(n_0)] <= chi2_{1, 1-alpha}``.

As the paper stresses, for these data the result is *not* a true
confidence interval — the sources are not random samples — so the
default ``alpha = 1e-7`` deliberately produces wide, heuristic
sensitivity ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from repro.core.design import design_matrix
from repro.core.glm import fit_poisson
from repro.core.histories import ContingencyTable

#: The paper's deliberately tiny alpha for wide heuristic ranges.
DEFAULT_ALPHA = 1e-7


def chi2_cut(alpha: float) -> float:
    """The one-degree-of-freedom chi-square quantile ``chi2_{1, 1-alpha}``:
    ``2 * gammaincinv(1/2, 1 - alpha)``, as ``scipy.stats.chi2.ppf``
    computes it."""
    return 2.0 * float(gammaincinv(0.5, 1.0 - alpha))


@dataclass(frozen=True)
class ProfileInterval:
    """Profile-likelihood interval for the population size ``N``."""

    population_low: float
    population_high: float
    unseen_low: float
    unseen_high: float
    unseen_mode: float
    alpha: float

    def contains(self, population: float) -> bool:
        """Whether the interval covers ``population``."""
        return self.population_low <= population <= self.population_high


class _ProfileLoglik:
    """The profile curve ``n_0 -> l(n_0)``, memoised and warm-started.

    The golden-section and bisection scans evaluate hundreds of
    neighbouring ``n_0`` values; each evaluation refits the model, so
    (1) every fit is warm-started from the previous evaluation's
    coefficients — neighbouring profiles differ only slightly, and the
    IRLS then converges in a step or two — and (2) results are cached
    per exact ``n_0``, so the bracket-expansion and root-finding phases
    never refit a point the mode search already evaluated.

    ``unseen`` may be fractional; the factorial is continued via
    gammaln, which keeps the profile smooth for root finding.
    """

    def __init__(self, design_full: np.ndarray, observed_counts: np.ndarray):
        self._design = design_full
        self._observed = observed_counts
        self._coef: np.ndarray | None = None
        self._cache: dict[float, float] = {}

    def __call__(self, unseen: float) -> float:
        return self.many([unseen])[0]

    def many(self, values) -> list[float]:
        """Evaluate several ``n_0`` points, refitting only the uncached.

        Every uncached point is one :func:`~repro.core.glm.fit_poisson`
        call seeded with the last known coefficients, so no point's
        value depends on its order in the request.  (The scan asks for
        pairs: too few members for the batched kernel to pay.)
        """
        values = [max(float(v), 0.0) for v in values]
        seed = self._coef
        for v in dict.fromkeys(values):
            if v not in self._cache:
                counts = np.concatenate([[v], self._observed])
                fit = fit_poisson(self._design, counts, beta0=seed)
                # fit.loglik continues the factorial via gammaln on the
                # fractional n_0, exactly as the profile needs.
                self._cache[v] = fit.loglik
                self._coef = fit.coef
        return [self._cache[v] for v in values]


def profile_likelihood_interval(
    table: ContingencyTable,
    terms: frozenset,
    alpha: float = DEFAULT_ALPHA,
    max_expand: int = 60,
) -> ProfileInterval:
    """Profile-likelihood interval for ``N`` under the given model terms.

    The bracket-expansion pairs, the golden-section seed pair, and the
    two root bisections (run in lockstep) each evaluate their points
    from one shared warm start (see :meth:`_ProfileLoglik.many`).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    design_full, _ = design_matrix(
        table.num_sources, terms, include_unobserved=True
    )
    observed = table.counts[1:].astype(np.float64)
    M = table.num_observed

    # One memoised, warm-started profile curve shared by the bracket
    # expansion, the golden-section mode search, and both root finders.
    loglik = _ProfileLoglik(design_full, observed)

    # Locate the mode: start from the closed-table fit's point estimate
    # and golden-section around it.
    from repro.core.loglinear import LoglinearModel  # local: avoid cycle

    point = LoglinearModel(table.num_sources, terms).fit(table).unseen_estimate()
    lo, hi = 0.0, max(4.0 * point + 10.0, 10.0)
    # Expand upward until the mode is bracketed.
    for _ in range(max_expand):
        f_hi, f_lo = loglik.many([hi, 0.75 * hi])
        if f_hi < f_lo:
            break
        hi *= 2.0
    mode = _golden_max(loglik, lo, hi)
    ll_max = loglik(mode)
    threshold = ll_max - 0.5 * chi2_cut(alpha)

    low, high = _lockstep(
        [
            _bisect_below(threshold, mode),
            _bisect_above(threshold, mode, max_expand),
        ],
        loglik.many,
    )
    return ProfileInterval(
        population_low=M + low,
        population_high=M + high,
        unseen_low=low,
        unseen_high=high,
        unseen_mode=mode,
        alpha=alpha,
    )


def _golden_max(func, lo: float, hi: float, tol: float = 1e-3) -> float:
    """Golden-section maximisation of a :class:`_ProfileLoglik` on
    [lo, hi].

    The two seed points are evaluated in one call from one warm start;
    iterations place one new point each.
    """
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = func.many([c, d])
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = func(d)
    return 0.5 * (a + b)


def _bisect_below(threshold: float, mode: float):
    """Largest n <= mode with f(n) = threshold (0 if none).

    A generator: yields the next point to evaluate, receives its profile
    value, returns the root (see :func:`_lockstep`)."""
    if (yield 0.0) >= threshold:
        return 0.0
    lo, hi = 0.0, mode
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (yield mid) < threshold:
            lo = mid
        else:
            hi = mid
        if hi - lo < max(1e-6, 1e-9 * mode):
            break
    return hi


def _bisect_above(threshold: float, mode: float, max_expand: int):
    """Smallest n >= mode with f(n) = threshold; a generator like
    :func:`_bisect_below`."""
    lo = mode
    hi = max(2.0 * mode + 10.0, 10.0)
    for _ in range(max_expand):
        if (yield hi) < threshold:
            break
        lo = hi
        hi *= 2.0
    else:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (yield mid) >= threshold:
            lo = mid
        else:
            hi = mid
        if hi - lo < max(1e-6, 1e-9 * hi):
            break
    return lo


def _lockstep(searches, evaluate_many) -> list[float]:
    """Drive several point-request generators in lockstep.

    Each round collects one pending point per live search and evaluates
    them with a single ``evaluate_many`` call, so the low and high root
    searches advance together, each point warm-started from the last
    round's fit.
    """
    results: list[float] = [0.0] * len(searches)
    pending: dict[int, float] = {}
    for i, gen in enumerate(searches):
        try:
            pending[i] = gen.send(None)
        except StopIteration as stop:
            results[i] = stop.value
    while pending:
        order = list(pending.items())
        values = evaluate_many([point for _, point in order])
        pending = {}
        for (i, _), value in zip(order, values):
            try:
                pending[i] = searches[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
    return results
