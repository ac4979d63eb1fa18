"""Classical closed-population capture-recapture models (M0, Mt, Mb, Mh).

The log-linear framework of the paper generalises the classical closed-
population model family of Otis et al. / Chao [9, 21] (Rcapture's
``closedp``).  This module implements that family directly, both as
pedagogical baselines and for the ablation bench that contrasts them
with the paper's source-dependence-aware models:

* **M0** — every individual, every occasion, same capture probability
  ``p``: two parameters (N, p), fitted by ML on the capture-frequency
  counts.
* **Mt** — per-occasion (per-source) probabilities ``p_j``: equivalent
  to the independence log-linear model; fitted by the closed-form
  iterative scheme on the source margins.
* **Mb** — behavioural response: first capture changes the probability
  (trap-happy/shy).  Capture *order* is meaningless for our sources, so
  occasions are taken in catalog order; included for completeness.
* **Mh jackknife** — Burnham & Overton's heterogeneity estimator from
  capture frequencies (1st-5th order jackknife with the standard
  selection rule).

All consume the :class:`~repro.core.histories.ContingencyTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from repro.core.histories import ContingencyTable


@dataclass(frozen=True)
class ClosedModelEstimate:
    """Result of one classical closed-population model."""

    model: str
    population: float
    parameters: dict
    loglik: float

    @property
    def aic(self) -> float:
        return 2 * (len(self.parameters) + 1) - 2 * self.loglik


def _check(table: ContingencyTable) -> None:
    if table.num_observed == 0:
        raise ValueError("empty contingency table")


def fit_m0(table: ContingencyTable) -> ClosedModelEstimate:
    """M0: constant capture probability across individuals and sources.

    The likelihood depends on the data only through ``M`` (observed)
    and the total number of captures ``n.``; N is profiled numerically.
    """
    # Local: scipy.optimize costs every process ~0.2 s to import, and
    # only the M0 and Mb fitters use it.
    from scipy import optimize

    _check(table)
    t = table.num_sources
    M = table.num_observed
    freqs = table.capture_frequencies
    total_captures = int(sum(k * freqs[k] for k in range(1, t + 1)))

    def profile_negloglik(log_extra: float) -> float:
        N = M + np.exp(log_extra)
        p = total_captures / (N * t)
        if not 0 < p < 1:
            return np.inf
        # Binomial likelihood with N profiled continuously.
        ll = (
            gammaln(N + 1)
            - gammaln(N - M + 1)
            + total_captures * np.log(p)
            + (N * t - total_captures) * np.log1p(-p)
        )
        return -ll

    result = optimize.minimize_scalar(
        profile_negloglik, bounds=(-10.0, 25.0), method="bounded"
    )
    extra = float(np.exp(result.x))
    N = M + extra
    p = total_captures / (N * t)
    return ClosedModelEstimate(
        model="M0",
        population=N,
        parameters={"p": p},
        loglik=-float(result.fun),
    )


def fit_mt(table: ContingencyTable, max_iter: int = 500) -> ClosedModelEstimate:
    """Mt: per-source capture probabilities, individuals homogeneous.

    The ML equations give the classical fixed point
    ``N = M / (1 - prod_j (1 - n_j / N))``, iterated to convergence.
    This coincides with the independence log-linear model's estimate.
    """
    _check(table)
    t = table.num_sources
    M = table.num_observed
    margins = np.array([table.source_total(j) for j in range(t)], float)
    N = float(M) + 1.0
    for _ in range(max_iter):
        miss_prob = np.prod(1.0 - margins / N)
        N_new = M / (1.0 - miss_prob) if miss_prob < 1 else N
        if abs(N_new - N) < 1e-9 * N:
            N = N_new
            break
        N = N_new
    p = margins / N
    ll = _mt_loglik(N, M, margins, t)
    return ClosedModelEstimate(
        model="Mt",
        population=float(N),
        parameters={f"p{j + 1}": float(pj) for j, pj in enumerate(p)},
        loglik=ll,
    )


def _mt_loglik(N: float, M: int, margins: np.ndarray, t: int) -> float:
    p = np.clip(margins / N, 1e-12, 1 - 1e-12)
    ll = gammaln(N + 1) - gammaln(N - M + 1)
    ll += float(np.sum(margins * np.log(p) + (N - margins) * np.log1p(-p)))
    return float(ll)


def fit_mb(table: ContingencyTable) -> ClosedModelEstimate:
    """Mb: behavioural response to first capture.

    Uses the classical sufficient statistics: first captures per
    occasion (``u_j``) determine N and the pre-capture probability p;
    recaptures determine the post-capture probability c.  Occasion
    order follows source order, which is arbitrary for our data — the
    model is included as the family's completeness baseline.
    """
    from scipy import optimize  # local: see fit_m0

    _check(table)
    t = table.num_sources
    counts = table.counts
    # u_j: individuals whose first (lowest-index) capturing source is j.
    u = np.zeros(t, dtype=np.int64)
    recaptures = 0
    for s in range(1, 2**t):
        if counts[s] == 0:
            continue
        bits = [j for j in range(t) if (s >> j) & 1]
        u[bits[0]] += counts[s]
        recaptures += (len(bits) - 1) * int(counts[s])
    M_cum = np.concatenate([[0], np.cumsum(u)[:-1]])  # marked before j

    def profile_negloglik(log_extra: float) -> float:
        N = table.num_observed + np.exp(log_extra)
        unmarked_exposure = float(np.sum(N - M_cum))
        first_total = int(u.sum())
        p = first_total / unmarked_exposure
        if not 0 < p < 1:
            return np.inf
        ll = first_total * np.log(p) + (
            unmarked_exposure - first_total
        ) * np.log1p(-p)
        ll += gammaln(N + 1) - gammaln(N - table.num_observed + 1)
        return -ll

    result = optimize.minimize_scalar(
        profile_negloglik, bounds=(-10.0, 25.0), method="bounded"
    )
    marked_exposure = float(
        np.sum([int(u[: j].sum()) for j in range(1, t)])
    )
    c = recaptures / marked_exposure if marked_exposure > 0 else 0.0
    if result.x > 24.0:
        # The profile likelihood is monotone in N: first-capture rates
        # carry no signal about the population (capture "order" is
        # meaningless for these sources) and Mb is unidentifiable.
        return ClosedModelEstimate(
            model="Mb",
            population=float("inf"),
            parameters={"c": float(c), "degenerate": True},
            loglik=-float(result.fun),
        )
    N = table.num_observed + float(np.exp(result.x))
    return ClosedModelEstimate(
        model="Mb",
        population=N,
        parameters={"p": float(u.sum()) / max(N * t, 1.0), "c": float(c)},
        loglik=-float(result.fun),
    )


def fit_mh_jackknife(
    table: ContingencyTable, max_order: int = 5
) -> ClosedModelEstimate:
    """Mh: Burnham-Overton jackknife for heterogeneous populations.

    Builds the 1st..``max_order`` jackknife estimators from the capture
    frequencies and applies the standard sequential test to choose the
    order (falling back to the highest when all differ significantly).
    """
    _check(table)
    t = table.num_sources
    if t < 2:
        raise ValueError("jackknife needs at least two sources")
    M = table.num_observed
    f = table.capture_frequencies.astype(float)
    max_order = min(max_order, t - 1, 5)
    coefs = _jackknife_coefficients(t, max_order)
    estimates = [M + float(np.dot(c, f[1: len(c) + 1])) for c in coefs]
    # Sequential selection: stop at the first order whose increment is
    # small relative to its standard error (classic chi-square test,
    # approximated here by a 1.96-sigma rule on the difference).
    chosen = 0
    for k in range(len(estimates) - 1):
        diff = estimates[k + 1] - estimates[k]
        var = max(_jackknife_diff_var(coefs, f, k), 1e-12)
        if abs(diff) / np.sqrt(var) < 1.96:
            chosen = k
            break
        chosen = k + 1
    N = estimates[chosen]
    return ClosedModelEstimate(
        model=f"Mh-jk{chosen + 1}",
        population=float(N),
        parameters={"order": chosen + 1},
        loglik=float("nan"),
    )


def _jackknife_coefficients(t: int, max_order: int) -> list[np.ndarray]:
    """Burnham-Overton jackknife coefficients for f_1..f_k."""
    coefs: list[np.ndarray] = []
    # Order 1..5 closed forms (Burnham & Overton 1978/1979).
    c1 = np.array([(t - 1) / t])
    coefs.append(c1)
    if max_order >= 2:
        coefs.append(np.array([
            (2 * t - 3) / t,
            -((t - 2) ** 2) / (t * (t - 1)),
        ]))
    if max_order >= 3:
        coefs.append(np.array([
            (3 * t - 6) / t,
            -(3 * t**2 - 15 * t + 19) / (t * (t - 1)),
            ((t - 3) ** 3) / (t * (t - 1) * (t - 2)),
        ]))
    if max_order >= 4:
        coefs.append(np.array([
            (4 * t - 10) / t,
            -(6 * t**2 - 36 * t + 55) / (t * (t - 1)),
            (4 * t**3 - 42 * t**2 + 148 * t - 175) / (t * (t - 1) * (t - 2)),
            -((t - 4) ** 4) / (t * (t - 1) * (t - 2) * (t - 3)),
        ]))
    if max_order >= 5:
        coefs.append(np.array([
            (5 * t - 15) / t,
            -(10 * t**2 - 70 * t + 125) / (t * (t - 1)),
            (10 * t**3 - 120 * t**2 + 485 * t - 660) / (
                t * (t - 1) * (t - 2)
            ),
            -((t - 4) ** 5 - (t - 5) ** 5) / (t * (t - 1) * (t - 2) * (t - 3)),
            ((t - 5) ** 5) / (t * (t - 1) * (t - 2) * (t - 3) * (t - 4)),
        ]))
    return coefs[:max_order]


def _jackknife_diff_var(coefs, f, k) -> float:
    """Variance of N_{k+1} - N_k via the frequency covariances."""
    a = np.zeros(max(len(coefs[k]), len(coefs[k + 1])))
    a[: len(coefs[k + 1])] += coefs[k + 1]
    a[: len(coefs[k])] -= coefs[k]
    freqs = f[1: len(a) + 1]
    return float(np.sum(a**2 * freqs))


def fit_all_closed_models(table: ContingencyTable) -> list[ClosedModelEstimate]:
    """Fit the whole family (Rcapture's closedp-style sweep)."""
    return [
        fit_m0(table),
        fit_mt(table),
        fit_mb(table),
        fit_mh_jackknife(table),
    ]
