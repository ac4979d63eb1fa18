"""Log-linear capture-recapture models (the paper's Section 3.3).

A :class:`LoglinearModel` is a hierarchical term set; fitting it to a
:class:`~repro.core.histories.ContingencyTable` yields a
:class:`FittedLoglinear`, whose :meth:`~FittedLoglinear.estimate`
produces the population estimate: the unseen count is
``Z-hat_0 = exp(u)`` under the Poisson likelihood, or the mean of the
right-truncated Poisson with rate ``exp(u)`` and remaining headroom
``l - M`` under the truncated likelihood — which is how the truncation
keeps small-stratum estimates below the routed-space size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core import fitkernel
from repro.core.design import describe_terms, design_matrix, validate_terms
from repro.core.glm import fit_poisson
from repro.core.histories import ContingencyTable
from repro.core.truncated import truncated_mean

#: Supported likelihoods.
DISTRIBUTIONS = ("poisson", "truncated")


@dataclass(frozen=True)
class PopulationEstimate:
    """A capture-recapture population estimate.

    ``population`` is N-hat = M + unseen; ``observed`` is M.  ``aic``
    and ``bic`` refer to the fit that produced the estimate (on the
    *unscaled* counts — selection-time ICs on divided counts live on
    :class:`~repro.core.selection.ModelSelection`).
    """

    population: float
    unseen: float
    observed: int
    loglik: float
    aic: float
    bic: float
    num_params: int
    terms: frozenset
    distribution: str
    converged: bool
    source_names: tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line human summary of the estimate and its model."""
        return (
            f"N={self.population:.1f} (observed {self.observed}, "
            f"unseen {self.unseen:.1f}) via {self.distribution} LLM "
            f"{describe_terms(self.terms, self.source_names)}"
        )


def contrast_face(table: ContingencyTable, terms: Iterable[frozenset]) -> frozenset:
    """Observed cells that a zero margin contrast pushes to ``mu = 0``.

    Each model term ``U`` and each facet ``T = U - {k}`` (the intercept
    when ``U`` is one source) give two contrasts of the table: the
    margin of ``U`` (the cells containing ``U``) and the margin of
    ``T`` less that of ``U`` (the cells containing ``T`` but not
    ``k``).  A contrast whose cells are all zero is a direction of
    recession, ``-e_U`` or ``e_U - e_T``: the likelihood keeps rising as
    those cells' means fall, so the MLE does not exist and the fit can
    only approach the face where they vanish.  For a pair ``{i, j}``
    the second contrast reads "source ``i`` saw nothing ``j`` missed";
    for a source ``k`` the first is a zero margin and the second "``k``
    saw every observed individual".  Returns the union of those cells
    as history bitmasks, empty when every contrast holds a positive
    cell.
    """
    t = table.num_sources
    # margins[m]: individuals whose history holds every source of m
    # (exact: integer sums far below 2^53).
    margins = fitkernel._superset_sums(table.counts[None, :].astype(np.float64), t)[0]
    histories = np.arange(1, 2**t)
    face = np.zeros(histories.size, dtype=bool)
    for term in terms:
        mask = sum(1 << source for source in term)
        if margins[mask] == 0:
            face |= (histories & mask) == mask
        for k in term:
            facet = mask ^ (1 << k)
            if margins[facet] == margins[mask]:
                face |= ((histories & facet) == facet) & ((histories >> k) & 1 == 0)
    return frozenset(histories[face].tolist())


@dataclass(frozen=True)
class FittedLoglinear:
    """A log-linear model fitted to a contingency table."""

    table: ContingencyTable
    terms: frozenset
    coef: np.ndarray
    fitted: np.ndarray
    loglik: float
    distribution: str
    limit: float | None
    converged: bool
    iterations: int = 0

    @property
    def num_params(self) -> int:
        return int(self.coef.size)

    @property
    def face(self) -> frozenset:
        """Cells the MLE pushes to zero (:func:`contrast_face`).

        Non-empty means the MLE does not exist: the optimiser reports
        the point where it clipped those cells' means, and the
        coefficients of the terms involved are not identified.
        Computed from the table and terms, so a fit stores nothing for
        it.
        """
        return contrast_face(self.table, self.terms)

    @property
    def intercept(self) -> float:
        return float(self.coef[0])

    @property
    def aic(self) -> float:
        # Local import: selection imports this module at load time.
        from repro.core.selection import information_criterion

        return information_criterion(
            self.loglik, self.num_params, self.table.num_observed, "aic"
        )

    @property
    def bic(self) -> float:
        from repro.core.selection import information_criterion

        return information_criterion(
            self.loglik, self.num_params, self.table.num_observed, "bic"
        )

    def unseen_estimate(self) -> float:
        """Estimated count of the all-zero history, ``Z-hat_0``."""
        rate = float(np.exp(min(self.intercept, 700.0)))
        if self.distribution == "truncated" and self.limit is not None:
            headroom = max(0.0, float(self.limit) - self.table.num_observed)
            return float(truncated_mean(rate, headroom))
        return rate

    def estimate(self) -> PopulationEstimate:
        """Package the fit into a population estimate (N = M + ghosts)."""
        unseen = self.unseen_estimate()
        observed = self.table.num_observed
        return PopulationEstimate(
            population=observed + unseen,
            unseen=unseen,
            observed=observed,
            loglik=self.loglik,
            aic=self.aic,
            bic=self.bic,
            num_params=self.num_params,
            terms=self.terms,
            distribution=self.distribution,
            converged=self.converged,
            source_names=self.table.source_names,
        )


class LoglinearModel:
    """A hierarchical log-linear model over ``t`` sources."""

    def __init__(
        self,
        num_sources: int,
        terms: Iterable[frozenset],
        *,
        validate: bool = True,
    ):
        """``validate=False`` skips term validation; the caller then
        guarantees ``terms`` is a normalised hierarchical frozenset of
        frozensets (the stepwise search constructs thousands of models
        whose terms are valid by construction).  Invalid terms still
        fail on the first design-matrix build."""
        self.num_sources = num_sources
        self.terms = (
            validate_terms(num_sources, terms) if validate else terms
        )

    def __repr__(self) -> str:
        return f"LoglinearModel(t={self.num_sources}, {describe_terms(self.terms)})"

    def fit(
        self,
        table: ContingencyTable,
        distribution: str = "poisson",
        limit: float | None = None,
        beta0: np.ndarray | None = None,
    ) -> FittedLoglinear:
        """Fit by maximum likelihood.

        ``distribution`` is ``"poisson"`` or ``"truncated"``; the latter
        requires ``limit`` (the inclusive cell-count bound ``l``).
        ``beta0`` warm-starts the optimiser from known coefficients (one
        per intercept + ordered term); the optimum is unchanged within
        float tolerance.
        """
        if table.num_sources != self.num_sources:
            raise ValueError(
                f"table has {table.num_sources} sources, model expects "
                f"{self.num_sources}"
            )
        if distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution: {distribution!r}")
        truncated = distribution == "truncated"
        if truncated and limit is None:
            raise ValueError("truncated fits require a limit")
        design, _ = design_matrix(self.num_sources, self.terms)
        fit = fit_poisson(
            design,
            table.counts[1:],
            beta0=beta0,
            limit=limit if truncated else None,
        )
        fitted = FittedLoglinear(
            table=table,
            terms=self.terms,
            coef=fit.coef,
            fitted=fit.fitted,
            loglik=fit.loglik,
            distribution=distribution,
            limit=float(limit) if truncated else limit,
            converged=fit.converged,
            iterations=fit.iterations,
        )
        fitkernel.record(boundary=int(bool(fitted.face)))
        return fitted
