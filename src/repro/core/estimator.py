"""High-level capture-recapture facade.

:class:`CaptureRecapture` is the public entry point most users want:
hand it named address sets (one per measurement source) and ask for the
population estimate, the heuristic profile range, or a stratified
breakdown.  All the paper's knobs — information criterion, count
divisor, truncation — live on :class:`EstimatorOptions` with the
paper's final choices as defaults (BIC, adaptive divisor with maximum
1000, truncated Poisson when a limit is known).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.histories import ContingencyTable, tabulate_histories
from repro.core.loglinear import PopulationEstimate
from repro.core.profile_ci import (
    DEFAULT_ALPHA,
    ProfileInterval,
    profile_likelihood_interval,
)
from repro.core.selection import ModelSelection, select_model, select_models_batched
from repro.core.stratified import Labeler, StratifiedEstimate, stratified_estimate
from repro.ipspace.ipset import IPSet


@dataclass(frozen=True)
class EstimatorOptions:
    """Configuration for :class:`CaptureRecapture`.

    Defaults follow the paper's Section 5.1 conclusion: adaptive
    divisor capped at 1000, BIC, and the right-truncated Poisson
    whenever a ``limit`` (routed-space size) is supplied.
    """

    criterion: str = "bic"
    divisor: int | str = "adaptive1000"
    max_order: int = 2
    distribution: str = "auto"
    limit: float | None = None
    min_stratum_observed: int = 1000

    def resolved_distribution(self) -> str:
        """The effective likelihood: truncated when a limit is known."""
        if self.distribution != "auto":
            return self.distribution
        return "truncated" if self.limit is not None else "poisson"


def leave_one_out_estimates(
    sources: Mapping[str, IPSet],
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    distribution: str = "poisson",
    limit: float | None = None,
    max_order: int = 2,
) -> dict[str, PopulationEstimate]:
    """Estimate the population with each source left out in turn.

    Returns ``{source: estimate without it}`` in source order.  The
    sources are tabulated once, and each leave-one-out table is that
    table collapsed onto the other sources.  All of them go through one
    :func:`~repro.core.selection.select_models_batched` call: the
    stepwise searches advance in lockstep and same-shape candidate fits
    share batched solves.  Each final fit uses ``distribution`` and
    ``limit``.
    """
    if len(sources) < 3:
        raise ValueError("need at least three sources to drop one")
    full = tabulate_histories(dict(sources))
    indices = range(full.num_sources)
    tables = [full.collapse([j for j in indices if j != i]) for i in indices]
    selections = select_models_batched(
        tables,
        criterion=criterion,
        divisor=divisor,
        max_order=max_order,
        distributions=distribution,
        limits=[limit] * len(tables),
    )
    return {
        name: s.fit.estimate() for name, s in zip(full.source_names, selections)
    }


class CaptureRecapture:
    """Estimate a population from several incomplete address sources."""

    def __init__(
        self,
        sources: Mapping[str, IPSet],
        options: EstimatorOptions | None = None,
    ) -> None:
        if len(sources) < 2:
            raise ValueError("capture-recapture needs at least two sources")
        self.sources = dict(sources)
        self.options = options or EstimatorOptions()
        self._table: ContingencyTable | None = None
        self._selection: ModelSelection | None = None

    # -- data views -----------------------------------------------------

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(self.sources)

    def observed_union(self) -> IPSet:
        """All individuals observed by any source."""
        sets = list(self.sources.values())
        return sets[0].union(*sets[1:])

    @property
    def num_observed(self) -> int:
        return len(self.observed_union())

    def table(self) -> ContingencyTable:
        """The (cached) contingency table over all sources."""
        if self._table is None:
            self._table = tabulate_histories(self.sources)
        return self._table

    # -- estimation ---------------------------------------------------------

    def selection(self) -> ModelSelection:
        """The (cached) model selection on the full table."""
        if self._selection is None:
            opts = self.options
            self._selection = select_model(
                self.table(),
                criterion=opts.criterion,
                divisor=opts.divisor,
                max_order=opts.max_order,
                distribution=opts.resolved_distribution(),
                limit=opts.limit,
            )
        return self._selection

    def estimate(self) -> PopulationEstimate:
        """Point estimate of the total population (observed + ghosts)."""
        return self.selection().fit.estimate()

    def profile_interval(self, alpha: float = DEFAULT_ALPHA) -> ProfileInterval:
        """Heuristic profile-likelihood range for the population size."""
        selection = self.selection()
        return profile_likelihood_interval(
            self.table(), selection.fit.terms, alpha=alpha
        )

    def diagnostics(self):
        """Goodness-of-fit residuals for the selected model."""
        from repro.core.diagnostics import diagnose_fit

        return diagnose_fit(self.selection().fit)

    def bootstrap(self, num_replicates: int = 200, confidence: float = 0.95,
                  seed: int = 0):
        """Bootstrap standard errors under the selected model."""
        from repro.core.bootstrap import bootstrap_population

        selection = self.selection()
        opts = self.options
        return bootstrap_population(
            self.table(),
            selection.fit.terms,
            num_replicates=num_replicates,
            confidence=confidence,
            seed=seed,
            distribution=opts.resolved_distribution(),
            limit=opts.limit,
        )

    def estimate_stratified(
        self,
        labeler: Labeler,
        limit_per_stratum=None,
        min_observed: int | None = None,
    ) -> StratifiedEstimate:
        """Per-stratum estimation summed to a total (Section 3.4)."""
        opts = self.options
        return stratified_estimate(
            self.sources,
            labeler,
            min_observed=(
                opts.min_stratum_observed if min_observed is None else min_observed
            ),
            criterion=opts.criterion,
            divisor=opts.divisor,
            distribution=opts.resolved_distribution(),
            limit_per_stratum=limit_per_stratum,
            max_order=opts.max_order,
        )

    def with_options(self, **changes) -> "CaptureRecapture":
        """A copy of this estimator with modified options."""
        return CaptureRecapture(self.sources, replace(self.options, **changes))

    def subnets24(self) -> "CaptureRecapture":
        """The /24-level estimator: every source projected to /24s."""
        projected = {name: s.subnets24() for name, s in self.sources.items()}
        opts = self.options
        if opts.limit is not None:
            opts = replace(opts, limit=max(1.0, opts.limit / 256.0))
        return CaptureRecapture(projected, opts)
