"""Stratified capture-recapture estimation (the paper's Section 3.4).

The population is split by a *labeler* — a vectorised function mapping
address arrays to stratum labels (RIR, country, prefix size, allocation
age, industry, static/dynamic) — each stratum gets its own model
selection and fit, and the per-stratum estimates are summed.  Strata
with fewer than ``min_observed`` observed individuals across all
sources are excluded from estimation (Section 3.3.4's sampling-zeros
guard); their observed individuals still count toward the total so the
sum stays comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

import numpy as np

from repro.core.histories import tabulate_histories
from repro.core.loglinear import PopulationEstimate
from repro.core.selection import select_models_batched
from repro.ipspace.ipset import IPSet

#: A labeler maps a uint32 address array to an equally long label array.
Labeler = Callable[[np.ndarray], np.ndarray]


def split_sources_by_label(
    sources: Mapping[str, IPSet], labeler: Labeler
) -> dict[Hashable, dict[str, IPSet]]:
    """Split every source by stratum label.

    Returns ``{label: {source_name: IPSet-of-that-stratum}}``; every
    stratum keeps an entry (possibly empty) for every source, so
    per-stratum tables retain the full source dimension.
    """
    per_label: dict[Hashable, dict[str, IPSet]] = {}
    for name, ipset in sources.items():
        addrs = ipset.addresses
        labels = np.asarray(labeler(addrs))
        if labels.shape != addrs.shape:
            raise ValueError("labeler output does not align with addresses")
        for label in np.unique(labels):
            key = label.item() if hasattr(label, "item") else label
            subset = IPSet.from_sorted_unique(addrs[labels == label])
            per_label.setdefault(key, {})[name] = subset
    empty = IPSet.empty()
    for label, split in per_label.items():
        for name in sources:
            split.setdefault(name, empty)
        per_label[label] = {name: split[name] for name in sources}
    return per_label


@dataclass(frozen=True)
class StratumResult:
    """Estimate (or exclusion record) for a single stratum."""

    label: Hashable
    observed: int
    estimate: PopulationEstimate | None
    excluded: bool

    @property
    def population(self) -> float:
        """Estimated total, falling back to observed for excluded strata."""
        if self.estimate is None:
            return float(self.observed)
        return self.estimate.population


@dataclass
class StratifiedEstimate:
    """Summed per-stratum capture-recapture estimate."""

    strata: dict[Hashable, StratumResult] = field(default_factory=dict)

    @property
    def population(self) -> float:
        return float(sum(s.population for s in self.strata.values()))

    @property
    def observed(self) -> int:
        return int(sum(s.observed for s in self.strata.values()))

    @property
    def unseen(self) -> float:
        return self.population - self.observed

    @property
    def num_excluded(self) -> int:
        return sum(1 for s in self.strata.values() if s.excluded)


def stratified_estimate(
    sources: Mapping[str, IPSet],
    labeler: Labeler,
    min_observed: int = 1000,
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    distribution: str = "poisson",
    limit_per_stratum: Callable[[Hashable], float] | None = None,
    max_order: int = 2,
) -> StratifiedEstimate:
    """Estimate the population stratum by stratum and sum.

    ``limit_per_stratum`` supplies the truncation bound per stratum
    (e.g. its routed-space size) when ``distribution="truncated"``.
    Every eligible stratum goes through one
    :func:`~repro.core.selection.select_models_batched` call: the
    stepwise searches advance in lockstep and same-shape candidate fits
    share batched solves across strata.  Strata are collected in label
    order.
    """
    results: list[StratumResult | None] = []
    eligible: list[tuple[int, Hashable, int, object, float | None]] = []
    for label, split in split_sources_by_label(sources, labeler).items():
        observed = len(IPSet.empty().union(*split.values()))
        if observed < min_observed:
            results.append(
                StratumResult(
                    label=label, observed=observed,
                    estimate=None, excluded=True,
                )
            )
            continue
        table = tabulate_histories(split)
        limit = limit_per_stratum(label) if limit_per_stratum else None
        results.append(None)
        eligible.append((len(results) - 1, label, observed, table, limit))
    if eligible:
        selections = select_models_batched(
            [entry[3] for entry in eligible],
            criterion=criterion,
            divisor=divisor,
            max_order=max_order,
            distributions=distribution,
            limits=[entry[4] for entry in eligible],
        )
        for (index, label, observed, _, _), selection in zip(
            eligible, selections
        ):
            results[index] = StratumResult(
                label=label,
                observed=observed,
                estimate=selection.fit.estimate(),
                excluded=False,
            )
    result = StratifiedEstimate()
    for stratum in results:
        result.strata[stratum.label] = stratum
    return result
