"""Leave-one-source-out cross-validation (the paper's Section 5).

With ``k`` sources, source ``i`` is treated as the universe of
possible addresses; CR runs on the other ``k-1`` sources restricted to
that universe and estimates the number of individuals *unique to
source i* — a quantity we know exactly.  Sweeping the model-selection
settings over this procedure reproduces Table 3, and the per-source
profile ranges normalised by the truth reproduce Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.histories import ContingencyTable, tabulate_within_universe
from repro.core.profile_ci import profile_likelihood_interval
from repro.core.selection import select_models_batched
from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    from repro.analysis.windows import TimeWindow
    from repro.engine.executor import Executor


@dataclass(frozen=True)
class CrossValidationResult:
    """One source held out as the universe."""

    source: str
    universe_size: int
    observed_by_others: int
    observed_by_ping: int
    true_unseen: int
    estimated_unseen: float
    range_low: float | None = None
    range_high: float | None = None

    @property
    def error(self) -> float:
        """Signed estimation error on the unseen count."""
        return self.estimated_unseen - self.true_unseen

    def normalised_range(self) -> tuple[float, float] | None:
        """Estimate range / truth, the y-axis of Figure 3."""
        if self.range_low is None or self.range_high is None:
            return None
        return (
            self.range_low / self.universe_size,
            self.range_high / self.universe_size,
        )


def _fold(
    datasets: Mapping[str, IPSet], universe_name: str
) -> tuple[ContingencyTable, int]:
    """One fold's table of the other sources within the held-out universe,
    and the universe members none of them saw."""
    if universe_name not in datasets:
        raise KeyError(f"unknown source {universe_name!r}")
    others = {
        name: data for name, data in datasets.items() if name != universe_name
    }
    if len(others) < 2:
        raise ValueError("cross-validation needs at least three sources")
    return tabulate_within_universe(datasets[universe_name], others)


def _cross_validate(
    datasets: Mapping[str, IPSet],
    names: Sequence[str],
    criterion: str,
    divisor: int | str,
    max_order: int,
    with_range: bool,
    alpha: float = 1e-7,
) -> list[CrossValidationResult]:
    """Hold out each of ``names`` in turn; one batched stepwise search."""
    folds = [_fold(datasets, name) for name in names]
    selections = select_models_batched(
        [table for table, _ in folds],
        criterion=criterion,
        divisor=divisor,
        max_order=max_order,
    )
    ping = datasets.get("IPING", IPSet.empty())
    results = []
    for name, (table, true_unseen), selection in zip(names, folds, selections):
        universe = datasets[name]
        range_low = range_high = None
        if with_range:
            interval = profile_likelihood_interval(
                table, selection.fit.terms, alpha=alpha
            )
            range_low = interval.population_low
            range_high = interval.population_high
        results.append(CrossValidationResult(
            source=name,
            universe_size=len(universe),
            observed_by_others=table.num_observed,
            # Holding IPING out leaves the other sources no ping census.
            observed_by_ping=0 if name == "IPING" else universe.overlap_count(ping),
            true_unseen=true_unseen,
            estimated_unseen=selection.fit.estimate().unseen,
            range_low=range_low,
            range_high=range_high,
        ))
    return results


def cross_validate_source(
    datasets: Mapping[str, IPSet],
    universe_name: str,
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    max_order: int = 2,
    with_range: bool = False,
    alpha: float = 1e-7,
) -> CrossValidationResult:
    """Hold out one source as the universe and estimate its unique part."""
    return _cross_validate(
        datasets, [universe_name], criterion, divisor, max_order, with_range, alpha
    )[0]


def cross_validate_all(
    datasets: Mapping[str, IPSet],
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    max_order: int = 2,
    with_range: bool = False,
) -> list[CrossValidationResult]:
    """Cross-validate every source in turn, in source order.

    Tabulates every fold and runs all of their stepwise searches in one
    :func:`~repro.core.selection.select_models_batched` call.
    """
    return _cross_validate(
        datasets, list(datasets), criterion, divisor, max_order, with_range
    )


def cross_validate_window(
    executor: "Executor", window: "TimeWindow"
) -> list[CrossValidationResult]:
    """Cross-validate one window: its ``crossval`` stage.

    The stage folds :meth:`~repro.engine.executor.Executor.analysis_datasets`
    under the fit stages' criterion, divisor and max order, so a
    quarantined source is neither held out nor fitted.
    """
    # Bad input raises here: inside the stage it would be retried and
    # recorded as a failed stage.
    if len(executor.analysis_datasets(window)) < 3:
        raise ValueError("cross-validation needs at least three sources")
    return executor.run("crossval", window)


@dataclass(frozen=True)
class SettingSweepRow:
    """One row of Table 3: a model-selection setting and its errors."""

    setting: str
    criterion: str
    divisor: int | str
    rmse: float
    mae: float


#: The paper's Table 3 settings.
TABLE3_SETTINGS: tuple[tuple[str, str, int | str], ...] = (
    ("AIC-fixed1", "aic", 1),
    ("BIC-fixed1", "bic", 1),
    ("AIC-fixed10", "aic", 10),
    ("AIC-fixed100", "aic", 100),
    ("AIC-fixed1000", "aic", 1000),
    ("AIC-adaptive1000", "aic", "adaptive1000"),
    ("BIC-adaptive1000", "bic", "adaptive1000"),
)


def sweep_selection_settings(
    window_datasets: Sequence[Mapping[str, IPSet]],
    settings: Sequence[tuple[str, str, int | str]] = TABLE3_SETTINGS,
    max_order: int = 2,
) -> list[SettingSweepRow]:
    """Cross-validation error per model-selection setting (Table 3).

    ``window_datasets`` holds the per-window dataset mappings (the
    paper uses every window except the first); errors aggregate over
    all sources and windows.  Every fold is tabulated once, and each
    setting fits all of them in one batched stepwise search.
    """
    folds = [
        _fold(datasets, name)
        for datasets in window_datasets
        for name in datasets
    ]
    tables = [table for table, _ in folds]
    true_unseen = np.array([unseen for _, unseen in folds], dtype=np.float64)
    rows = []
    for label, criterion, divisor in settings:
        selections = select_models_batched(
            tables, criterion=criterion, divisor=divisor, max_order=max_order
        )
        errors = np.array([s.fit.estimate().unseen for s in selections]) - true_unseen
        rows.append(
            SettingSweepRow(
                setting=label,
                criterion=criterion,
                divisor=divisor,
                rmse=float(np.sqrt(np.mean(errors**2))),
                mae=float(np.mean(np.abs(errors))),
            )
        )
    return rows
