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
from functools import partial
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.histories import tabulate_within_universe
from repro.core.profile_ci import profile_likelihood_interval
from repro.core.selection import select_model
from repro.engine.executor import fan_out
from repro.engine.report import RunReport
from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    from repro.analysis.windows import TimeWindow
    from repro.engine.executor import ExecutionPolicy, Executor
    from repro.engine.faults import FaultInjector
    from repro.obs.observer import Observer


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
    if universe_name not in datasets:
        raise KeyError(f"unknown source {universe_name!r}")
    universe = datasets[universe_name]
    others = {
        name: data for name, data in datasets.items() if name != universe_name
    }
    if len(others) < 2:
        raise ValueError("cross-validation needs at least three sources")
    table, true_unseen = tabulate_within_universe(universe, others)
    selection = select_model(
        table, criterion=criterion, divisor=divisor, max_order=max_order
    )
    estimate = selection.fit.estimate()
    ping = others.get("IPING", IPSet.empty())
    range_low = range_high = None
    if with_range:
        interval = profile_likelihood_interval(
            table, selection.fit.terms, alpha=alpha
        )
        range_low = interval.population_low
        range_high = interval.population_high
    return CrossValidationResult(
        source=universe_name,
        universe_size=len(universe),
        observed_by_others=table.num_observed,
        observed_by_ping=universe.overlap_count(ping),
        true_unseen=true_unseen,
        estimated_unseen=estimate.unseen,
        range_low=range_low,
        range_high=range_high,
    )


def cross_validate_all(
    datasets: Mapping[str, IPSet],
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    max_order: int = 2,
    with_range: bool = False,
    workers: int = 1,
    report: RunReport | None = None,
    policy: "ExecutionPolicy | None" = None,
    faults: "FaultInjector | None" = None,
    seed: int = 0,
    observer: "Observer | None" = None,
) -> list[CrossValidationResult]:
    """Cross-validate every source in turn.

    The folds are independent; ``workers > 1`` fans them out across
    the engine's process pool.  Results always come back in source
    order, so parallel and serial runs are bit-identical.

    Folds run under ``policy`` (see
    :class:`~repro.engine.executor.ExecutionPolicy`): a fold that
    keeps failing is recorded as ``degraded`` in ``report`` and
    dropped from the returned list, so the validation summary is
    computed from the surviving folds instead of aborting the sweep.
    """
    func = partial(
        cross_validate_source,
        criterion=criterion,
        divisor=divisor,
        max_order=max_order,
        with_range=with_range,
    )
    results = fan_out(
        dict(datasets), func, list(datasets),
        workers=workers, report=report, stage="crossval",
        policy=policy, faults=faults, seed=seed, observer=observer,
    )
    return [r for r in results if r is not None]


def cross_validate_window(
    executor: "Executor",
    window: "TimeWindow",
    workers: int = 1,
    **kwargs,
) -> list[CrossValidationResult]:
    """Cross-validate one window straight off the executor's artifacts.

    Fold records land in the executor's :class:`RunReport`, and its
    execution policy and fault injector govern fold retries and
    degradation.
    """
    # Fold on the same view the estimation stages use: when the
    # integrity layer quarantines (or drops) a source for this window,
    # the folds realign on the surviving sources instead of holding a
    # poisoned universe out against poisoned others.
    return cross_validate_all(
        executor.analysis_datasets(window),
        workers=workers,
        report=executor.report,
        policy=executor.policy,
        faults=executor.faults,
        seed=executor.options.seed,
        observer=executor.observer,
        **kwargs,
    )


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


def _sweep_fold_error(
    window_datasets: Sequence[Mapping[str, IPSet]],
    task: tuple[int, str, str, int | str, int],
) -> float:
    """One fold of the sweep grid (module-level so it pickles)."""
    window_index, name, criterion, divisor, max_order = task
    return cross_validate_source(
        window_datasets[window_index],
        name,
        criterion=criterion,
        divisor=divisor,
        max_order=max_order,
    ).error


def sweep_selection_settings(
    window_datasets: Sequence[Mapping[str, IPSet]],
    settings: Sequence[tuple[str, str, int | str]] = TABLE3_SETTINGS,
    max_order: int = 2,
    workers: int = 1,
    report: RunReport | None = None,
    policy: "ExecutionPolicy | None" = None,
    faults: "FaultInjector | None" = None,
    seed: int = 0,
    observer: "Observer | None" = None,
) -> list[SettingSweepRow]:
    """Cross-validation error per model-selection setting (Table 3).

    ``window_datasets`` holds the per-window dataset mappings (the
    paper uses every window except the first); errors aggregate over
    all sources and windows.  The full (setting x window x fold) grid
    is independent, so ``workers > 1`` fans every fold out at once;
    errors aggregate in grid order either way.  Folds degraded under
    ``policy`` are excluded from their setting's RMSE/MAE — the row
    aggregates over the surviving folds.
    """
    tasks = [
        (wi, name, criterion, divisor, max_order)
        for label, criterion, divisor in settings
        for wi, datasets in enumerate(window_datasets)
        for name in datasets
    ]
    errors = fan_out(
        tuple(window_datasets), _sweep_fold_error, tasks,
        workers=workers, report=report, stage="sweep",
        policy=policy, faults=faults, seed=seed, observer=observer,
    )
    rows = []
    cursor = 0
    per_setting = sum(len(d) for d in window_datasets)
    for label, criterion, divisor in settings:
        chunk = [e for e in errors[cursor:cursor + per_setting] if e is not None]
        cursor += per_setting
        arr = np.asarray(chunk, dtype=np.float64)
        rows.append(
            SettingSweepRow(
                setting=label,
                criterion=criterion,
                divisor=divisor,
                rmse=float(np.sqrt(np.mean(arr**2))) if arr.size else float("nan"),
                mae=float(np.mean(np.abs(arr))) if arr.size else float("nan"),
            )
        )
    return rows
