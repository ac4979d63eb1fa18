"""Growth-trend extraction (Sections 6.3-6.7).

Turns per-window results into the series the paper plots:
routed/observed/estimated over time (Figures 4 and 5, absolute and
normalised on the first window) and average yearly growth per stratum
(Figures 6-9), both observed and estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.analysis.windows import TimeWindow
from repro.engine.stages import WindowResult

if TYPE_CHECKING:
    from repro.engine.executor import Executor


@dataclass(frozen=True)
class GrowthSeries:
    """Aligned routed/observed/estimated/truth series over windows."""

    window_ends: np.ndarray
    labels: tuple[str, ...]
    routed: np.ndarray
    observed: np.ndarray
    estimated: np.ndarray
    truth: np.ndarray

    def growth_per_year(self, which: str = "estimated") -> float:
        """Least-squares linear growth of one series, per year."""
        series = getattr(self, which)
        return linear_growth_per_year(self.window_ends, series)

    def normalized(self, which: str) -> np.ndarray:
        """One series normalised on its first window."""
        return normalized(getattr(self, which))


def normalized(series: np.ndarray) -> np.ndarray:
    """Series divided by its first value (the paper's normalisation)."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        return series
    if series[0] == 0:
        raise ValueError("cannot normalise a series starting at zero")
    return series / series[0]


def linear_growth_per_year(times: np.ndarray, series: np.ndarray) -> float:
    """Least-squares slope of a series against fractional years.

    The closed form ``sum((t - mean t)(s - mean s)) / sum((t - mean t)^2)``
    — what a degree-1 ``np.polyfit`` returns, without its Vandermonde
    ``lstsq`` (the growth query evaluates this once per series).
    """
    times = np.asarray(times, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    if times.shape != series.shape or times.ndim != 1:
        raise ValueError(
            f"times {times.shape} and series {series.shape} must be matching 1-D"
        )
    if times.size < 2:
        raise ValueError("need at least two points for a growth rate")
    spread = times - times.sum() / times.size
    denominator = float(spread @ spread)
    if denominator == 0.0:
        raise ValueError("all times are equal: the growth rate is undefined")
    return float(spread @ (series - series.sum() / series.size)) / denominator


def growth_series(
    executor: "Executor",
    windows: Sequence[TimeWindow] | None = None,
    level: str = "addresses",
    workers: int = 1,
) -> GrowthSeries:
    """The Figure 4/5 series straight off the engine.

    Submits the window sweep to the executor (fanning windows across
    processes with ``workers > 1``) instead of looping by hand;
    bit-identical to a serial sweep by the engine's determinism
    contract.
    """
    results = executor.run_windows(
        list(windows) if windows is not None else None, workers=workers
    )
    return series_from_results(results, level=level)


def series_from_results(
    results: Sequence[WindowResult], level: str = "addresses"
) -> GrowthSeries:
    """Build the Figure 4/5 series from window results."""
    if level not in ("addresses", "subnets"):
        raise ValueError(f"level must be 'addresses' or 'subnets', got {level!r}")
    ends = np.array([r.window.end for r in results])
    labels = tuple(r.window.label() for r in results)
    if level == "addresses":
        return GrowthSeries(
            window_ends=ends,
            labels=labels,
            routed=np.array([r.routed_addresses for r in results], float),
            observed=np.array([r.observed_addresses for r in results], float),
            estimated=np.array([r.estimated_addresses for r in results], float),
            truth=np.array([r.truth_addresses for r in results], float),
        )
    return GrowthSeries(
        window_ends=ends,
        labels=labels,
        routed=np.array([r.routed_subnets for r in results], float),
        observed=np.array([r.observed_subnets for r in results], float),
        estimated=np.array([r.estimated_subnets for r in results], float),
        truth=np.array([r.truth_subnets for r in results], float),
    )


@dataclass(frozen=True)
class StratumGrowth:
    """Average yearly growth of one stratum (Figures 6-9 bars)."""

    label: Hashable
    observed_first: float
    observed_last: float
    estimated_first: float
    estimated_last: float
    years: float

    @property
    def observed_per_year(self) -> float:
        return (self.observed_last - self.observed_first) / self.years

    @property
    def estimated_per_year(self) -> float:
        return (self.estimated_last - self.estimated_first) / self.years

    @property
    def observed_relative(self) -> float:
        """Average relative yearly growth of the observed series (%)."""
        if self.observed_first <= 0:
            return float("nan")
        return 100.0 * self.observed_per_year / self.observed_first

    @property
    def estimated_relative(self) -> float:
        if self.estimated_first <= 0:
            return float("nan")
        return 100.0 * self.estimated_per_year / self.estimated_first


def stratified_yearly_growth(
    executor: "Executor",
    kind: str,
    first_window: TimeWindow,
    last_window: TimeWindow,
    level: str = "addresses",
    min_observed: float = 0.0,
) -> list[StratumGrowth]:
    """Average yearly growth per stratum between two windows.

    The paper's bar charts report *average* growth over the study
    period, which the endpoint difference divided by elapsed years
    gives directly.  Strata observed below ``min_observed`` (in the
    last window) are dropped, mirroring the paper's cut of small
    countries.
    """
    years = last_window.end - first_window.end
    if years <= 0:
        raise ValueError("windows must be ordered")
    first = executor.stratified(first_window, kind, level)
    last = executor.stratified(last_window, kind, level)
    rows = []
    for label, stratum in sorted(last.strata.items(), key=lambda kv: str(kv[0])):
        if stratum.observed < min_observed:
            continue
        first_stratum = first.strata.get(label)
        obs_first = float(first_stratum.observed) if first_stratum else 0.0
        est_first = float(first_stratum.population) if first_stratum else 0.0
        rows.append(
            StratumGrowth(
                label=label,
                observed_first=obs_first,
                observed_last=float(stratum.observed),
                estimated_first=est_first,
                estimated_last=float(stratum.population),
                years=years,
            )
        )
    return rows
