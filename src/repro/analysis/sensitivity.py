"""Source-sensitivity analysis: how much does each dataset matter?

The paper probes robustness by re-estimating without SWIN/CALT
(Figure 2).  This module generalises that: re-run the estimate with
each source removed in turn (and optionally with only the censuses or
only the passive sources), quantifying each source's *leverage* — how far
the estimate moves when it disappears.  High leverage is not bad per
se (a source may genuinely cover unique ground), but leverage
concentrated in one source warns that the estimate hangs on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.estimator import CaptureRecapture, EstimatorOptions
from repro.engine.executor import fan_out
from repro.engine.report import RunReport
from repro.engine.stages import _fit_distribution, _level_limit
from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    from repro.analysis.windows import TimeWindow
    from repro.engine.executor import ExecutionPolicy, Executor
    from repro.engine.faults import FaultInjector
    from repro.obs.observer import Observer


@dataclass(frozen=True)
class LeverageRow:
    """Estimate movement when one source is removed."""

    source: str
    estimate_without: float
    baseline: float

    @property
    def shift(self) -> float:
        """Relative movement of the estimate (signed)."""
        return (self.estimate_without - self.baseline) / self.baseline


@dataclass
class SensitivityReport:
    """Leave-one-source-out leverage of every source."""

    baseline: float
    rows: list[LeverageRow]

    def max_leverage(self) -> LeverageRow:
        """The source whose removal moves the estimate the most."""
        return max(self.rows, key=lambda r: abs(r.shift))

    def is_robust(self, threshold: float = 0.25) -> bool:
        """True if no single source moves the estimate past ``threshold``."""
        return all(abs(r.shift) <= threshold for r in self.rows)


def _estimate_without(
    payload: tuple[dict[str, IPSet], EstimatorOptions], name: str | None
) -> float:
    """Estimate with one source dropped (module-level so it pickles)."""
    datasets, options = payload
    if name is not None:
        datasets = {k: v for k, v in datasets.items() if k != name}
    return CaptureRecapture(datasets, options).estimate().population


def leave_one_out_sensitivity(
    datasets: Mapping[str, IPSet],
    options: EstimatorOptions | None = None,
    workers: int = 1,
    report: RunReport | None = None,
    policy: "ExecutionPolicy | None" = None,
    faults: "FaultInjector | None" = None,
    seed: int = 0,
    observer: "Observer | None" = None,
) -> SensitivityReport:
    """Re-estimate with each source removed in turn.

    The drops are independent re-estimations; ``workers > 1`` fans
    them (baseline included) out across the engine's process pool.
    A drop degraded under ``policy`` loses its row (the report covers
    the surviving drops); a degraded *baseline* cannot be worked
    around and raises.
    """
    if len(datasets) < 3:
        raise ValueError("need at least three sources to drop one")
    options = options or EstimatorOptions()
    payload = (dict(datasets), options)
    estimates = fan_out(
        payload, _estimate_without, [None, *datasets],
        workers=workers, report=report, stage="sensitivity",
        policy=policy, faults=faults, seed=seed, observer=observer,
    )
    baseline, rest = estimates[0], estimates[1:]
    if baseline is None:
        raise RuntimeError(
            "baseline estimate degraded; sensitivity needs the baseline"
        )
    rows = [
        LeverageRow(source=name, estimate_without=estimate, baseline=baseline)
        for name, estimate in zip(datasets, rest)
        if estimate is not None
    ]
    return SensitivityReport(baseline=baseline, rows=rows)


def source_leverage_window(
    executor: "Executor",
    window: "TimeWindow",
    workers: int = 1,
) -> SensitivityReport:
    """Leverage analysis for one window straight off the executor.

    Drops each source in turn from the window's analysis datasets (its
    quarantined sources already out), fits under the fit stages'
    likelihood and routed limit, and records fold timings in the
    executor's report.
    """
    opts = executor.options
    limit = _level_limit(executor, window, "addresses")
    options = EstimatorOptions(
        criterion=opts.criterion,
        divisor=opts.divisor,
        max_order=opts.max_order,
        distribution=_fit_distribution(opts, limit),
        limit=limit,
        min_stratum_observed=opts.min_stratum_observed,
    )
    return leave_one_out_sensitivity(
        executor.analysis_datasets(window),
        options,
        workers=workers,
        report=executor.report,
        policy=executor.policy,
        faults=executor.faults,
        seed=opts.seed,
        observer=executor.observer,
    )
