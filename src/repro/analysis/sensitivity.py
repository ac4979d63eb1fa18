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

from repro.core.estimator import (
    CaptureRecapture,
    EstimatorOptions,
    leave_one_out_estimates,
)
from repro.core.loglinear import PopulationEstimate
from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    from repro.analysis.windows import TimeWindow
    from repro.engine.executor import Executor


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


def _report(
    baseline: float, drops: Mapping[str, PopulationEstimate]
) -> SensitivityReport:
    return SensitivityReport(
        baseline=baseline,
        rows=[
            LeverageRow(source=name, estimate_without=e.population, baseline=baseline)
            for name, e in drops.items()
        ],
    )


def leave_one_out_sensitivity(
    datasets: Mapping[str, IPSet],
    options: EstimatorOptions | None = None,
) -> SensitivityReport:
    """Re-estimate with each source removed in turn.

    The baseline is :class:`CaptureRecapture`'s estimate; the drops are
    fitted by :func:`~repro.core.estimator.leave_one_out_estimates`, one
    batched stepwise search under the same options.
    """
    options = options or EstimatorOptions()
    drops = leave_one_out_estimates(
        datasets,
        criterion=options.criterion,
        divisor=options.divisor,
        distribution=options.resolved_distribution(),
        limit=options.limit,
        max_order=options.max_order,
    )
    return _report(CaptureRecapture(datasets, options).estimate().population, drops)


def source_leverage_window(
    executor: "Executor", window: "TimeWindow"
) -> SensitivityReport:
    """Leverage analysis for one window straight off the executor.

    The baseline is the window's headline address estimate; the drops
    are its ``sensitivity`` stage, which leaves each source of
    :meth:`~repro.engine.executor.Executor.analysis_datasets` out in
    turn under the fit stages' likelihood and routed limit.
    """
    # Bad input raises here: inside the stage it would be retried and
    # recorded as a failed stage.
    if len(executor.analysis_datasets(window)) < 3:
        raise ValueError("need at least three sources to drop one")
    return _report(
        executor.window_result(window).estimated_addresses,
        executor.run("sensitivity", window),
    )
