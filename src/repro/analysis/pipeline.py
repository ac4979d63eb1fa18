"""End-to-end estimation pipeline (facade over the staged engine).

One object orchestrates the paper's whole measurement flow per window:
collect each available source, preprocess to routed space, spoof-filter
the NetFlow datasets, tabulate capture histories, run model selection
and produce estimates at both address and /24 granularity — together
with the routed-space denominators and (simulation privilege) the
ground truth.

Since the engine refactor the pipeline no longer orchestrates by hand:
every step is a named stage resolved through
:class:`repro.engine.Executor`, whose unified artifact cache replaces
the old per-pipeline result dicts and whose process pool fans
independent windows out (``run_all(workers=...)``).  The per-stage
instrumentation of a run is available as :attr:`report`.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.core.estimator import CaptureRecapture, EstimatorOptions
from repro.core.stratified import StratifiedEstimate
from repro.engine.executor import Executor
from repro.engine.report import RunReport
from repro.engine.stages import (
    NETFLOW_SOURCES,
    SPOOF_FREE_REFERENCES,
    PipelineOptions,
    WindowResult,
)
from repro.ipspace.ipset import IPSet
from repro.obs.observer import Observer
from repro.analysis.windows import TimeWindow
from repro.simnet.internet import SyntheticInternet
from repro.sources.base import MeasurementSource

__all__ = [
    "EstimationPipeline",
    "PipelineOptions",
    "WindowResult",
    "SPOOF_FREE_REFERENCES",
    "NETFLOW_SOURCES",
]


class EstimationPipeline:
    """The paper's measurement-and-estimation flow over a simulator."""

    def __init__(
        self,
        internet: SyntheticInternet,
        sources: Mapping[str, MeasurementSource] | None = None,
        options: PipelineOptions | None = None,
        *,
        engine: Executor | None = None,
        observer: "Observer | None" = None,
    ) -> None:
        self.engine = engine or Executor(
            internet, sources, options, observer=observer
        )
        self.internet = self.engine.internet
        self.options = self.engine.options
        self.sources = self.engine.sources

    @property
    def observer(self) -> "Observer":
        """The run's telemetry context (disabled unless one was passed)."""
        return self.engine.observer

    @property
    def report(self) -> RunReport:
        """Per-stage instrumentation accumulated by this pipeline's runs."""
        return self.engine.report

    # -- dataset assembly -------------------------------------------------

    def raw_datasets(self, window: TimeWindow) -> dict[str, IPSet]:
        """Per-source raw collections for the window (available only)."""
        return self.engine.run("collect", window)

    def datasets(
        self, window: TimeWindow, spoof_filtering: bool | None = None
    ) -> dict[str, IPSet]:
        """Preprocessed (and optionally spoof-filtered) window datasets."""
        return self.engine.datasets(window, spoof_filtering)

    def analysis_datasets(self, window: TimeWindow) -> dict[str, IPSet]:
        """The datasets the estimation stages actually fit on.

        Like :meth:`datasets` but with any sources the integrity layer
        quarantined for this window removed.
        """
        return self.engine.analysis_datasets(window)

    # -- source integrity ---------------------------------------------------

    def window_health(self, window: TimeWindow):
        """Per-source integrity verdicts for one window.

        Returns the :class:`~repro.integrity.health.SourceHealthReport`
        computed under ``options.quarantine``.
        """
        return self.engine.window_health(window)

    # -- estimation ---------------------------------------------------------

    def _estimator_options(self, limit: float) -> EstimatorOptions:
        opts = self.options
        return EstimatorOptions(
            criterion=opts.criterion,
            divisor=opts.divisor,
            max_order=opts.max_order,
            distribution=opts.distribution,
            limit=limit,
            min_stratum_observed=opts.min_stratum_observed,
        )

    def address_estimator(self, window: TimeWindow) -> CaptureRecapture:
        """Address-level CR estimator for a window."""
        routed_size = self.internet.routing.size(window.start, window.end)
        return CaptureRecapture(
            self.datasets(window), self._estimator_options(routed_size)
        )

    def subnet_estimator(self, window: TimeWindow) -> CaptureRecapture:
        """/24-level CR estimator for a window."""
        routed_24 = self.internet.routing.subnet24_count(window.start, window.end)
        projected = {
            name: d.subnets24() for name, d in self.datasets(window).items()
        }
        return CaptureRecapture(projected, self._estimator_options(routed_24))

    def run_window(self, window: TimeWindow) -> WindowResult:
        """Full observed/estimated/truth bundle for one window."""
        return self.engine.window_result(window)

    def run_all(
        self,
        windows: list[TimeWindow] | None = None,
        workers: int = 1,
    ) -> list[WindowResult]:
        """Run every window (the paper's 11 by default).

        ``workers > 1`` fans whole windows out across a process pool;
        results are bit-identical to a serial run with the same seed
        (see ``docs/ENGINE.md``).
        """
        return self.engine.run_windows(windows, workers)

    # -- stratified views --------------------------------------------------------

    def stratified_addresses(
        self, window: TimeWindow, kind: str
    ) -> StratifiedEstimate:
        """Per-stratum address estimates summed to a total (Table 5).

        ``kind`` is a registry stratification (``"rir"``,
        ``"country"``, ``"prefix"``, ``"age"``, ``"industry"``) or
        ``"dynamic"`` for the static/dynamic split.
        """
        return self.engine.stratified(
            window,
            self._labeler(kind),
            level="addresses",
            limit_per_stratum=self._stratum_limits(window, kind),
        )

    def stratified_subnets(
        self, window: TimeWindow, kind: str
    ) -> StratifiedEstimate:
        """Per-stratum /24 estimates summed to a total."""
        return self.engine.stratified(
            window,
            self._labeler(kind),
            level="subnets",
            limit_per_stratum=self._stratum_limits(window, kind, subnets=True),
        )

    def _labeler(self, kind: str):
        if kind == "dynamic":
            return self.internet.population.dynamic_labeler()
        return self.internet.registry.labeler(kind)

    def _stratum_limits(
        self, window: TimeWindow, kind: str, subnets: bool = False
    ):
        """Per-stratum truncation limits: the stratum's routed size
        (in addresses, or /24 blocks with ``subnets``)."""
        if kind == "dynamic":
            if subnets:
                routed = self.internet.routing.subnet24_count(
                    window.start, window.end
                )
            else:
                routed = self.internet.routing.size(window.start, window.end)
            return lambda label: routed
        registry = self.internet.registry
        mask = self.internet.routing.routed_allocation_mask(
            window.start, window.end
        )
        sizes: dict[Hashable, float] = {}
        values = {
            "rir": registry.rir_codes,
            "industry": registry.industry_codes,
            "prefix": registry.real_lengths,
            "age": registry.years,
            "country": registry.countries,
        }[kind]
        for alloc, routed_flag, value in zip(
            registry.allocations, mask, values
        ):
            if routed_flag:
                key = value.item() if hasattr(value, "item") else value
                size = alloc.prefix.size
                if subnets:
                    size = max(1, size // 256)
                sizes[key] = sizes.get(key, 0.0) + size
        total = sum(sizes.values())
        return lambda label: sizes.get(label, total)
