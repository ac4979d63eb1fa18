"""Structured observability: tracing, metrics, and the run ledger.

The subsystem has four pieces:

* :class:`Tracer` / :class:`Span` — nested spans (run → stage → task →
  fit) with wall/CPU time, streamable as JSON-lines.
* :class:`MetricsRegistry` — run-scoped counters, gauges and histogram
  summaries with Prometheus-text and JSON exporters.
* :class:`Observer` — the per-run context threaded through the
  executor, the artifact cache and the analysis drivers; disabled by
  default, with :class:`ObserverDelta` shipping worker telemetry home.
* :class:`RunLedger` / :func:`render_run_report` — persistence of a
  run's spans + metrics + provenance to a directory, and the
  ``repro report`` renderer over it.
"""

from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, ObserverDelta
from repro.obs.reporting import render_run_diff, render_run_report
from repro.obs.tracing import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Observer",
    "ObserverDelta",
    "RunLedger",
    "Span",
    "Tracer",
    "render_run_diff",
    "render_run_report",
]
