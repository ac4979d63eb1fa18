"""Counters, gauges and histograms with Prometheus and JSON export.

The :class:`MetricsRegistry` is the numeric half of the observability
layer: a thread-safe bag of named metrics that a run's
:class:`~repro.obs.observer.Observer` holds, that the engine and the
artifact store write into, and that the
:class:`~repro.obs.ledger.RunLedger` exports at the end of a run.
Every registry is run-scoped: the fit kernel keeps its own process
totals (:mod:`repro.core.fitkernel`), and the ledger copies a run's
share of them in as ``fit_*_total`` counters.  Three metric kinds:

* **counters** — monotonically increasing totals (``cache_hits_total``,
  ``fit_irls_iterations_total``).  Workers ship counter *deltas* back
  to the parent (see :meth:`MetricsRegistry.collect` /
  :meth:`MetricsRegistry.merge_counters`), so a parallel run exports
  the same totals as a serial one.
* **gauges** — point-in-time values (``cache_bytes``).
* **histograms** — summary statistics of observed samples
  (count / sum / min / max), exported Prometheus-summary style.

Metrics may carry labels (``stage_seconds_total{stage="fit"}``); the
label set is part of the metric identity.
"""

from __future__ import annotations

import json
import threading
from typing import Iterator, Mapping

#: Metric identity: name plus the sorted, stringified label items.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, object] | None) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _render_key(key: MetricKey) -> str:
    """Prometheus-style rendering of one metric identity."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe named counters, gauges and histogram summaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        #: histogram storage: [count, sum, min, max]
        self._histograms: dict[MetricKey, list[float]] = {}

    # -- recording --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to a counter (created at zero on first use)."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def inc_many(self, deltas: Mapping[str, float]) -> None:
        """Add several unlabelled counter deltas under one lock."""
        with self._lock:
            counters = self._counters
            for name, value in deltas.items():
                key = (name, ())
                counters[key] = counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to a point-in-time value."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Add one sample to a histogram summary."""
        key = _key(name, labels)
        with self._lock:
            stats = self._histograms.get(key)
            if stats is None:
                self._histograms[key] = [1.0, value, value, value]
            else:
                stats[0] += 1.0
                stats[1] += value
                stats[2] = min(stats[2], value)
                stats[3] = max(stats[3], value)

    # -- reading ----------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """Current counter value (0.0 if never incremented)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def gauge(self, name: str, **labels: object) -> float | None:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    # -- worker deltas -----------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Picklable snapshot of the counters (for delta shipping).

        Keys are rendered ``name{label="v"}`` strings, so a snapshot
        survives pickling to a pool worker and back.  Gauges and
        histograms are process-local and are *not* shipped: a worker's
        gauge has no meaningful merge into the parent.
        """
        with self._lock:
            return {_render_key(k): v for k, v in self._counters.items()}

    @staticmethod
    def subtract(after: Mapping[str, float], before: Mapping[str, float]) -> dict[str, float]:
        """Counter delta between two :meth:`collect` snapshots."""
        return {
            name: value - before.get(name, 0.0)
            for name, value in after.items()
            if value != before.get(name, 0.0)
        }

    def merge_counters(self, deltas: Mapping[str, float]) -> None:
        """Fold a worker's counter deltas (rendered-key form) into this
        registry."""
        with self._lock:
            for rendered, value in deltas.items():
                key = _parse_rendered(rendered)
                self._counters[key] = self._counters.get(key, 0.0) + value

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._counters or self._gauges or self._histograms)

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready structured export (the ``metrics.json`` payload)."""
        with self._lock:
            return {
                "counters": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for (name, labels), value in sorted(self._counters.items())
                ],
                "gauges": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for (name, labels), value in sorted(self._gauges.items())
                ],
                "histograms": [
                    {
                        "name": name,
                        "labels": dict(labels),
                        "count": int(stats[0]),
                        "sum": stats[1],
                        "min": stats[2],
                        "max": stats[3],
                    }
                    for (name, labels), stats in sorted(self._histograms.items())
                ],
            }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every metric."""
        lines: list[str] = []
        with self._lock:
            for key, value in sorted(self._counters.items()):
                lines.append(f"# TYPE {key[0]} counter")
                lines.append(f"{_render_key(key)} {_format_number(value)}")
            for key, value in sorted(self._gauges.items()):
                lines.append(f"# TYPE {key[0]} gauge")
                lines.append(f"{_render_key(key)} {_format_number(value)}")
            for (name, labels), stats in sorted(self._histograms.items()):
                lines.append(f"# TYPE {name} summary")
                count_key = (f"{name}_count", labels)
                sum_key = (f"{name}_sum", labels)
                lines.append(f"{_render_key(count_key)} {_format_number(stats[0])}")
                lines.append(f"{_render_key(sum_key)} {_format_number(stats[1])}")
        return "\n".join(lines) + "\n" if lines else ""

    def __iter__(self) -> Iterator[tuple[str, float]]:
        """Iterate rendered-name / value pairs of the counters."""
        return iter(self.collect().items())


def _format_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def _parse_rendered(rendered: str) -> MetricKey:
    """Inverse of :func:`_render_key` for merge_counters."""
    if "{" not in rendered:
        return (rendered, ())
    name, _, rest = rendered.partition("{")
    items = []
    for part in rest.rstrip("}").split(","):
        k, _, v = part.partition("=")
        items.append((k, v.strip('"')))
    return (name, tuple(sorted(items)))

