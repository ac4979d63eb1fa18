"""Per-run ledger: spans + metrics + provenance persisted to a directory.

A :class:`RunLedger` makes a sweep post-hoc explainable.  It captures
provenance up front (command line, seed, options, policy, git commit,
python version) and, at :meth:`finalize`, absorbs the run's telemetry
and writes one run directory:

```
<run-dir>/
  run.json       provenance: argv, seed, options, policy, git, timing
  trace.jsonl    one completed span per line (run → stage → task → fit)
  metrics.json   counters / gauges / histograms, structured
  metrics.prom   the same registry in Prometheus text exposition
  events.jsonl   structured warning/info events (e.g. corrupt store entries)
  report.json    the RunReport (per-stage records), when one was passed
```

Finalize is where the engine's pre-existing accounting is absorbed
into the metrics registry: `ArtifactCache.stats()` becomes `cache_*`
counters, and the `RunReport` contributes retry/degradation blame,
per-stage wall time, and the fit-kernel totals.  Pulling fit totals
from the report's exclusive per-stage deltas — not from the fit
kernel's process totals — keeps the ledger run-scoped and guarantees
`repro report` agrees with `RunReport` to the digit.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.obs.observer import Observer


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of options/policy objects to JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def git_revision() -> str | None:
    """The repository HEAD this process runs from, if resolvable.

    Public because every provenance-bearing artifact (run ledgers,
    campaign query ledgers) stamps it; ``None`` outside a checkout.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def absorb_engine_accounting(
    observer: Observer, *, report: Any = None, cache: Any = None
) -> None:
    """Fold the engine's existing accounting into the observer's metrics.

    ``ArtifactCache.stats()`` becomes ``cache_*`` counters (entries and
    bytes as gauges), and the ``RunReport`` contributes
    retry/degradation blame, failed stage resolutions per stage,
    per-stage wall time / call counts, and the run's fit-kernel totals.
    Fit totals come from the report's exclusive per-stage deltas — not
    the fit kernel's process totals — so the result is run-scoped and
    matches ``RunReport`` exactly.
    """
    metrics = observer.metrics
    if cache is not None:
        for name, value in cache.stats().items():
            if name in ("entries", "bytes"):  # point-in-time, not totals
                metrics.set_gauge(f"cache_{name}", float(value))
            elif report is not None and name in ("hits", "misses"):
                # The parent cache never sees worker-process lookups;
                # the report's shipped-back stage records do, so they
                # are the run-scoped hit/miss truth under a pool.
                continue
            else:
                metrics.inc(f"cache_{name}_total", float(value))
    if report is not None:
        metrics.inc("cache_hits_total", float(report.cache_hits))
        metrics.inc("cache_misses_total", float(report.cache_misses))
        hit_tiers = getattr(report, "hit_tiers", None)
        if hit_tiers is not None:
            for tier, count in hit_tiers().items():
                metrics.inc("cache_tier_hits_total", float(count), tier=tier)
        metrics.inc("tasks_retried_total", float(report.retry_count))
        metrics.inc("tasks_degraded_total", float(report.degraded_count))
        for record in report.failed_records():
            metrics.inc("stage_failures_total", stage=record.stage)
        metrics.inc("stage_records_total", float(len(report.records)))
        for stage, stats in report.by_stage().items():
            metrics.inc("stage_seconds_total", stats.seconds, stage=stage)
            metrics.inc(
                "stage_self_seconds_total", stats.self_seconds, stage=stage
            )
            metrics.inc("stage_calls_total", float(stats.calls), stage=stage)
            metrics.inc("stage_cache_hits_total", float(stats.hits), stage=stage)
        fit = report.fit_totals()
        if fit:
            metrics.inc_many(
                {f"fit_{name}_total": float(v) for name, v in fit.as_dict().items()}
            )


class RunLedger:
    """Provenance + telemetry sink for one run directory."""

    def __init__(
        self,
        directory: str | Path,
        *,
        command: list[str] | None = None,
        seed: int | None = None,
        options: Any = None,
        policy: Any = None,
    ) -> None:
        self.directory = Path(directory)
        self.started_at = time.time()
        self.provenance: dict[str, Any] = {
            "command": list(command) if command is not None else list(sys.argv),
            "seed": seed,
            "options": _jsonable(options) if options is not None else None,
            "policy": _jsonable(policy) if policy is not None else None,
            "git_revision": git_revision(),
            "python": sys.version.split()[0],
            "started_at": self.started_at,
        }

    def finalize(
        self,
        observer: Observer,
        *,
        report: Any = None,
        cache: Any = None,
    ) -> Path:
        """Absorb engine accounting into the observer and write the ledger.

        ``report`` is a :class:`repro.engine.report.RunReport` (duck
        typed — this module must not import the engine); ``cache`` is
        an :class:`repro.engine.artifacts.ArtifactCache`.
        """
        absorb_engine_accounting(observer, report=report, cache=cache)
        metrics = observer.metrics
        self.directory.mkdir(parents=True, exist_ok=True)
        finished_at = time.time()
        run_info = dict(
            self.provenance,
            finished_at=finished_at,
            wall_seconds=finished_at - self.started_at,
        )
        # Store provenance: which backend served this run (and, for a
        # persistent store, the shared directory cross-run diffs key on).
        describe = getattr(cache, "describe", None)
        if callable(describe):
            run_info["store"] = describe()
        self._write_json("run.json", run_info)
        (self.directory / "trace.jsonl").write_text(observer.tracer.to_jsonl())
        (self.directory / "metrics.json").write_text(metrics.to_json_text() + "\n")
        (self.directory / "metrics.prom").write_text(metrics.to_prometheus())
        events = "".join(
            json.dumps(event, sort_keys=True, default=repr) + "\n"
            for event in observer.events
        )
        (self.directory / "events.jsonl").write_text(events)
        if report is not None:
            self._write_json("report.json", report.to_dict())
        return self.directory

    def _write_json(self, name: str, payload: Any) -> None:
        path = self.directory / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=repr) + "\n")
