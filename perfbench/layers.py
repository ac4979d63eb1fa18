"""The traced run: a per-layer table measured from outside each layer.

Each layer is timed by wrapping calls into its public functions —
``Executor.run`` per stage, the artifact store's ``get``/``put``,
``CampaignScheduler.run`` and ``execute_task``, ``QueryLedger``, and
``StreamEstimator.resume``/``ingest``/``advance`` — and counted through
``fitkernel.snapshot()``.  Nothing inside the program changes.

The traced pass is a fixed amount of work (not ``--seconds`` long), so
its count metrics repeat exactly between runs of one seed.  Every
workload reports every layer metric; a layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

import shutil
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from statistics import median

from common import (
    QUERY_KINDS,
    answer_ledger,
    build_world,
    degraded_records,
    estimates,
    publish_ledger,
    rel_err_max,
    timed_store,
    windows,
)
from workloads import (
    Outcome,
    batch_gap,
    drain_campaign,
    resume_and_advance,
    stream_warm_state,
)

#: Query requests the traced pass times per workload.
TRACED_QUERIES = 300

#: Per-layer metrics: name -> (unit, better, end-to-end metric it moves).
LAYERS: dict[str, tuple[str, str, str]] = {
    "sources.collect_s": ("s", "lower", "sweep_s on sweep_cold"),
    "filtering.preprocess_s": ("s", "lower", "sweep_s on sweep_cold"),
    "filtering.spoof_filter_s": ("s", "lower", "sweep_s on sweep_cold"),
    "integrity.source_health_s": ("s", "lower", "sweep_s on sweep_cold"),
    "core.histories.tabulate_s": ("s", "lower", "sweep_s on sweep_cold"),
    "core.fit.fit_batch_s": ("s", "lower", "sweep_s on sweep_cold"),
    "core.loglinear.estimate_s": ("s", "lower", "sweep_s on sweep_cold"),
    "engine.executor.window_result_s": ("s", "lower", "sweep_s on sweep_cold"),
    "engine.executor.traced_total_s": ("s", "lower", "sweep_s on sweep_cold"),
    "engine.executor.tracing_overhead_s": ("s", "lower", "none: traced minus untraced sweep"),
    "engine.executor.sweep_pool_s": ("s", "lower", "sweep_s on sweep_cold (2-worker pool)"),
    "engine.executor.pool_efficiency": ("ratio", "higher", "engine.executor.sweep_pool_s"),
    "core.fit.fits": ("count", "lower", "sweep_s on sweep_cold, stream_advance; 0 on serve_warm"),
    "core.fit.irls_iterations": ("count", "lower", "sweep_s on sweep_cold, stream_advance"),
    "core.fit.iters_per_fit": ("ratio", "lower", "sweep_s on sweep_cold, stream_advance"),
    "core.fit.warm_start_hits": ("count", "higher", "sweep_s on sweep_cold, stream_advance"),
    "core.fit.memo_hits": ("count", "higher", "sweep_s on sweep_cold, stream_advance"),
    "core.fit.cholesky_fallbacks": ("count", "lower", "sweep_s on sweep_cold, stream_advance"),
    "core.fit.numeric_warnings": ("count", "lower", "sweep_s on sweep_cold, stream_advance"),
    "engine.store.put_calls": ("count", "lower", "sweep_s on sweep_cold"),
    "engine.store.put_s": ("s", "lower", "sweep_s on sweep_cold"),
    "engine.store.bytes_written": ("bytes", "lower", "sweep_s on sweep_cold"),
    "engine.store.get_calls": ("count", "lower", "sweep_s on serve_warm and sweep_cold"),
    "engine.store.get_s": ("s", "lower", "sweep_s on serve_warm and sweep_cold"),
    "engine.store.bytes_read": ("bytes", "lower", "sweep_s on serve_warm"),
    "engine.store.hit_ratio": ("ratio", "higher", "sweep_s on serve_warm"),
    "service.scheduler.drain_s": ("s", "lower", "setup_s on serve_warm"),
    "service.scheduler.overhead_s": ("s", "lower", "setup_s on serve_warm"),
    "service.queryledger.load_ms": ("ms", "lower", "query_p50_ms, query_p90_ms"),
    "service.queryledger.answer_ms": ("ms", "lower", "query_p50_ms, query_p90_ms"),
    "service.queryledger.ledger_bytes": ("bytes", "lower", "query_p50_ms, query_p90_ms"),
    "stream.estimator.resume_s": ("s", "lower", "sweep_s on stream_advance"),
    "stream.journal.ingest_s": ("s", "lower", "sweep_s on stream_advance"),
    "stream.journal.records": ("count", "higher", "sweep_s on stream_advance"),
    "stream.tabulator.cells_changed": ("count", "lower", "sweep_s on stream_advance"),
    "stream.estimator.close_s": ("s", "lower", "sweep_s on stream_advance"),
    "stream.estimator.batch_gap": ("ratio", "lower", "none: stream-versus-batch agreement"),
    "analysis.windows.rel_err_max": ("ratio", "lower", "none: accuracy against simulator truth"),
}


def _zeroed() -> dict[str, float]:
    return {name: 0.0 for name in LAYERS}


class _FitWatch:
    """Fit-kernel counter deltas and RuntimeWarnings over a region."""

    def __enter__(self):
        from repro.core import fitkernel

        self._fitkernel = fitkernel
        self._before = fitkernel.snapshot()
        self._catcher = warnings.catch_warnings(record=True)
        self._caught = self._catcher.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        return self

    def __exit__(self, *exc):
        self.delta = self._fitkernel.snapshot() - self._before
        self._catcher.__exit__(*exc)
        self.warnings = sum(
            1 for w in self._caught if issubclass(w.category, RuntimeWarning)
        )
        return False

    def record(self, metrics: dict[str, float]) -> None:
        delta = self.delta
        metrics["core.fit.fits"] = delta.fits
        metrics["core.fit.irls_iterations"] = delta.irls_iterations
        metrics["core.fit.iters_per_fit"] = (
            delta.irls_iterations / delta.fits if delta.fits else 0.0
        )
        metrics["core.fit.warm_start_hits"] = delta.warm_start_hits
        metrics["core.fit.memo_hits"] = delta.memo_hits
        metrics["core.fit.cholesky_fallbacks"] = delta.cholesky_fallbacks
        metrics["core.fit.numeric_warnings"] = self.warnings


def _record_store(store, metrics: dict[str, float]) -> None:
    metrics["engine.store.put_calls"] = store.put_calls
    metrics["engine.store.put_s"] = store.put_s
    metrics["engine.store.bytes_written"] = store.persistent.bytes_written
    metrics["engine.store.get_calls"] = store.get_calls
    metrics["engine.store.get_s"] = store.get_s
    metrics["engine.store.bytes_read"] = store.persistent.bytes_read
    metrics["engine.store.hit_ratio"] = (
        store.hits / store.get_calls if store.get_calls else 0.0
    )


def _time_ledger(ledger_dir: Path, metrics: dict[str, float],
                 outcome: Outcome) -> None:
    """Median load and answer times of a query ledger, and its size."""
    from repro.service import QueryLedger

    loads, answers = [], []
    for i in range(TRACED_QUERIES):
        start = perf_counter()
        ledger = QueryLedger.load(ledger_dir)
        loaded = perf_counter()
        answer_ledger(ledger, QUERY_KINDS[i % len(QUERY_KINDS)])
        answers.append(perf_counter() - loaded)
        loads.append(loaded - start)
    outcome.attempted += TRACED_QUERIES
    metrics["service.queryledger.load_ms"] = median(loads) * 1e3
    metrics["service.queryledger.answer_ms"] = median(answers) * 1e3
    metrics["service.queryledger.ledger_bytes"] = ledger.path.stat().st_size


def _health_reads_previous(sources, datasets, previous) -> bool:
    """Whether ``source_health`` will pull the one-year-earlier window.

    Mirrors the stage's rule: the temporal check runs when at least
    four of the window's sources cover the whole previous window.
    """
    eligible = [
        name for name in datasets
        if name in sources
        and sources[name].available_from <= previous.start + 1e-9
        and sources[name].available_to >= previous.end - 1e-9
    ]
    return len(eligible) >= 4


def _bottom_up_sweep(executor, layer_s: dict[str, float]):
    """Resolve every stage of every window leaves-first, timing each call.

    Each ``Executor.run`` finds its dependencies already in memory, so
    its wall time is its own work.  The previous window a health check
    compares against is filtered before ``source_health`` runs, so that
    work is billed to the filtering layers, not to integrity.
    """
    from repro.analysis.windows import TimeWindow
    from repro.engine.stages import FIT_LEVELS

    def run(layer, stage, window, **params):
        start = perf_counter()
        try:
            return executor.run(stage, window, **params)
        finally:
            layer_s[layer] += perf_counter() - start

    def filtered(window):
        run("sources.collect_s", "collect", window)
        run("filtering.preprocess_s", "preprocess", window)
        return run("filtering.spoof_filter_s", "spoof_filter", window)

    policy = executor.options.quarantine
    results = []
    for window in windows():
        datasets = filtered(window)
        exclude: tuple[str, ...] = ()
        if policy.enabled and len(datasets) >= 2:
            previous = TimeWindow(
                window.start - window.length, window.end - window.length
            )
            if _health_reads_previous(executor.sources, datasets, previous):
                filtered(previous)
            health = run("integrity.source_health_s", "source_health", window)
            exclude = tuple(sorted(health.quarantined))
        params = {"exclude": exclude} if exclude else {}
        for level in FIT_LEVELS:
            run("core.histories.tabulate_s", "tabulate", window, level=level, **params)
        run("core.fit.fit_batch_s", "fit_batch", window, **params)
        for level in FIT_LEVELS:
            run("core.loglinear.estimate_s", "fit", window, level=level, **params)
            run("core.loglinear.estimate_s", "estimate", window, level=level, **params)
        results.append(
            run("engine.executor.window_result_s", "window_result", window)
        )
    return results


def trace_sweep_cold(seed: int, tmp: Path, outcome: Outcome) -> dict[str, float]:
    from repro.engine import Executor, open_store

    metrics = _zeroed()
    internet, sources = build_world(seed)
    store = timed_store(tmp / "traced")
    executor = Executor(internet, sources, cache=store)
    layer_s: dict[str, float] = defaultdict(float)
    with _FitWatch() as watch:
        start = perf_counter()
        results = _bottom_up_sweep(executor, layer_s)
        traced_total = perf_counter() - start
    outcome.attempted += len(windows())
    outcome.failed += degraded_records(executor.report)
    metrics.update(layer_s)
    watch.record(metrics)
    _record_store(store, metrics)
    metrics["engine.executor.traced_total_s"] = traced_total
    metrics["analysis.windows.rel_err_max"] = rel_err_max(results)
    outcome.outputs.append(estimates(results))
    publish_ledger(results, seed, tmp / "ledger")
    _time_ledger(tmp / "ledger", metrics, outcome)

    sweeps = {}
    for workers in (1, 2):
        internet, sources = build_world(seed)
        untraced = Executor(
            internet, sources, cache=open_store(tmp / f"untraced-{workers}")
        )
        start = perf_counter()
        swept = untraced.run_windows(windows(), workers=workers)
        sweeps[workers] = perf_counter() - start
        outcome.attempted += len(windows())
        outcome.failed += degraded_records(untraced.report)
        outcome.check(
            estimates(swept) == estimates(results),
            f"{workers}-worker sweep differs from the traced sweep",
        )
    metrics["engine.executor.tracing_overhead_s"] = traced_total - sweeps[1]
    metrics["engine.executor.sweep_pool_s"] = sweeps[2]
    metrics["engine.executor.pool_efficiency"] = sweeps[1] / (2 * sweeps[2])
    return metrics


def trace_serve_warm(seed: int, tmp: Path, outcome: Outcome) -> dict[str, float]:
    import repro.service.scheduler as scheduler_module
    from repro.engine import Executor

    metrics = _zeroed()
    task_s = 0.0
    execute_task = scheduler_module.execute_task

    def timed_execute_task(executor, task):
        nonlocal task_s
        start = perf_counter()
        try:
            return execute_task(executor, task)
        finally:
            task_s += perf_counter() - start

    # The scheduler calls its module's ``execute_task`` per task; swap
    # in a timed wrapper for the drain only.
    scheduler_module.execute_task = timed_execute_task
    try:
        internet, sources, spec, scheduler, campaign_id, drain_s = (
            drain_campaign(seed, tmp / "warm", outcome)
        )
    finally:
        scheduler_module.execute_task = execute_task
    metrics["service.scheduler.drain_s"] = drain_s
    metrics["service.scheduler.overhead_s"] = drain_s - task_s

    store = timed_store(tmp / "warm" / "store")
    with _FitWatch() as watch:
        executor = Executor(internet, sources, options=spec.options, cache=store)
        results = executor.run_windows(windows(), workers=1)
    outcome.attempted += len(windows())
    outcome.failed += degraded_records(executor.report)
    outcome.check(watch.delta.fits == 0, "warm sweep ran fits")
    watch.record(metrics)
    _record_store(store, metrics)
    metrics["analysis.windows.rel_err_max"] = rel_err_max(results)
    outcome.outputs.append(estimates(results))

    _time_ledger(scheduler.campaign_dir(campaign_id), metrics, outcome)
    return metrics


def trace_stream_advance(seed: int, tmp: Path, outcome: Outcome) -> dict[str, float]:
    metrics = _zeroed()
    internet, sources, journal_dir, template, tail = stream_warm_state(
        seed, tmp / "stream", outcome
    )
    store_dir = tmp / "stream-sample"
    shutil.copytree(template, store_dir)
    store = timed_store(store_dir)
    with _FitWatch() as watch:
        stream, records, results, (resume_s, ingest_s, close_s) = (
            resume_and_advance(internet, journal_dir, store_dir, store=store)
        )
    outcome.attempted += len(windows())
    outcome.failed += degraded_records(stream.report)
    outcome.check(records == tail, f"ingested {records} of {tail} records")
    outcome.check(len(results) == len(windows()), "advance lost windows")
    watch.record(metrics)
    _record_store(store, metrics)
    metrics["stream.estimator.resume_s"] = resume_s
    metrics["stream.journal.ingest_s"] = ingest_s
    metrics["stream.journal.records"] = records
    metrics["stream.tabulator.cells_changed"] = (
        stream.tabulator().counters()["cells_touched"]
    )
    metrics["stream.estimator.close_s"] = close_s
    metrics["analysis.windows.rel_err_max"] = rel_err_max(results)
    outcome.outputs.append(estimates(results))
    publish_ledger(results, seed, tmp / "ledger")
    _time_ledger(tmp / "ledger", metrics, outcome)
    metrics["stream.estimator.batch_gap"] = batch_gap(
        internet, sources, results, outcome
    )
    return metrics


TRACES = {
    "sweep_cold": trace_sweep_cold,
    "serve_warm": trace_serve_warm,
    "stream_advance": trace_stream_advance,
}
