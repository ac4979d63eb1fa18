"""The three end-to-end workloads, measured with tracing off.

Each workload is a closed loop with one client: the next request starts
only when the previous one returned.  A workload function returns a
:class:`Outcome`: the end-to-end metrics named in ``BENCHMARK.json``,
the wider human-readable table, the operation counts and the output
checks that failed.

Set-up is repeated and reported as its median, so work moved into
set-up shows as ``setup_s``: once per sample where the workload rebuilds
its world per sample, else ``SETUPS`` rounds, each followed by its share
of the measuring time.  Spreading samples over the whole run averages
over the slow (10-20 s) swings in machine speed of a shared VM.
"""

from __future__ import annotations

import gc
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from statistics import median
from typing import Any, Callable

from common import (
    QUERY_KINDS,
    SCALE_LOG2,
    SpeedProbe,
    answer_ledger,
    build_world,
    degraded_records,
    estimates,
    peak_rss_mb,
    percentile,
    publish_ledger,
    rel_err_max,
    windows,
)

#: End-to-end metrics every workload reports: name -> (unit, better,
#: bound).  ``sweep_s`` is the time until the client holds all 11
#: windows' estimates: a cold sweep, a warm sweep reopening the store,
#: or a stream resume + tail ingest + advance.  A query is one
#: ``QueryLedger.load`` plus one answer (totals, growth or windows in
#: turn) from a query ledger of those results: the campaign's on
#: ``serve_warm``, one published after each sample elsewhere.  Timings are
#: at the reference machine speed (see ``common.SpeedProbe``); raw wall
#: times are in the printed table.  The tail is p90 (hundreds of samples
#: beyond it); p99 is in the printed table.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sweep_s": ("s", "lower", 0.25),
    "query_p50_ms": ("ms", "lower", 0.25),
    "query_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: The human-readable table: every end-to-end figure a workload can
#: show, with its unit (``-`` where the workload does not measure it).
TABLE: dict[str, str] = {
    "setup_s": "s",
    "sweep_s": "s",
    "sweep_wall_s": "s",
    "sweep_pool_s": "s",
    "sweep_rel_err_max": "ratio",
    "warm_sweep_p50_ms": "ms",
    "warm_sweep_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_p99_ms": "ms",
    "advance_s": "s",
    "stream_batch_gap": "ratio",
    "error_rate": "failed/attempted",
    "peak_rss_mb": "MB",
    "probe_ms": "ms",
}

#: Times the heavy set-ups (campaign drain, stream warm state) repeat.
SETUPS = 3

#: Fewest cold sweeps a ``sweep_cold`` run measures, however short.
MIN_COLD_SWEEPS = 5

#: Measuring time between two speed probes on ``serve_warm``, whose
#: requests are too short to probe one by one.
SLICE_S = 0.5

#: Ledger queries a client sends after each cold sweep or advance.
QUERIES_PER_SAMPLE = 400

#: The stream's warm state holds everything before this time; each
#: sample absorbs the one quarter after it and closes the last window.
WARM_THROUGH = 2014.25

#: Relative tolerance of the stream-versus-batch check.  The stream
#: contract promises 1e-8, but a resumed advance warm-starts the last
#: window's fits from the snapshot's coefficient chain and lands on a
#: slightly different optimum: gaps of 1e-8 to 3e-7 on most seeds and
#: 2e-3 on seed 3.  The exact gap is reported as
#: ``stream.estimator.batch_gap``; this bound only catches breakage.
STREAM_RTOL = 1e-2

#: A sweep whose worst window misses truth by more than this is wrong.
REL_ERR_LIMIT = 0.5


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    table: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Estimates the run produced, for comparing runs of one seed.
    outputs: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def attempt(self, fn: Callable[[], Any], ops: int = 1) -> Any:
        """Run one request; an exception counts as a failed operation."""
        self.attempted += ops
        try:
            return fn()
        except Exception:
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            return None


@dataclass
class Timings:
    """Wall times of one run, each with its speed-probe scale factor."""

    probe: SpeedProbe = field(default_factory=SpeedProbe)
    setups: list[float] = field(default_factory=list)
    sweeps: list[float] = field(default_factory=list)
    sweeps_wall: list[float] = field(default_factory=list)
    queries: list[float] = field(default_factory=list)

    def add(self, **walls: list[float]) -> None:
        """Record wall times taken since the last probe, by kind."""
        scale = self.probe.scale()
        for kind, values in walls.items():
            getattr(self, kind).extend(v * scale for v in values)
        self.sweeps_wall.extend(walls.get("sweeps", ()))


def _expected_answers(rows, results) -> dict[str, Any]:
    """What each query kind must return for these ledger rows, the growth
    rates recomputed from the window results themselves."""
    from repro.analysis.growth import series_from_results

    series = series_from_results(results)
    last = rows[-1]
    totals = {
        name: last[name]
        for name in (
            "start", "end", "routed_addresses", "observed_addresses",
            "estimated_addresses", "estimated_subnets", "truth_addresses",
        )
    }
    return {
        "totals": totals | {"window": last["label"]},
        "growth": {
            name: series.growth_per_year(name)
            for name in ("routed", "observed", "estimated", "truth")
        },
        "windows": [dict(row) for row in rows],
    }


def _ask(outcome: Outcome, ledger_dir: Path, kind: str, expected) -> float:
    """One query: load the ledger and answer ``kind``; its wall time."""
    from repro.service import QueryLedger

    start = perf_counter()
    reply = outcome.attempt(
        lambda: answer_ledger(QueryLedger.load(ledger_dir), kind)
    )
    elapsed = perf_counter() - start
    outcome.check(reply == expected.get(kind), f"query {kind} differs")
    return elapsed


def _ledger_queries(outcome: Outcome, results, seed: int, ledger_dir: Path,
                    timings: Timings) -> None:
    """Publish a query ledger of ``results`` and query it in turn."""
    rows = publish_ledger(results, seed, ledger_dir)
    expected = _expected_answers(rows, results)
    timings.probe.mark()
    latencies = [
        _ask(outcome, ledger_dir, QUERY_KINDS[i % len(QUERY_KINDS)], expected)
        for i in range(QUERIES_PER_SAMPLE)
    ]
    timings.add(queries=latencies)


def _finish(outcome: Outcome, timings: Timings,
            with_children: bool = False) -> Outcome:
    queries = timings.queries
    outcome.metrics.update(
        setup_s=median(timings.setups),
        sweep_s=median(timings.sweeps),
        query_p50_ms=percentile(queries, 50) * 1e3,
        query_p90_ms=percentile(queries, 90) * 1e3,
        peak_rss_mb=peak_rss_mb(with_children),
    )
    outcome.table.update(
        outcome.metrics,
        sweep_wall_s=median(timings.sweeps_wall),
        query_p99_ms=percentile(queries, 99) * 1e3,
        error_rate=outcome.failed / max(outcome.attempted, 1),
        probe_ms=median(timings.probe.durations) * 1e3,
        samples=len(timings.sweeps),
        queries=len(queries),
    )
    return outcome


# -- sweep_cold ---------------------------------------------------------------


def _cold_sweep(seed: int, store_dir: Path, workers: int, outcome: Outcome,
                timings: Timings | None = None):
    """One fresh world, one empty store, one 11-window sweep.

    Returns ``(wall seconds of the sweep, results)``; with ``timings``
    the world build and the sweep are recorded there too.
    """
    from repro.engine import Executor, open_store

    if timings is not None:
        timings.probe.mark()
    start = perf_counter()
    internet, sources = build_world(seed)
    if timings is not None:
        timings.add(setups=[perf_counter() - start])
    start = perf_counter()
    executor = Executor(internet, sources, cache=open_store(store_dir))
    results = outcome.attempt(
        lambda: executor.run_windows(windows(), workers=workers),
        ops=len(windows()),
    )
    elapsed = perf_counter() - start
    if timings is not None:
        timings.add(sweeps=[elapsed])
    outcome.failed += degraded_records(executor.report)
    shutil.rmtree(store_dir, ignore_errors=True)
    return elapsed, results


def sweep_cold(seed: int, seconds: float, tmp: Path) -> Outcome:
    """Fresh executor, empty store, all 11 windows, one worker.

    Every sample rebuilds the world so per-world caches start cold, as
    in a fresh ``repro windows`` process; the world build is the
    workload's set-up.  One two-worker sweep after the timed loop checks
    that the pool gives bit-identical estimates.
    """
    outcome = Outcome()
    timings = Timings()
    reference = None
    deadline = perf_counter() + seconds
    while len(timings.sweeps) < MIN_COLD_SWEEPS or perf_counter() < deadline:
        gc.collect()
        _, results = _cold_sweep(
            seed, tmp / f"cold-{len(timings.sweeps)}", 1, outcome, timings
        )
        if results is None:
            continue
        outcome.check(len(results) == len(windows()), "cold sweep lost windows")
        if reference is None:
            reference = results
        outcome.check(
            estimates(results) == estimates(reference),
            "cold sweeps of one seed disagree",
        )
        _ledger_queries(outcome, results, seed, tmp / "ledger", timings)
    pool_s, pooled = _cold_sweep(seed, tmp / "cold-pool", 2, outcome)
    outcome.check(
        pooled is not None and reference is not None
        and estimates(pooled) == estimates(reference),
        "serial and pool sweeps differ",
    )
    if reference is not None:
        err = rel_err_max(reference)
        outcome.table["sweep_rel_err_max"] = err
        outcome.check(err < REL_ERR_LIMIT, f"sweep_rel_err_max {err:.3f}")
    outcome.table["sweep_pool_s"] = pool_s
    return _finish(outcome, timings, with_children=True)


# -- serve_warm ---------------------------------------------------------------


def drain_campaign(seed: int, root: Path, outcome: Outcome):
    """World + campaign over the 11 windows drained into a fresh store.

    Returns ``(internet, sources, spec, scheduler, campaign_id,
    drain_s)``, ``drain_s`` being the wall time of
    ``CampaignScheduler.run``.  The store lives under ``root / "store"``
    and the service directory under ``root / "service"``.
    """
    from repro.engine import Executor, open_store
    from repro.service import CampaignScheduler, CampaignSpec

    internet, sources = build_world(seed)
    spec = CampaignSpec(
        windows=tuple(windows()), scale_log2=SCALE_LOG2, seed=seed
    )
    scheduler = CampaignScheduler(root / "service")
    campaign_id = scheduler.submit(spec)
    executor = Executor(
        internet, sources, options=spec.options,
        cache=open_store(root / "store"),
    )
    start = perf_counter()
    status = outcome.attempt(
        lambda: scheduler.run(campaign_id, executor=executor),
        ops=len(spec.windows),
    )
    drain_s = perf_counter() - start
    if status is not None:
        outcome.failed += status.degraded
        outcome.check(status.finished, f"campaign ended {status.state}")
    outcome.failed += degraded_records(executor.report)
    return internet, sources, spec, scheduler, campaign_id, drain_s


def serve_warm(seed: int, seconds: float, tmp: Path) -> Outcome:
    """A drained campaign serving warm sweeps and ledger queries in turn.

    Set-up drains the campaign (filling the store and the query
    ledger).  Requests alternate a warm sweep — a fresh executor
    reopening the store — with one ledger query (load plus answer),
    cycling totals, growth and windows.  The run is ``SETUPS`` rounds of
    set-up followed by a share of the measuring time, probed every
    ``SLICE_S`` seconds.
    """
    from repro.core import fitkernel
    from repro.engine import Executor, open_store

    outcome = Outcome()
    timings = Timings()
    fits = 0
    for n in range(SETUPS):
        gc.collect()
        root = tmp / f"warm-{n}"
        timings.probe.mark()
        start = perf_counter()
        internet, sources, spec, scheduler, campaign_id, _ = drain_campaign(
            seed, root, outcome
        )
        timings.add(setups=[perf_counter() - start])
        campaign_dir = scheduler.campaign_dir(campaign_id)
        rows = scheduler.results(campaign_id)["windows"]
        campaign = [
            (r["start"], r["end"], r["estimated_addresses"], r["estimated_subnets"])
            for r in rows
        ]

        def warm_sweep():
            executor = Executor(
                internet, sources, options=spec.options,
                cache=open_store(root / "store"),
            )
            results = executor.run_windows(windows(), workers=1)
            outcome.failed += degraded_records(executor.report)
            return results

        fits_before = fitkernel.snapshot().fits
        # One untimed warm sweep supplies the growth the ledger must serve.
        first = outcome.attempt(warm_sweep, ops=len(windows()))
        answers = _expected_answers(rows, first) if first is not None else {}
        requests = 0
        gc.collect()
        timings.probe.mark()
        deadline = perf_counter() + seconds / SETUPS
        while True:
            sweeps, queries = [], []
            slice_end = perf_counter() + SLICE_S
            while not sweeps or perf_counter() < slice_end:
                start = perf_counter()
                results = outcome.attempt(warm_sweep, ops=len(windows()))
                sweeps.append(perf_counter() - start)
                outcome.check(
                    results is not None and estimates(results) == campaign,
                    "warm sweep differs from the campaign",
                )
                kind = QUERY_KINDS[requests % len(QUERY_KINDS)]
                requests += 1
                queries.append(_ask(outcome, campaign_dir, kind, answers))
            timings.add(sweeps=sweeps, queries=queries)
            if perf_counter() >= deadline:
                break
        fits += fitkernel.snapshot().fits - fits_before
        shutil.rmtree(root, ignore_errors=True)
    outcome.check(fits == 0, f"warm requests ran {fits} fits")
    outcome.table.update(
        warm_sweep_p50_ms=percentile(timings.sweeps, 50) * 1e3,
        warm_sweep_p99_ms=percentile(timings.sweeps, 99) * 1e3,
    )
    return _finish(outcome, timings)


# -- stream_advance -----------------------------------------------------------


def stream_warm_state(seed: int, root: Path, outcome: Outcome):
    """Journal, warm stream through ``WARM_THROUGH``, snapshot to a store.

    Returns ``(internet, sources, journal_dir, store_dir, tail)`` where
    ``tail`` is the number of journal records the snapshot has not
    absorbed.
    """
    from repro.engine import open_store
    from repro.engine.stages import PipelineOptions
    from repro.stream import DeltaJournal, StreamEstimator, journal_from_sources

    internet, sources = build_world(seed)
    journal = journal_from_sources(sources, root / "journal")
    # Deltas are journalled in time order, so the records before
    # WARM_THROUGH are a prefix of the full journal.
    prefix = len(
        journal_from_sources(sources, root / "prefix", through=WARM_THROUGH)
    )
    shutil.rmtree(root / "prefix", ignore_errors=True)
    stream = StreamEstimator(
        internet, DeltaJournal(root / "journal"),
        options=PipelineOptions(), store=open_store(root / "store"),
    )

    def warm():
        stream.ingest(limit=prefix)
        closeable = stream.closeable_windows()
        for window in closeable:
            stream.close(window)
        stream.snapshot()
        return closeable

    closed = outcome.attempt(warm, ops=len(windows()) - 1)
    outcome.check(
        closed is not None and len(closed) == len(windows()) - 1,
        "warm stream did not close the coverable windows",
    )
    outcome.failed += degraded_records(stream.report)
    return internet, sources, root / "journal", root / "store", len(journal) - prefix


def resume_and_advance(internet, journal_dir: Path, store_dir: Path,
                       store=None):
    """What ``repro stream advance`` does in a fresh process.

    Returns ``(stream, records_ingested, results, (resume_s, ingest_s,
    advance_s))``.
    """
    from repro.engine import open_store
    from repro.engine.stages import PipelineOptions
    from repro.stream import DeltaJournal, StreamEstimator

    t0 = perf_counter()
    stream = StreamEstimator.resume(
        internet, DeltaJournal(journal_dir), options=PipelineOptions(),
        store=store if store is not None else open_store(store_dir),
    )
    t1 = perf_counter()
    records = stream.ingest()
    t2 = perf_counter()
    results = stream.advance()
    t3 = perf_counter()
    return stream, records, results, (t1 - t0, t2 - t1, t3 - t2)


def stream_advance(seed: int, seconds: float, tmp: Path) -> Outcome:
    """Resume a snapshotted stream, ingest one quarter, advance.

    Every sample resumes from a fresh copy of its round's snapshot
    store, so each starts from the same state (an advance writes fit
    memos).  The run is ``SETUPS`` rounds of set-up followed by a share
    of the measuring time.  A batch sweep at the end checks the
    stream's 11 results.
    """
    outcome = Outcome()
    timings = Timings()
    reference = None
    for n in range(SETUPS):
        gc.collect()
        root = tmp / f"stream-{n}"
        timings.probe.mark()
        start = perf_counter()
        internet, sources, journal_dir, template, tail = stream_warm_state(
            seed, root, outcome
        )
        timings.add(setups=[perf_counter() - start])
        gc.collect()
        deadline = perf_counter() + seconds / SETUPS
        while True:
            store_dir = root / "sample"
            shutil.rmtree(store_dir, ignore_errors=True)
            shutil.copytree(template, store_dir)
            timings.probe.mark()
            start = perf_counter()
            done = outcome.attempt(
                lambda: resume_and_advance(internet, journal_dir, store_dir),
                ops=len(windows()),
            )
            timings.add(sweeps=[perf_counter() - start])
            if done is not None:
                stream, records, results, _ = done
                outcome.failed += degraded_records(stream.report)
                outcome.check(
                    records == tail, f"ingested {records} of {tail} records"
                )
                if reference is None:
                    reference = results
                outcome.check(
                    estimates(results) == estimates(reference),
                    "advances of one seed disagree",
                )
                _ledger_queries(outcome, results, seed, root / "ledger", timings)
            if perf_counter() >= deadline:
                break
        shutil.rmtree(root, ignore_errors=True)
    outcome.table["stream_batch_gap"] = batch_gap(
        internet, sources, reference, outcome
    )
    outcome.table["advance_s"] = median(timings.sweeps)
    if reference is not None:
        outcome.table["sweep_rel_err_max"] = rel_err_max(reference)
    return _finish(outcome, timings)


def batch_gap(internet, sources, stream_results, outcome: Outcome) -> float:
    """Largest relative gap between stream and batch estimates.

    Runs a batch sweep of the 11 windows over the same world and checks
    the gap against ``STREAM_RTOL``; a missing result reads ``inf``.
    """
    from repro.engine import Executor

    batch = Executor(internet, sources)
    batch_results = outcome.attempt(
        lambda: batch.run_windows(windows(), workers=1), ops=len(windows())
    )
    gap = float("inf")
    if stream_results is not None and batch_results is not None:
        pairs = list(zip(estimates(stream_results), estimates(batch_results)))
        if len(pairs) == len(windows()) and all(a[:2] == b[:2] for a, b in pairs):
            gap = max(
                abs(x - y) / abs(y)
                for a, b in pairs
                for x, y in zip(a[2:], b[2:])
            )
    outcome.check(
        gap <= STREAM_RTOL,
        f"stream results differ from a batch sweep by {gap:.3g} "
        f"(tolerance {STREAM_RTOL:g})",
    )
    return gap


WORKLOADS = {
    "sweep_cold": sweep_cold,
    "serve_warm": serve_warm,
    "stream_advance": stream_advance,
}
