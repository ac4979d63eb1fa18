"""The engine executor: cache-checked stage resolution and fan-out.

:class:`Executor` owns the shared state of a run (Internet, sources,
options), resolves stage requests through the unified
:class:`~repro.engine.artifacts.ArtifactCache`, and records one
:class:`~repro.engine.report.StageRecord` per resolution.  Independent
work fans out across workers:

* **windows** (and anything else shipping the whole simulator) run on a
  ``ProcessPoolExecutor`` whose workers rebuild an executor once from a
  pickled payload;
* **cross-validation folds** and other dataset-level tasks use the
  generic :func:`fan_out` process-pool helper.

Fault tolerance: every stage resolution and every pool task runs under
an :class:`ExecutionPolicy` — bounded retries with exponential backoff
and deterministic jitter, per-task wall-clock timeouts, and
``BrokenProcessPool`` recovery (the pool is respawned, unfinished
tasks are requeued, and a task that kills workers
``pool_kill_limit`` times is pulled back into the parent process and
run serially).  A task that exhausts its retries is *degraded* — it is
recorded in the :class:`~repro.engine.report.RunReport` and dropped
from the results instead of aborting the run — unless
``policy.degrade`` is off, in which case the last error is re-raised.

Determinism contract: every stage draws randomness only from seeds
derived with stable digests of (options.seed, task identity), so a
parallel run is bit-identical to a serial run with the same seed —
including under injected faults, because retries re-execute the same
pure stage functions.  Results are always collected in submission
order, never completion order.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.core import fitkernel
from repro.core.stratified import StratifiedEstimate, stratified_estimate
from repro.engine.artifacts import MISS, ArtifactCache, ArtifactKey, artifact_nbytes
from repro.engine.faults import FaultInjector, backoff_seconds
from repro.engine.report import RunReport, StageRecord
from repro.engine.store import ArtifactStore, open_store
from repro.obs.observer import Observer, ObserverDelta
from repro.engine.stages import (
    STAGES,
    PipelineOptions,
    RunContext,
    WindowResult,
    _fit_distribution,
)
from repro.ipspace.ipset import IPSet
from repro.simnet.internet import SyntheticInternet
from repro.sources.base import MeasurementSource

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.analysis.__init__ imports
    # modules that import the engine, so a module-level import here
    # would be circular.
    from repro.analysis.windows import TimeWindow


def _worker_tag() -> str:
    return f"pid{os.getpid()}"


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the executor treats failing, hanging or worker-killing tasks.

    The policy never changes *what* a run computes — stages are pure,
    so a retried task converges to the same artifact — only whether a
    partial failure takes the whole run down with it.
    """

    #: Extra attempts after the first, per stage resolution / pool task.
    retries: int = 1
    #: First backoff sleep in seconds (doubles per attempt, capped).
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: Jitter fraction on top of the backoff (deterministic, seeded).
    jitter: float = 0.25
    #: Wall-clock seconds to wait on a pool task before declaring it
    #: hung, killing the pool and retrying.  ``None`` waits forever.
    task_timeout: float | None = None
    #: Worker deaths attributed to one task before it is pulled out of
    #: the pool and run serially in the parent process.
    pool_kill_limit: int = 2
    serial_fallback: bool = True
    #: Record-and-drop tasks that exhaust their retries instead of
    #: re-raising (the surviving tasks still produce their estimates).
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ValueError(
                f"task_timeout must be > 0 (or None), got {self.task_timeout}"
            )


@dataclass
class _TaskOutcome:
    """Terminal state of one resilient pool task."""

    payload: Any = None
    status: str = "degraded"
    attempts: int = 0
    error: str | None = None
    seconds: float = 0.0


def _shutdown_pool(pool: ProcessPoolExecutor, nuke: bool) -> None:
    """Close a pool; with ``nuke``, terminate its worker processes.

    ``nuke`` is for hung or broken pools: a worker stuck in a fit
    would otherwise block ``shutdown`` forever.  Reaching into
    ``_processes`` is the standard (if private) escape hatch.
    """
    if nuke:
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
    pool.shutdown(wait=not nuke, cancel_futures=True)


def _resilient_pool_map(
    tasks: Sequence[Any],
    *,
    stage: str,
    workers: int,
    make_pool: Callable[[int], ProcessPoolExecutor],
    submit: Callable[[ProcessPoolExecutor, int, int, Any], Any],
    serial_run: Callable[[int, int, Any], Any],
    policy: ExecutionPolicy,
    seed: int,
) -> list[_TaskOutcome]:
    """Run tasks on a process pool, surviving crashes, hangs and kills.

    Tasks are submitted in order and collected in order.  A task that
    raises is retried (with backoff) up to ``policy.retries`` times; a
    task whose worker dies breaks the pool, so the pool is rebuilt and
    every unfinished task requeued — completed futures are harvested
    first, and only the task being waited on is charged the failure.
    A task charged ``pool_kill_limit`` worker deaths runs serially in
    the parent via ``serial_run``.  Exhausted tasks degrade (or
    re-raise when ``policy.degrade`` is off).
    """
    n = len(tasks)
    outcomes: list[_TaskOutcome | None] = [None] * n
    attempts = [0] * n
    kills = [0] * n
    forced_serial = [False] * n
    errors: list[str | None] = [None] * n
    last_exc: list[BaseException | None] = [None] * n
    pending = list(range(n))
    pool: ProcessPoolExecutor | None = None

    def close_pool(nuke: bool = False) -> None:
        nonlocal pool
        if pool is not None:
            _shutdown_pool(pool, nuke=nuke)
            pool = None

    def fail(i: int, exc: BaseException, started: float) -> bool:
        """Charge one failed attempt; True if the task should retry."""
        attempts[i] += 1
        errors[i] = _describe(exc)
        last_exc[i] = exc
        if attempts[i] <= policy.retries or (
            forced_serial[i] and attempts[i] <= policy.retries + 1
        ):
            return True
        if not policy.degrade:
            close_pool(nuke=True)
            raise exc
        outcomes[i] = _TaskOutcome(
            status="degraded",
            attempts=attempts[i],
            error=errors[i],
            seconds=perf_counter() - started,
        )
        return False

    def succeed(i: int, payload: Any, started: float) -> None:
        outcomes[i] = _TaskOutcome(
            payload=payload,
            status="retried" if attempts[i] else "ok",
            attempts=attempts[i] + 1,
            error=errors[i],
            seconds=perf_counter() - started,
        )

    try:
        while pending:
            sleep_for = 0.0
            next_pending: list[int] = []
            parallel = [i for i in pending if not forced_serial[i]]
            for i in (i for i in pending if forced_serial[i]):
                started = perf_counter()
                try:
                    payload = serial_run(i, attempts[i], tasks[i])
                except Exception as exc:
                    if fail(i, exc, started):
                        next_pending.append(i)
                        sleep_for = max(
                            sleep_for,
                            backoff_seconds(
                                policy.backoff_base, policy.backoff_max,
                                policy.jitter, seed, stage, i, attempts[i],
                            ),
                        )
                else:
                    succeed(i, payload, started)
            if parallel:
                if pool is None:
                    pool = make_pool(min(workers, len(parallel)))
                futures = {
                    i: submit(pool, i, attempts[i], tasks[i]) for i in parallel
                }
                broken = False
                for i in parallel:
                    future = futures[i]
                    if broken:
                        # The pool just died under us: keep results that
                        # finished before the breakage, requeue the rest
                        # without charging them an attempt.
                        if future.done():
                            try:
                                payload = future.result()
                            except (BrokenProcessPool, CancelledError):
                                next_pending.append(i)
                            except Exception as exc:
                                if fail(i, exc, perf_counter()):
                                    next_pending.append(i)
                            else:
                                succeed(i, payload, perf_counter())
                        else:
                            future.cancel()
                            next_pending.append(i)
                        continue
                    started = perf_counter()
                    try:
                        payload = future.result(timeout=policy.task_timeout)
                    except (FutureTimeoutError, TimeoutError) as exc:
                        hung = TimeoutError(
                            f"task exceeded {policy.task_timeout}s wall clock"
                        )
                        hung.__cause__ = exc
                        broken = True
                        close_pool(nuke=True)
                        if fail(i, hung, started):
                            next_pending.append(i)
                    except BrokenProcessPool as exc:
                        kills[i] += 1
                        broken = True
                        close_pool(nuke=True)
                        if (
                            policy.serial_fallback
                            and kills[i] >= policy.pool_kill_limit
                        ):
                            forced_serial[i] = True
                        if fail(i, exc, started):
                            next_pending.append(i)
                    except Exception as exc:
                        if fail(i, exc, started):
                            next_pending.append(i)
                            sleep_for = max(
                                sleep_for,
                                backoff_seconds(
                                    policy.backoff_base, policy.backoff_max,
                                    policy.jitter, seed, stage, i, attempts[i],
                                ),
                            )
                    else:
                        succeed(i, payload, started)
            pending = next_pending
            if pending and sleep_for > 0.0:
                time.sleep(sleep_for)
    finally:
        close_pool()
    return [o if o is not None else _TaskOutcome() for o in outcomes]


class Executor:
    """Resolves stage graphs over one simulated Internet."""

    def __init__(
        self,
        internet: SyntheticInternet,
        sources: Mapping[str, MeasurementSource] | None = None,
        options: PipelineOptions | None = None,
        *,
        cache: "ArtifactCache | ArtifactStore | None" = None,
        report: RunReport | None = None,
        policy: ExecutionPolicy | None = None,
        faults: FaultInjector | None = None,
        observer: Observer | None = None,
    ) -> None:
        from repro.sources.catalog import build_standard_sources

        self.internet = internet
        self.options = options or PipelineOptions()
        self.sources: dict[str, MeasurementSource] = dict(
            sources if sources is not None else build_standard_sources(internet)
        )
        for name in self.options.exclude_sources:
            self.sources.pop(name, None)
        self.policy = policy or ExecutionPolicy()
        self.faults = faults
        self.observer = observer if observer is not None else Observer.disabled()
        # `is not None`, not `or`: an empty cache/report is falsy.
        self.cache = cache if cache is not None else ArtifactCache()
        self.report = report if report is not None else RunReport()
        # A persistent store nobody gave an observer reports its corrupt
        # entries to this run's (a bare memory cache has no events).
        if hasattr(self.cache, "observer") and self.cache.observer is None:
            self.cache.observer = self.observer
        # Always set — including to None: a store-less executor must not
        # inherit the persistent warm-start store of a previous one.
        fitkernel.set_warm_store(getattr(self.cache, "fitmemo", None))
        self.context = RunContext(self)
        #: Per-stage resolution counter: the task index stage-level
        #: faults key on (counts cache misses, stable under retries).
        self._stage_sequence: dict[str, int] = {}
        self._fire_stage_faults = True
        #: Per-thread accumulator of the stage resolution in progress:
        #: the output bytes of the resolutions it makes (see
        #: :meth:`_collect_inputs`).
        self._inputs = threading.local()

    @contextmanager
    def _stage_faults_suppressed(self):
        """Silence stage-level fault firing (serial-fallback reruns)."""
        previous = self._fire_stage_faults
        self._fire_stage_faults = False
        try:
            yield
        finally:
            self._fire_stage_faults = previous

    # -- stage resolution -------------------------------------------------

    @contextmanager
    def _collect_inputs(self):
        """Sum the output bytes of the stage resolutions made inside.

        Every :meth:`run` adds its artifact's size to the innermost open
        accumulator of its thread, so a stage's ``input_bytes`` counts
        exactly its direct dependency resolutions — with their real
        params — without touching the store.
        """
        caller = getattr(self._inputs, "acc", None)
        acc = self._inputs.acc = [0]
        try:
            yield acc
        finally:
            self._inputs.acc = caller

    def _resolved(self, nbytes: int) -> int:
        """Credit a resolution's output bytes to the resolving caller."""
        acc = getattr(self._inputs, "acc", None)
        if acc is not None:
            acc[0] += nbytes
        return nbytes

    def key_for(
        self, stage: str, window: TimeWindow | None, **params: Any
    ) -> ArtifactKey:
        """The artifact key a stage request resolves to."""
        bounds = (window.start, window.end) if window is not None else ()
        return ArtifactKey(
            stage=stage,
            params=(bounds, tuple(sorted(params.items())), self.options),
        )

    def run(self, stage: str, window: TimeWindow | None = None, **params: Any) -> Any:
        """Resolve one stage through the cache, recording instrumentation.

        A stage function that raises is retried ``policy.retries``
        times with backoff (stages are pure, so a retry is safe); the
        exhausted failure is recorded as ``failed`` and re-raised for
        the surrounding sweep to degrade or propagate.
        """
        # The kernel's warm store is process-wide and a different
        # Executor (e.g. a streaming one) may have installed its own
        # since this one was constructed; re-assert ours so interleaved
        # executors never seed each other's fits.
        fitkernel.set_warm_store(getattr(self.cache, "fitmemo", None))
        spec = STAGES[stage]
        key = self.key_for(stage, window, **params)
        # Non-cacheable stages (e.g. the fit_batch plan, whose per-level
        # selections already persist under `fit`) stay in the run's
        # memory tier: they never land in the persistent store.
        cache = (
            self.cache
            if spec.cacheable
            else getattr(self.cache, "memory", self.cache)
        )
        start = perf_counter()
        value = cache.get(key)
        if value is not MISS:
            self.report.record(
                StageRecord(
                    stage=stage,
                    key=key.token(),
                    seconds=perf_counter() - start,
                    cache_hit=True,
                    output_bytes=self._resolved(artifact_nbytes(value)),
                    worker=_worker_tag(),
                    tier=getattr(cache, "last_hit_tier", None),
                )
            )
            return value
        index = self._stage_sequence.get(stage, 0)
        self._stage_sequence[stage] = index + 1
        attempt = 0
        with self.observer.span(f"stage:{stage}", stage=stage, key=key.token()) as span:
            while True:
                records_before = len(self.report.records)
                fit_before = fitkernel.snapshot()
                try:
                    if self.faults is not None and self._fire_stage_faults:
                        self.faults.fire(stage, index, attempt)
                    with self._collect_inputs() as inputs:
                        value = spec.fn(self.context, window, **params)
                    break
                except Exception as exc:
                    attempt += 1
                    if not spec.retryable or attempt > self.policy.retries:
                        self.report.record(
                            StageRecord(
                                stage=stage,
                                key=key.token(),
                                seconds=perf_counter() - start,
                                cache_hit=False,
                                worker=_worker_tag(),
                                status="failed",
                                attempts=attempt,
                                error=_describe(exc),
                            )
                        )
                        raise
                    time.sleep(
                        backoff_seconds(
                            self.policy.backoff_base, self.policy.backoff_max,
                            self.policy.jitter, self.options.seed,
                            stage, index, attempt,
                        )
                    )
            fit_delta = fitkernel.snapshot() - fit_before
            # Keep the delta exclusive: nested stage resolutions already
            # recorded their own fit work (wall seconds stay cumulative,
            # matching profiler convention, but counters must sum to the
            # process totals).
            for nested in self.report.records[records_before:]:
                if nested.fit is not None:
                    fit_delta = fit_delta - nested.fit
            cache.put(key, value)
            span.set(attempts=attempt + 1)
            if fit_delta:
                span.set(fits=fit_delta.fits, irls_iterations=fit_delta.irls_iterations)
        self.report.record(
            StageRecord(
                stage=stage,
                key=key.token(),
                seconds=perf_counter() - start,
                cache_hit=False,
                input_bytes=inputs[0],
                output_bytes=self._resolved(artifact_nbytes(value)),
                worker=_worker_tag(),
                fit=fit_delta or None,
                status="retried" if attempt else "ok",
                attempts=attempt + 1,
            )
        )
        return value

    # -- convenience views ------------------------------------------------

    def datasets(
        self, window: TimeWindow, spoof_filtering: bool | None = None
    ) -> dict[str, IPSet]:
        """Preprocessed (and optionally spoof-filtered) window datasets."""
        if spoof_filtering is None:
            spoof_filtering = self.options.spoof_filtering
        return self.run("spoof_filter" if spoof_filtering else "preprocess", window)

    def window_result(self, window: TimeWindow) -> WindowResult:
        """Full observed/estimated/truth bundle for one window."""
        return self.run("window_result", window)

    def window_health(self, window: TimeWindow):
        """Per-source integrity verdicts for one window.

        Resolves the ``source_health`` stage (a
        :class:`~repro.integrity.health.SourceHealthReport`) whatever
        the configured policy — with quarantining disabled the report
        simply carries all-``ok`` verdicts.
        """
        return self.run("source_health", window)

    def analysis_datasets(self, window: TimeWindow) -> dict[str, IPSet]:
        """The window's datasets as the estimation stages see them.

        :meth:`datasets` minus any quarantined sources — the view a
        refit (and anything aligned with it, e.g. cross-validation
        folds) must use so excluded sources stay excluded everywhere.
        """
        datasets = self.datasets(window)
        policy = self.options.quarantine
        if not policy.enabled or len(datasets) < 2:
            return datasets
        quarantined = self.window_health(window).quarantined
        if not quarantined:
            return datasets
        return {
            name: d for name, d in datasets.items()
            if name not in quarantined
        }

    # -- parallel fan-out -------------------------------------------------

    def run_windows(
        self,
        windows: "Sequence[TimeWindow] | None" = None,
        workers: int = 1,
    ) -> list[WindowResult]:
        """Run every window, fanning out across a process pool.

        With ``workers > 1`` each worker process rebuilds this executor
        from a pickled (internet, sources, options) payload once, then
        computes whole windows.  Results come back in window order and
        are inserted into this executor's cache, and the workers' stage
        records are merged into :attr:`report` — so a parallel sweep
        leaves the parent in the same queryable state as a serial one.

        Under the executor's :class:`ExecutionPolicy` a window whose
        task crashes, hangs past ``task_timeout`` or kills its worker
        is retried (respawning the pool when needed, falling back to
        in-parent serial execution for repeat worker-killers); a window
        that exhausts its retries is recorded as ``degraded`` in the
        report and omitted from the returned list, so every surviving
        window still gets its estimate.
        """
        from repro.analysis.windows import standard_windows

        if workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {workers} "
                "(an empty pool would make no progress)"
            )
        windows = list(windows) if windows is not None else standard_windows()
        with self.observer.span(
            "sweep:windows", windows=len(windows), workers=workers
        ):
            return self._run_windows(windows, workers)

    def _run_windows(
        self, windows: "Sequence[TimeWindow]", workers: int
    ) -> list[WindowResult]:
        pending = [
            w for w in windows if self.key_for("window_result", w) not in self.cache
        ]
        if workers <= 1 or len(pending) <= 1:
            out = []
            for w in windows:
                try:
                    out.append(self.window_result(w))
                except Exception as exc:
                    if not self.policy.degrade:
                        raise
                    self.report.record(
                        StageRecord(
                            stage="window_result",
                            key=self.key_for("window_result", w).token(),
                            seconds=0.0,
                            cache_hit=False,
                            worker=_worker_tag(),
                            status="degraded",
                            attempts=self.policy.retries + 1,
                            error=_describe(exc),
                        )
                    )
            return out
        # Ship the store spec so workers share the persistent tier:
        # a window computed by one worker is a store hit for every
        # other worker (and for the next run).
        store_spec = (
            self.cache.spec() if hasattr(self.cache, "spec") else None
        )
        # Publish the big read-only payload (internet + sources) once
        # through shared memory; each worker attaches instead of
        # receiving its own pickled copy through the pool pipe.
        shipment = publish_payload(
            (self.internet, self.sources, self.options, self.faults,
             self.observer.enabled, store_spec),
            observer=self.observer,
        )

        def make_pool(n: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=n,
                initializer=_window_worker_init,
                initargs=(shipment.spec,),
            )

        def submit(pool, index, attempt, window):
            return pool.submit(
                _window_worker_run, ((window.start, window.end), index, attempt)
            )

        def serial_run(index, attempt, window):
            # Runs in the parent: spans land on self.observer directly,
            # so no delta ships back (the third slot stays None).
            if self.faults is not None:
                self.faults.fire("window_result", index, attempt)
            with self._stage_faults_suppressed():
                return self.window_result(window), None, None

        try:
            outcomes = _resilient_pool_map(
                pending,
                stage="window_result",
                workers=workers,
                make_pool=make_pool,
                submit=submit,
                serial_run=serial_run,
                policy=self.policy,
                seed=self.options.seed,
            )
        finally:
            # The segment outlives every pool respawn (killed workers
            # requeue onto fresh pools that re-attach it) and is
            # unlinked exactly once, here.
            shipment.dispose()
        computed: dict[TimeWindow, WindowResult] = {}
        for window, outcome in zip(pending, outcomes):
            key = self.key_for("window_result", window)
            if outcome.status == "degraded":
                self.report.record(
                    StageRecord(
                        stage="window_result",
                        key=key.token(),
                        seconds=outcome.seconds,
                        cache_hit=False,
                        worker="pool",
                        status="degraded",
                        attempts=outcome.attempts,
                        error=outcome.error,
                    )
                )
                continue
            result, records, obs_delta = outcome.payload
            if records:
                self.report.merge(RunReport(records=records))
            # Absorb telemetry only from the accepted outcome: a killed
            # and requeued attempt never ships a delta, so task spans
            # are counted exactly once.
            self.observer.absorb(obs_delta)
            self.cache.put(key, result)
            computed[window] = result
            if outcome.status == "retried":
                self.report.record(
                    StageRecord(
                        stage="window_result",
                        key=key.token(),
                        seconds=outcome.seconds,
                        cache_hit=False,
                        worker="pool",
                        status="retried",
                        attempts=outcome.attempts,
                        error=outcome.error,
                    )
                )
        # Return the computed objects directly: presence in the cache is
        # not a proxy for success (a tiny budget can evict a fresh
        # WindowResult).
        out = []
        for w in windows:
            if w in computed:
                out.append(computed[w])
            elif self.key_for("window_result", w) in self.cache:
                out.append(self.window_result(w))
        return out

    def stratified(
        self, window: TimeWindow, kind: str, level: str = "addresses"
    ) -> StratifiedEstimate:
        """Per-stratum estimates summed to a total (Table 5).

        ``kind`` is a registry stratification (``"rir"``,
        ``"country"``, ``"prefix"``, ``"age"``, ``"industry"``) or
        ``"dynamic"`` for the static/dynamic split.  Each stratum is
        truncated at its routed size (in /24 blocks at the ``"subnets"``
        level), a dynamic stratum at the whole window's.  The strata
        are batched through one stepwise search.
        """
        if level not in ("addresses", "subnets"):
            raise ValueError(f"level must be 'addresses' or 'subnets', got {level!r}")
        subnets = level == "subnets"
        routing = self.internet.routing
        if kind == "dynamic":
            labeler = self.internet.population.dynamic_labeler()
            # No per-stratum sizes: both strata take the whole total.
            sizes: dict[Hashable, float] = {}
            total = (
                routing.subnet24_count(window.start, window.end)
                if subnets
                else routing.size(window.start, window.end)
            )
        else:
            labeler = self.internet.registry.labeler(kind)
            sizes = routing.stratum_sizes(window.start, window.end, kind, subnets)
            total = sum(sizes.values())
        datasets = self.datasets(window)
        if subnets:
            datasets = {name: d.subnets24() for name, d in datasets.items()}
        opts = self.options
        start = perf_counter()
        fit_before = fitkernel.snapshot()
        with self.observer.span(
            f"stage:stratified[{level}]", level=level
        ) as span:
            result = stratified_estimate(
                datasets,
                labeler,
                min_observed=opts.min_stratum_observed,
                criterion=opts.criterion,
                divisor=opts.divisor,
                distribution=_fit_distribution(opts, total),
                limit_per_stratum=lambda label: sizes.get(label, total),
                max_order=opts.max_order,
            )
            span.set(strata=len(result.strata))
        fit_delta = fitkernel.snapshot() - fit_before
        self.report.record(
            StageRecord(
                stage=f"stratified[{level}]",
                key=f"stratified-{window.start}-{window.end}",
                seconds=perf_counter() - start,
                cache_hit=False,
                input_bytes=artifact_nbytes(datasets),
                output_bytes=len(result.strata),
                worker=_worker_tag(),
                fit=fit_delta or None,
            )
        )
        return result


# -- shared-memory payload transport ----------------------------------------

#: Ledger counter names for the pool transport (see publish_payload).
POOL_PAYLOAD_METRIC = "pool_payload_bytes_total"
POOL_SHM_METRIC = "pool_shm_bytes_total"

#: Shared-memory segments this process has published and not yet
#: disposed, by name.  Cleanup tests assert this drains back to empty
#: after every sweep — including sweeps whose workers were killed.
_ACTIVE_SEGMENTS: dict[str, Any] = {}

#: Segments this *worker* process has attached: kept referenced so the
#: mappings (and every array view into them) stay valid for the worker's
#: lifetime.  The parent owns unlinking.
_WORKER_SEGMENTS: list = []


class _PayloadShipment:
    """A published worker payload: a tiny picklable spec plus the owned
    shared-memory segment it points at (``None`` on the fallback path).

    The parent keeps the shipment alive for as long as its pool may
    spawn workers — segments survive pool respawns after worker kills —
    and calls :meth:`dispose` exactly once when the fan-out returns.
    """

    __slots__ = ("spec", "_segment")

    def __init__(self, spec: dict, segment) -> None:
        self.spec = spec
        self._segment = segment

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        _ACTIVE_SEGMENTS.pop(segment.name, None)
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


def _record_payload_metrics(
    observer: Observer | None, inline_bytes: int, shm_bytes: int
) -> None:
    """Count transport bytes on the global registry and the run observer.

    The run ledger (``metrics.json``) is built from the observer's
    registry, so the counters must land there to be visible in
    ``repro report``; the global registry keeps a process-wide record
    reachable from tests and benchmarks.
    """
    from repro.obs.metrics import get_global_metrics

    deltas = {}
    if inline_bytes:
        deltas[POOL_PAYLOAD_METRIC] = float(inline_bytes)
    if shm_bytes:
        deltas[POOL_SHM_METRIC] = float(shm_bytes)
    if not deltas:
        return
    get_global_metrics().inc_many(deltas)
    if observer is not None:
        for name, value in deltas.items():
            observer.inc(name, value)


def publish_payload(obj: Any, observer: Observer | None = None) -> _PayloadShipment:
    """Serialise a worker payload into a shared-memory segment.

    The payload is pickled with protocol 5, diverting every picklable
    buffer (IPSet membership arrays, population arrays, contingency
    counts) out of band; pickle bytes and raw buffers land side by side
    in one ``multiprocessing.shared_memory`` segment published once per
    fan-out.  Workers then attach and rebuild the payload zero-copy —
    each array maps the segment read-only instead of receiving a
    per-worker pickled copy through the pool pipe, so only the
    few-hundred-byte spec still travels per worker.

    Any failure (no /dev/shm, exotic unpicklable-by-protocol-5 payloads)
    falls back to shipping the classic inline pickle via the same spec,
    so callers never branch.  Byte counts are recorded on the
    ``pool_payload_bytes_total`` (inline pickled bytes) and
    ``pool_shm_bytes_total`` (bytes published via shared memory)
    counters either way.
    """
    try:
        import numpy as np
        from multiprocessing import shared_memory

        buffers: list = []
        data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [b.raw() for b in buffers]
        sizes = tuple(int(r.nbytes) for r in raws)
        total = len(data) + sum(sizes)
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            view = np.frombuffer(segment.buf, dtype=np.uint8)
            view[: len(data)] = np.frombuffer(data, dtype=np.uint8)
            offset = len(data)
            for raw, size in zip(raws, sizes):
                if size:
                    view[offset : offset + size] = np.frombuffer(
                        raw.cast("B"), dtype=np.uint8
                    )
                offset += size
        except Exception:
            del view  # release the exported buffer before closing
            segment.close()
            segment.unlink()
            raise
        finally:
            view = None
        spec = {"shm": segment.name, "head": len(data), "sizes": sizes}
        _ACTIVE_SEGMENTS[segment.name] = segment
        _record_payload_metrics(
            observer, inline_bytes=len(pickle.dumps(spec)), shm_bytes=total
        )
        return _PayloadShipment(spec, segment)
    except Exception:
        data = pickle.dumps(obj)
        _record_payload_metrics(observer, inline_bytes=len(data), shm_bytes=0)
        return _PayloadShipment({"data": data}, None)


def load_payload(spec: dict) -> Any:
    """Worker-side inverse of :func:`publish_payload`.

    Attaches the named segment and rebuilds the payload with the pickle
    buffers pointing at read-only slices of the mapping — arrays come
    back non-writeable, so a worker can never mutate state shared with
    its siblings.  The segment stays referenced for the process
    lifetime; the publishing parent owns unlinking.
    """
    data = spec.get("data")
    if data is not None:
        return pickle.loads(data)
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=spec["shm"])
    _WORKER_SEGMENTS.append(segment)
    view = memoryview(segment.buf)
    head = spec["head"]
    buffers = []
    offset = head
    for size in spec["sizes"]:
        buffers.append(view[offset : offset + size].toreadonly())
        offset += size
    return pickle.loads(view[:head], buffers=buffers)


# -- process-pool plumbing --------------------------------------------------

#: Worker-process executor and injector, built once by the initializer.
_WORKER_EXECUTOR: Executor | None = None
_WORKER_FAULTS: FaultInjector | None = None


def _window_worker_init(payload: dict) -> None:
    global _WORKER_EXECUTOR, _WORKER_FAULTS
    internet, sources, options, faults, observe, store_spec = load_payload(
        payload
    )
    # The worker executor itself carries no injector: task-level faults
    # are fired by the wrapper below, keyed by sweep task index, which
    # stays deterministic however tasks land on workers.
    cache = open_store(**store_spec) if store_spec is not None else None
    _WORKER_EXECUTOR = Executor(
        internet, sources, options,
        cache=cache,
        observer=Observer() if observe else None,
    )
    _WORKER_FAULTS = faults


def _window_worker_run(
    job: tuple[tuple[float, float], int, int]
) -> tuple[WindowResult, list, ObserverDelta | None]:
    from repro.analysis.windows import TimeWindow

    bounds, index, attempt = job
    assert _WORKER_EXECUTOR is not None, "worker initializer did not run"
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.fire("window_result", index, attempt)
    observer = _WORKER_EXECUTOR.observer
    mark = observer.delta_mark()
    before = len(_WORKER_EXECUTOR.report.records)
    result = _WORKER_EXECUTOR.window_result(TimeWindow(*bounds))
    records = _WORKER_EXECUTOR.report.records[before:]
    return result, records, observer.collect_delta(mark)


#: Generic fold-task payload/function/injector, one tuple per worker.
_TASK_STATE: tuple[
    Any, Callable[[Any, Any], Any], FaultInjector | None, str, bool
] | None = None
#: Worker-process observer for fold tasks (enabled iff the parent's is).
_TASK_OBSERVER: Observer | None = None


def _task_worker_init(spec: dict) -> None:
    global _TASK_STATE, _TASK_OBSERVER
    _TASK_STATE = load_payload(spec)
    _TASK_OBSERVER = Observer() if _TASK_STATE[4] else Observer.disabled()


def _task_worker_run(
    job: tuple[int, int, Any]
) -> tuple[Any, float, Any, ObserverDelta | None]:
    index, attempt, item = job
    assert _TASK_STATE is not None, "worker initializer did not run"
    payload, func, faults, stage, _ = _TASK_STATE
    observer = _TASK_OBSERVER if _TASK_OBSERVER is not None else Observer.disabled()
    start = perf_counter()
    if faults is not None:
        faults.fire(stage, index, attempt)
    fit_before = fitkernel.snapshot()
    mark = observer.delta_mark()
    with observer.span(f"task:{stage}", stage=stage, index=index):
        value = func(payload, item)
    fit_delta = fitkernel.snapshot() - fit_before
    return (
        value,
        perf_counter() - start,
        fit_delta or None,
        observer.collect_delta(mark),
    )


def fan_out(
    payload: Any,
    func: Callable[[Any, Any], Any],
    items: Iterable[Any],
    workers: int = 1,
    report: RunReport | None = None,
    stage: str = "task",
    policy: ExecutionPolicy | None = None,
    faults: FaultInjector | None = None,
    seed: int = 0,
    observer: Observer | None = None,
) -> list[Any]:
    """Run ``func(payload, item)`` per item, optionally across processes.

    The generic fold fan-out used by cross-validation, the selection
    sweep and the sensitivity analysis: ``payload`` (e.g. the window's
    dataset mapping) ships to each worker once via the pool
    initializer; ``func`` must be a picklable module-level callable (or
    :func:`functools.partial` of one).  Results return in ``items``
    order regardless of completion order, and each task contributes one
    record to ``report``.

    Failures follow ``policy``: tasks retry with backoff, hung tasks
    time out (the pool is respawned), worker-killing tasks requeue and
    eventually fall back to serial in-parent execution, and a task that
    exhausts its retries yields ``None`` in the result list with a
    ``degraded`` record — callers recompute their aggregate from the
    surviving tasks.
    """
    if workers < 1:
        raise ValueError(
            f"workers must be >= 1, got {workers} "
            "(an empty pool would make no progress)"
        )
    policy = policy or ExecutionPolicy()
    obs = observer if observer is not None else Observer.disabled()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        out = []
        for index, item in enumerate(items):
            start = perf_counter()
            attempt = 0
            error = None
            value = None
            status = "ok"
            fit_delta = None
            while True:
                fit_before = fitkernel.snapshot()
                try:
                    if faults is not None:
                        faults.fire(stage, index, attempt)
                    with obs.span(f"task:{stage}", stage=stage, index=index):
                        value = func(payload, item)
                    fit_delta = fitkernel.snapshot() - fit_before
                    status = "retried" if attempt else "ok"
                    attempt += 1
                    break
                except Exception as exc:
                    attempt += 1
                    error = _describe(exc)
                    if attempt > policy.retries:
                        if not policy.degrade:
                            raise
                        status = "degraded"
                        break
                    time.sleep(
                        backoff_seconds(
                            policy.backoff_base, policy.backoff_max,
                            policy.jitter, seed, stage, index, attempt,
                        )
                    )
            if report is not None:
                report.record(
                    StageRecord(
                        stage=stage,
                        key=repr(item),
                        seconds=perf_counter() - start,
                        cache_hit=False,
                        worker=_worker_tag(),
                        fit=fit_delta or None,
                        status=status,
                        attempts=attempt,
                        error=error,
                    )
                )
            out.append(value if status != "degraded" else None)
        return out
    shipment = publish_payload(
        (payload, func, faults, stage, obs.enabled),
        observer=observer,
    )

    def make_pool(n: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=n,
            initializer=_task_worker_init,
            initargs=(shipment.spec,),
        )

    def submit(pool, index, attempt, item):
        return pool.submit(_task_worker_run, (index, attempt, item))

    def serial_run(index, attempt, item):
        # Runs in the parent: the span lands on `obs` directly, so the
        # delta slot stays None (nothing to ship).
        if faults is not None:
            faults.fire(stage, index, attempt)
        start = perf_counter()
        fit_before = fitkernel.snapshot()
        with obs.span(f"task:{stage}", stage=stage, index=index):
            value = func(payload, item)
        fit_delta = fitkernel.snapshot() - fit_before
        return value, perf_counter() - start, fit_delta or None, None

    try:
        outcomes = _resilient_pool_map(
            items,
            stage=stage,
            workers=workers,
            make_pool=make_pool,
            submit=submit,
            serial_run=serial_run,
            policy=policy,
            seed=seed,
        )
    finally:
        shipment.dispose()
    out = []
    for item, outcome in zip(items, outcomes):
        if outcome.status == "degraded":
            out.append(None)
            if report is not None:
                report.record(
                    StageRecord(
                        stage=stage,
                        key=repr(item),
                        seconds=outcome.seconds,
                        cache_hit=False,
                        worker="pool",
                        status="degraded",
                        attempts=outcome.attempts,
                        error=outcome.error,
                    )
                )
            continue
        value, seconds, fit_delta, obs_delta = outcome.payload
        # Only accepted outcomes contribute telemetry: requeued or
        # degraded attempts never reach this branch, so no task span is
        # double-counted or lost.
        obs.absorb(obs_delta)
        out.append(value)
        if report is not None:
            report.record(
                StageRecord(
                    stage=stage,
                    key=repr(item),
                    seconds=seconds,
                    cache_hit=False,
                    worker="pool",
                    fit=fit_delta,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    error=outcome.error,
                )
            )
    return out
