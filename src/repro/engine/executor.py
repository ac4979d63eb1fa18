"""The engine executor: cache-checked stage resolution and one task runner.

:class:`Executor` owns the shared state of a run (Internet, sources,
options), resolves stage requests through the unified
:class:`~repro.engine.artifacts.ArtifactCache`, and records one
:class:`~repro.engine.report.StageRecord` per resolution.  Independent
work — the windows of a sweep, cross-validation folds and drop-one
re-fits (:func:`fan_out`), campaign tasks — runs through one task
runner, :func:`_resilient_pool_map`: in this process for ``workers ==
1``, otherwise on a ``ProcessPoolExecutor`` whose workers rebuild their
state once from a payload published through shared memory.

Fault tolerance: every stage resolution and every runner task runs
under an :class:`ExecutionPolicy` — bounded retries with exponential
backoff and deterministic jitter, per-task wall-clock timeouts, and
``BrokenProcessPool`` recovery (the pool is respawned, unfinished
tasks are requeued, and a task that kills :data:`POOL_KILL_LIMIT`
workers is pulled back into the parent process).  A task that exhausts
its retries is *degraded*: it is recorded in the
:class:`~repro.engine.report.RunReport` and dropped from the results
instead of aborting the run.

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
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.core import fitkernel
from repro.core.fitkernel import FitCounters
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


#: Worker deaths charged to one task before the runner pulls it out of
#: the pool and runs it in the parent process.
POOL_KILL_LIMIT = 2
#: Jitter fraction on top of the retry backoff (deterministic, seeded).
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the executor treats failing, hanging or worker-killing tasks.

    The policy never changes *what* a run computes — stages are pure,
    so a retried task converges to the same artifact — only whether a
    partial failure takes the whole run down with it.  A task that
    exhausts its retries is always degraded (recorded and dropped).
    """

    #: Extra attempts after the first, per stage resolution / runner task.
    retries: int = 1
    #: First backoff sleep in seconds (doubles per attempt, capped).
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: Wall-clock seconds to wait on a pool task before declaring it
    #: hung, killing the pool and retrying.  ``None`` waits forever.
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ValueError(
                f"task_timeout must be > 0 (or None), got {self.task_timeout}"
            )

    def backoff(self, seed: int, stage: str, index: int, attempt: int) -> float:
        """Seconds to sleep before retrying ``attempt`` of one task."""
        return backoff_seconds(
            self.backoff_base, self.backoff_max, BACKOFF_JITTER,
            seed, stage, index, attempt,
        )


@dataclass
class _TaskOutcome:
    """Terminal state of one runner task."""

    value: Any = None
    status: str = "degraded"
    attempts: int = 0
    error: str | None = None
    seconds: float = 0.0
    #: Fit-kernel delta of the accepted attempt.
    fit: FitCounters | None = None
    #: Stage records and telemetry a pool worker shipped home (an
    #: in-process attempt wrote both straight into the parent's).
    records: list[StageRecord] = field(default_factory=list)
    delta: ObserverDelta | None = None
    #: Whether the accepted attempt ran in this process.
    local: bool = False


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


def _attempt(
    func: Callable[[Any, Any, Observer], Any],
    context: Any,
    task: Any,
    observer: Observer,
) -> tuple[Any, float, FitCounters | None]:
    """One task attempt: its value, wall seconds and fit-kernel delta."""
    start = perf_counter()
    fit_before = fitkernel.snapshot()
    value = func(context, task, observer)
    return value, perf_counter() - start, (fitkernel.snapshot() - fit_before) or None


def _resilient_pool_map(
    tasks: Sequence[Any],
    func: Callable[[Any, Any, Observer], Any],
    context: Any,
    *,
    stage: str,
    workers: int,
    policy: ExecutionPolicy,
    seed: int,
    faults: FaultInjector | None,
    observer: Observer,
    on_settle: Callable[[int, _TaskOutcome], None] | None = None,
) -> list[_TaskOutcome]:
    """Run ``func(context, task, observer)`` per task, surviving crashes,
    hangs and worker kills.  The only code that decides retries.

    With ``workers == 1`` (or a single task) every attempt runs in this
    process against ``context`` and ``observer``; no payload is
    published and no pool starts.  Otherwise tasks run on a process
    pool whose workers rebuild ``context`` once from a shared-memory
    payload (an :class:`Executor` ships as its
    :class:`_ExecutorPayload`; anything else is pickled as is).

    Every attempt first fires ``faults`` keyed by ``(stage, task index,
    attempt)``.  A task that raises is retried (with backoff) up to
    ``policy.retries`` times; a task whose worker dies breaks the pool,
    so the pool is rebuilt and every unfinished task requeued —
    completed futures are harvested first, and only the task being
    waited on is charged the failure.  A task charged
    :data:`POOL_KILL_LIMIT` worker deaths runs in this process, with
    one final attempt.  Exhausted tasks degrade.  ``on_settle(i,
    outcome)`` is called as each task reaches its terminal state.
    Outcomes come back in task order.
    """
    n = len(tasks)
    outcomes: list[_TaskOutcome | None] = [None] * n
    attempts = [0] * n
    kills = [0] * n
    local = [workers <= 1 or n <= 1] * n
    errors: list[str | None] = [None] * n
    pending = list(range(n))
    pool: ProcessPoolExecutor | None = None
    shipment: _PayloadShipment | None = None

    def close_pool(nuke: bool = False) -> None:
        nonlocal pool
        if pool is not None:
            _shutdown_pool(pool, nuke=nuke)
            pool = None

    def make_pool(size: int) -> ProcessPoolExecutor:
        nonlocal shipment
        if shipment is None:
            # Published once, on the first pool: the segment outlives
            # every respawn (fresh pools re-attach it) and is unlinked
            # exactly once, below.
            shipped = (
                _ExecutorPayload.of(context)
                if isinstance(context, Executor)
                else context
            )
            shipment = publish_payload(
                (func, shipped, faults, stage, observer.enabled),
                observer=observer,
            )
        return ProcessPoolExecutor(
            max_workers=size,
            initializer=_worker_init,
            initargs=(shipment.spec,),
        )

    def settle(i: int, outcome: _TaskOutcome) -> None:
        outcomes[i] = outcome
        if on_settle is not None:
            on_settle(i, outcome)

    def fail(i: int, exc: BaseException, started: float) -> bool:
        """Charge one failed attempt; True if the task should retry."""
        attempts[i] += 1
        errors[i] = _describe(exc)
        # A task pulled out of the pool for killing workers gets one
        # attempt in this process on top of its budget.
        if attempts[i] <= policy.retries + (kills[i] >= POOL_KILL_LIMIT):
            return True
        settle(i, _TaskOutcome(
            status="degraded",
            attempts=attempts[i],
            error=errors[i],
            seconds=perf_counter() - started,
            local=local[i],
        ))
        return False

    def succeed(i: int, result: tuple) -> None:
        value, seconds, fit, records, delta = result
        settle(i, _TaskOutcome(
            value=value,
            status="retried" if attempts[i] else "ok",
            attempts=attempts[i] + 1,
            error=errors[i],
            seconds=seconds,
            fit=fit,
            records=records,
            delta=delta,
            local=local[i],
        ))

    try:
        while pending:
            sleep_for = 0.0
            next_pending: list[int] = []
            for i in (i for i in pending if local[i]):
                started = perf_counter()
                try:
                    if faults is not None:
                        faults.fire(stage, i, attempts[i])
                    result = _attempt(func, context, tasks[i], observer)
                except Exception as exc:
                    if fail(i, exc, started):
                        next_pending.append(i)
                        sleep_for = max(
                            sleep_for, policy.backoff(seed, stage, i, attempts[i])
                        )
                else:
                    succeed(i, (*result, [], None))
            remote = [i for i in pending if not local[i]]
            if remote:
                if pool is None:
                    pool = make_pool(min(workers, len(remote)))
                futures = {
                    i: pool.submit(_worker_run, (i, attempts[i], tasks[i]))
                    for i in remote
                }
                broken = False
                for i in remote:
                    future = futures[i]
                    if broken:
                        # The pool just died under us: keep results that
                        # finished before the breakage, requeue the rest
                        # without charging them an attempt.
                        if future.done():
                            try:
                                result = future.result()
                            except (BrokenProcessPool, CancelledError):
                                next_pending.append(i)
                            except Exception as exc:
                                if fail(i, exc, perf_counter()):
                                    next_pending.append(i)
                            else:
                                succeed(i, result)
                        else:
                            future.cancel()
                            next_pending.append(i)
                        continue
                    started = perf_counter()
                    try:
                        result = future.result(timeout=policy.task_timeout)
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
                        local[i] = kills[i] >= POOL_KILL_LIMIT
                        if fail(i, exc, started):
                            next_pending.append(i)
                    except Exception as exc:
                        if fail(i, exc, started):
                            next_pending.append(i)
                            sleep_for = max(
                                sleep_for,
                                policy.backoff(seed, stage, i, attempts[i]),
                            )
                    else:
                        succeed(i, result)
            pending = next_pending
            if pending and sleep_for > 0.0:
                time.sleep(sleep_for)
    finally:
        close_pool()
        if shipment is not None:
            shipment.dispose()
    return [o if o is not None else _TaskOutcome() for o in outcomes]


def _absorb_outcomes(
    outcomes: Sequence[_TaskOutcome],
    keys: Sequence[str],
    *,
    stage: str,
    report: RunReport,
    observer: Observer,
    each: bool = False,
) -> list[Any]:
    """Turn runner outcomes into values (``None`` for a degraded task).

    Merges the stage records and telemetry pool workers shipped home —
    only accepted attempts ship any, so nothing is counted twice — and
    records one :class:`StageRecord` per task that was retried or
    degraded, or per task when ``each`` is set (fold tasks, which
    resolve no stages of their own and so carry their fit delta here).
    """
    values = []
    for key, outcome in zip(keys, outcomes):
        report.records.extend(outcome.records)
        observer.absorb(outcome.delta)
        if each or outcome.status != "ok":
            report.record(
                StageRecord(
                    stage=stage,
                    key=key,
                    seconds=outcome.seconds,
                    cache_hit=False,
                    worker=_worker_tag() if outcome.local else "pool",
                    fit=outcome.fit if each else None,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    error=outcome.error,
                )
            )
        values.append(outcome.value)
    return values


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
        #: The stage a runner task is resolving, whose faults the runner
        #: fires per task instead (see :meth:`_task_faults`).
        self._task_stage: str | None = None
        #: Accumulator of the stage resolution in progress: the output
        #: bytes of the resolutions it makes (see :meth:`_collect_inputs`).
        self._inputs: list[int] | None = None

    @contextmanager
    def _task_faults(self, stage: str):
        """Resolve ``stage`` as a runner task.

        The runner already fired the task's faults, keyed by task index,
        so :meth:`run` must not fire that stage's faults a second time
        under its own resolution index.
        """
        previous, self._task_stage = self._task_stage, stage
        try:
            yield
        finally:
            self._task_stage = previous

    # -- stage resolution -------------------------------------------------

    @contextmanager
    def _collect_inputs(self):
        """Sum the output bytes of the stage resolutions made inside.

        Every :meth:`run` adds its artifact's size to the innermost open
        accumulator, so a stage's ``input_bytes`` counts exactly its
        direct dependency resolutions — with their real params —
        without touching the store.
        """
        caller, acc = self._inputs, [0]
        self._inputs = acc
        try:
            yield acc
        finally:
            self._inputs = caller

    def _resolved(self, nbytes: int) -> int:
        """Credit a resolution's output bytes to the resolving caller."""
        if self._inputs is not None:
            self._inputs[0] += nbytes
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
                    if self.faults is not None and stage != self._task_stage:
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
                        self.policy.backoff(self.options.seed, stage, index, attempt)
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
        """Run every window through the task runner.

        With ``workers > 1`` each worker process rebuilds this executor
        once — Internet, sources, options, policy and store spec, never
        the cache — then computes whole windows.  Results come back in
        window order and are inserted into this executor's cache, and
        the workers' stage records are merged into :attr:`report` — so
        a parallel sweep leaves the parent in the same queryable state
        as a serial one.

        Under the executor's :class:`ExecutionPolicy` a window whose
        task crashes, hangs past ``task_timeout`` or kills its worker
        is retried; a window that exhausts its retries is recorded as
        ``degraded`` in the report and omitted from the returned list,
        so every surviving window still gets its estimate.
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
            keys = {w: self.key_for("window_result", w) for w in windows}
            pending = [w for w in windows if keys[w] not in self.cache]
            outcomes = _resilient_pool_map(
                pending, _window_task, self,
                stage="window_result",
                workers=workers,
                policy=self.policy,
                seed=self.options.seed,
                faults=self.faults,
                observer=self.observer,
            )
            _absorb_outcomes(
                outcomes, [keys[w].token() for w in pending],
                stage="window_result", report=self.report,
                observer=self.observer,
            )
            computed: dict[TimeWindow, WindowResult] = {}
            for window, outcome in zip(pending, outcomes):
                if outcome.status == "degraded":
                    continue
                if not outcome.local:
                    self.cache.put(keys[window], outcome.value)
                computed[window] = outcome.value
            # Return the computed objects directly: presence in the
            # cache is not a proxy for success (a tiny budget can evict
            # a fresh WindowResult).  A window cached before the sweep
            # resolves as a hit.
            degraded = set(pending) - set(computed)
            return [
                computed[w] if w in computed else self.window_result(w)
                for w in windows
                if w not in degraded
            ]

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


@dataclass(frozen=True)
class _ExecutorPayload:
    """The picklable state a pool worker rebuilds an executor from.

    The cache never travels: workers reopen a persistent store by its
    spec, so a window one worker computed is a store hit for every
    other worker (and for the next run).
    """

    internet: SyntheticInternet
    sources: Mapping[str, MeasurementSource]
    options: PipelineOptions
    policy: ExecutionPolicy
    store_spec: dict | None

    @classmethod
    def of(cls, executor: Executor) -> "_ExecutorPayload":
        cache = executor.cache
        return cls(
            executor.internet, executor.sources, executor.options,
            executor.policy, cache.spec() if hasattr(cache, "spec") else None,
        )

    def build(self, observer: Observer) -> Executor:
        # The worker executor carries no injector: the runner fires task
        # faults keyed by task index, which stays deterministic however
        # tasks land on workers.
        cache = (
            open_store(**self.store_spec) if self.store_spec is not None else None
        )
        return Executor(
            self.internet, self.sources, self.options,
            cache=cache, policy=self.policy, observer=observer,
        )


#: This worker process's task function, context, injector and stage
#: label, set once by the pool initializer.
_WORKER: tuple[Callable, Any, FaultInjector | None, str] | None = None
#: This worker's observer (enabled iff the parent's is); its spans and
#: counters ship home with each accepted task.
_WORKER_OBSERVER: Observer | None = None


def _worker_init(spec: dict) -> None:
    global _WORKER, _WORKER_OBSERVER
    func, context, faults, stage, observe = load_payload(spec)
    _WORKER_OBSERVER = Observer() if observe else Observer.disabled()
    if isinstance(context, _ExecutorPayload):
        context = context.build(_WORKER_OBSERVER)
    _WORKER = (func, context, faults, stage)


def _worker_run(
    job: tuple[int, int, Any]
) -> tuple[Any, float, FitCounters | None, list[StageRecord], ObserverDelta | None]:
    index, attempt, task = job
    assert _WORKER is not None and _WORKER_OBSERVER is not None, (
        "worker initializer did not run"
    )
    func, context, faults, stage = _WORKER
    if faults is not None:
        faults.fire(stage, index, attempt)
    records = context.report.records if isinstance(context, Executor) else []
    before = len(records)
    mark = _WORKER_OBSERVER.delta_mark()
    value, seconds, fit = _attempt(func, context, task, _WORKER_OBSERVER)
    return (
        value, seconds, fit, records[before:],
        _WORKER_OBSERVER.collect_delta(mark),
    )


def _window_task(
    executor: Executor, window: "TimeWindow", observer: Observer
) -> WindowResult:
    with executor._task_faults("window_result"):
        return executor.window_result(window)


def _fold_task(
    fold: tuple[Callable[[Any, Any], Any], Any, str],
    job: tuple[int, Any],
    observer: Observer,
) -> Any:
    func, payload, stage = fold
    index, item = job
    with observer.span(f"task:{stage}", stage=stage, index=index):
        return func(payload, item)


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

    Failures follow ``policy`` through the task runner: tasks retry
    with backoff, hung tasks time out (the pool is respawned),
    worker-killing tasks requeue and eventually run in this process,
    and a task that exhausts its retries yields ``None`` in the result
    list with a ``degraded`` record — callers recompute their aggregate
    from the surviving tasks.
    """
    if workers < 1:
        raise ValueError(
            f"workers must be >= 1, got {workers} "
            "(an empty pool would make no progress)"
        )
    obs = observer if observer is not None else Observer.disabled()
    items = list(items)
    outcomes = _resilient_pool_map(
        list(enumerate(items)), _fold_task, (func, payload, stage),
        stage=stage,
        workers=workers,
        policy=policy or ExecutionPolicy(),
        seed=seed,
        faults=faults,
        observer=obs,
    )
    return _absorb_outcomes(
        outcomes, [repr(item) for item in items],
        stage=stage,
        report=report if report is not None else RunReport(),
        observer=obs,
        each=True,
    )
