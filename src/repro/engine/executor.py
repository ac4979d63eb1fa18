"""The engine executor: cache-checked stage resolution and one task runner.

:class:`Executor` owns the shared state of a run (Internet, sources,
options), resolves stage requests through the unified
:class:`~repro.engine.artifacts.ArtifactCache`, and records one
:class:`~repro.engine.report.StageRecord` per resolution.  Independent
work — the windows of a sweep and the tasks of a campaign — runs
through one task runner, :meth:`Executor.run_tasks`: in this process
for ``workers == 1``, otherwise on a ``ProcessPoolExecutor`` whose
workers rebuild the executor once from the pool initializer's
arguments.  Under the fork start method (Linux up to Python 3.13) a
worker inherits those arguments without a copy; under spawn or
forkserver they are pickled once per worker.  Strata, sensitivity
drops and cross-validation folds do not fan out: each is one stage
whose stepwise searches run as one batched plan.

Fault tolerance: every stage resolution and every runner task runs
under the executor's :class:`ExecutionPolicy` — bounded retries with
exponential backoff and deterministic jitter
(:meth:`ExecutionPolicy.backoff`), per-task wall-clock timeouts, and
``BrokenProcessPool`` recovery (the pool is respawned, unfinished
tasks are requeued, a worker death is charged only to the task whose
worker died, and a task that kills :data:`POOL_KILL_LIMIT` workers is
pulled back into the parent process).  A failure that exhausted a
stage's retries (:func:`exhausted_stage`) is not retried again above
it.  A task that exhausts its retries is *degraded*: it is recorded in
the :class:`~repro.engine.report.RunReport` and dropped from the
results instead of aborting the run.

Determinism contract: every stage draws randomness only from seeds
derived with stable digests of (options.seed, task identity), so a
parallel run is bit-identical to a serial run with the same seed —
including under injected faults, because retries re-execute the same
pure stage functions.  Results are always collected in submission
order, never completion order.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core import fitkernel
from repro.engine.artifacts import MISS, ArtifactCache, ArtifactKey, artifact_nbytes
from repro.engine.faults import FaultInjector
from repro.engine.report import RunReport, StageRecord
from repro.engine.store import ArtifactStore, open_store
from repro.obs.observer import Observer, ObserverDelta
from repro.engine.stages import (
    FIT_LEVELS,
    STAGES,
    PipelineOptions,
    WindowResult,
    _analysis_view,
)
from repro.ipspace.ipset import IPSet
from repro.simnet.internet import SyntheticInternet
from repro.sources.base import MeasurementSource

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.analysis.__init__ imports
    # modules that import the engine, so a module-level import here
    # would be circular.
    from repro.analysis.windows import TimeWindow
    from repro.core.stratified import StratifiedEstimate


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
        """Seconds to sleep before retrying ``attempt`` of one task.

        Exponential backoff capped at ``backoff_max``, plus a jitter of
        up to :data:`BACKOFF_JITTER` drawn from a crc32 hash of the
        (seed, stage, index, attempt) identity, so a rerun with the
        same seed sleeps the same amount — parallel-vs-serial
        determinism extends to the retry schedule.
        """
        delay = min(
            self.backoff_max, self.backoff_base * (2.0 ** max(0, attempt - 1))
        )
        token = f"{seed}:{stage}:{index}:{attempt}".encode()
        fraction = (zlib.crc32(token) % 1000) / 999.0
        return delay * (1.0 + BACKOFF_JITTER * fraction)


def exhausted_stage(exc: BaseException) -> str | None:
    """The stage whose retries ``exc`` exhausted, or ``None``.

    :meth:`Executor.run` sets it as an attribute of the exception, so
    it survives the pickle home from a pool worker.
    """
    return getattr(exc, "exhausted_stage", None)


@dataclass
class TaskOutcome:
    """Terminal state of one task of :meth:`Executor.run_tasks`."""

    value: Any = None
    status: str = "degraded"
    attempts: int = 0
    error: str | None = None
    seconds: float = 0.0
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
    func: Callable[[Executor, Any, Observer], Any],
    executor: Executor,
    task: Any,
    observer: Observer,
) -> tuple[Any, float]:
    """One task attempt: its value and wall seconds."""
    start = perf_counter()
    value = func(executor, task, observer)
    return value, perf_counter() - start


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
        #: Per-stage resolution counter: the task index stage-level
        #: faults key on (counts cache misses, stable under retries).
        self._stage_sequence: dict[str, int] = {}
        #: Accumulator of the stage resolution in progress: the output
        #: bytes and seconds of the resolutions it makes (see
        #: :meth:`_collect_inputs`).
        self._inputs: list | None = None

    # -- stage resolution -------------------------------------------------

    @contextmanager
    def _collect_inputs(self):
        """Sum the output bytes and seconds of the stage resolutions made inside.

        Every resolution adds its artifact's size and its seconds to the
        innermost open accumulator ``[bytes, seconds]``, so a stage's
        ``input_bytes`` counts exactly its direct dependency resolutions
        — with their real params — without touching the store, and its
        ``self_seconds`` is its own seconds minus theirs.
        """
        caller, acc = self._inputs, [0, 0.0]
        self._inputs = acc
        try:
            yield acc
        finally:
            self._inputs = caller

    def _resolved(self, nbytes: int, seconds: float) -> int:
        """Credit a resolution's output bytes and seconds to the resolving caller."""
        if self._inputs is not None:
            self._inputs[0] += nbytes
            self._inputs[1] += seconds
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
        times with backoff (stages are pure, so a retry is safe), unless
        it raised a dependency's exhausted failure; the exhausted
        failure is recorded as ``failed``, marked with its stage
        (:func:`exhausted_stage`) and re-raised for the surrounding
        sweep to degrade or propagate.
        """
        key = self.key_for(stage, window, **params)
        value = self._lookup(key)
        if value is MISS:
            value = self._compute(key, window, params)
        return value

    def _tier(self, stage: str) -> Any:
        """The cache a stage's artifacts live in.

        Non-cacheable stages (e.g. the fit_batch plan, whose per-level
        selections already persist under `fit`) stay in the run's memory
        tier: they never land in the persistent store.
        """
        if STAGES[stage].cacheable:
            return self.cache
        return getattr(self.cache, "memory", self.cache)

    def _lookup(self, key: ArtifactKey) -> Any:
        """The cached artifact for ``key``, recorded as a hit, or :data:`MISS`."""
        cache = self._tier(key.stage)
        start = perf_counter()
        value = cache.get(key)
        if value is not MISS:
            seconds = perf_counter() - start
            self.report.record(
                StageRecord(
                    stage=key.stage,
                    key=key.token(),
                    seconds=seconds,
                    self_seconds=seconds,
                    cache_hit=True,
                    output_bytes=self._resolved(artifact_nbytes(value), seconds),
                    worker=_worker_tag(),
                    tier=getattr(cache, "last_hit_tier", None),
                )
            )
        return value

    def _compute(
        self, key: ArtifactKey, window: TimeWindow | None, params: dict,
        fire: bool = True,
    ) -> Any:
        """Run ``key``'s stage function, cache its artifact and record it.

        With ``fire=False`` the stage's faults do not fire: the runner did.
        """
        stage = key.stage
        spec = STAGES[stage]
        index = self._stage_sequence.get(stage, 0)
        self._stage_sequence[stage] = index + 1
        attempt = 0
        error: Exception | None = None
        start = perf_counter()
        with self.observer.span(f"stage:{stage}", stage=stage, key=key.token()) as span:
            with self._collect_inputs() as inputs:
                while True:
                    records_before = len(self.report.records)
                    fit_before = fitkernel.snapshot()
                    inputs[0] = 0  # input bytes: the accepted attempt's only
                    try:
                        if fire and self.faults is not None:
                            self.faults.fire(stage, index, attempt)
                        value = spec.fn(self, window, **params)
                        break
                    except Exception as exc:
                        attempt += 1
                        if attempt > self.policy.retries or exhausted_stage(exc):
                            error = exc
                            break
                        time.sleep(
                            self.policy.backoff(self.options.seed, stage, index, attempt)
                        )
            if error is not None:
                seconds = perf_counter() - start
                self.report.record(
                    StageRecord(
                        stage=stage,
                        key=key.token(),
                        seconds=seconds,
                        self_seconds=seconds - inputs[1],
                        cache_hit=False,
                        worker=_worker_tag(),
                        status="failed",
                        attempts=attempt,
                        error=_describe(error),
                    )
                )
                self._resolved(0, seconds)
                if exhausted_stage(error) is None:
                    error.exhausted_stage = stage  # type: ignore[attr-defined]
                raise error
            fit_delta = fitkernel.snapshot() - fit_before
            # Keep the delta exclusive: nested stage resolutions already
            # recorded their own fit work, so counters sum to the process
            # totals (wall seconds stay inclusive; ``self_seconds`` is the
            # exclusive share).
            for nested in self.report.records[records_before:]:
                if nested.fit is not None:
                    fit_delta = fit_delta - nested.fit
            self._tier(stage).put(key, value)
            span.set(attempts=attempt + 1)
            if fit_delta:
                span.set(fits=fit_delta.fits, irls_iterations=fit_delta.irls_iterations)
        seconds = perf_counter() - start
        self.report.record(
            StageRecord(
                stage=stage,
                key=key.token(),
                seconds=seconds,
                self_seconds=seconds - inputs[1],
                cache_hit=False,
                input_bytes=inputs[0],
                output_bytes=self._resolved(artifact_nbytes(value), seconds),
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

        :meth:`datasets` minus any quarantined sources.  The headline
        estimates, the suspect bracket, the strata, the sensitivity
        drops and the cross-validation folds are all fitted on this
        view, so one window gives one answer under quarantine.
        """
        return _analysis_view(self, window)[0]

    # -- the task runner --------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[Any],
        func: Callable[[Executor, Any, Observer], Any],
        *,
        stage: str,
        keys: Sequence[str],
        workers: int,
        on_settle: Callable[[int, TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Run ``func(executor, task, observer)`` per task under this
        executor's policy, faults and observer, surviving crashes, hangs
        and worker kills.

        With ``workers == 1`` (or a single task) every attempt runs in
        this process, and no pool starts.  Otherwise tasks run on a
        process pool whose initializer hands each worker this
        executor's :class:`_ExecutorPayload` once.

        Every attempt first fires the faults keyed by ``(stage, task
        index, attempt)``.  A task that raises is retried (with backoff)
        up to ``policy.retries`` times, unless a stage already exhausted
        its retries on that error (:func:`exhausted_stage`).  A task
        whose worker dies breaks the pool: completed futures are
        harvested, the pool is rebuilt and every unfinished task
        requeued.  A pool of several workers cannot say whose worker
        died, so its breakage charges no task; the runner then finishes
        on a one-worker pool, which runs its tasks in submission order
        — there the death is the awaited task's, and only that task is
        charged.  A task charged :data:`POOL_KILL_LIMIT` worker deaths
        runs in this process, with one final attempt.  Exhausted tasks
        degrade.  ``on_settle(i, outcome)`` is called as each task
        reaches its terminal state.

        Outcomes come back in task order, merged into :attr:`report` and
        :attr:`observer`: the records and telemetry workers shipped home
        (accepted attempts only, so nothing counts twice), and one
        record per retried or degraded task under ``stage`` and
        ``keys[i]``, claiming no exclusive seconds (its attempts' stage
        resolutions carry them).
        """
        policy, faults, observer = self.policy, self.faults, self.observer
        n = len(tasks)
        outcomes: list[TaskOutcome | None] = [None] * n
        attempts = [0] * n
        kills = [0] * n
        local = [workers <= 1 or n <= 1] * n
        errors: list[str | None] = [None] * n
        pending = list(range(n))
        pool: ProcessPoolExecutor | None = None
        width = workers  # pool size; 1 once a breakage named no task

        def close_pool(nuke: bool = False) -> None:
            nonlocal pool
            if pool is not None:
                _shutdown_pool(pool, nuke=nuke)
                pool = None

        def make_pool(size: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=size,
                initializer=_worker_init,
                initargs=(
                    func, _ExecutorPayload.of(self), faults, stage,
                    observer.enabled,
                ),
            )

        def backoff(i: int) -> float:
            return policy.backoff(self.options.seed, stage, i, attempts[i])

        def settle(i: int, outcome: TaskOutcome) -> None:
            outcomes[i] = outcome
            if on_settle is not None:
                on_settle(i, outcome)

        def fail(i: int, exc: BaseException, started: float) -> bool:
            """Charge one failed attempt; True if the task should retry."""
            attempts[i] += 1
            errors[i] = _describe(exc)
            # A task pulled out of the pool for killing workers gets one
            # attempt in this process on top of its budget.
            budget = policy.retries + (kills[i] >= POOL_KILL_LIMIT)
            if exhausted_stage(exc) is None and attempts[i] <= budget:
                return True
            settle(i, TaskOutcome(
                status="degraded",
                attempts=attempts[i],
                error=errors[i],
                seconds=perf_counter() - started,
                local=local[i],
            ))
            return False

        def succeed(i: int, result: tuple) -> None:
            value, seconds, records, delta = result
            settle(i, TaskOutcome(
                value=value,
                status="retried" if attempts[i] else "ok",
                attempts=attempts[i] + 1,
                error=errors[i],
                seconds=seconds,
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
                        result = _attempt(func, self, tasks[i], observer)
                    except Exception as exc:
                        if fail(i, exc, started):
                            next_pending.append(i)
                            sleep_for = max(sleep_for, backoff(i))
                    else:
                        succeed(i, (*result, [], None))
                remote = [i for i in pending if not local[i]]
                if remote:
                    if pool is None:
                        size = min(width, len(remote))
                        pool = make_pool(size)
                        # One worker runs its tasks in submission order,
                        # so a death there is the awaited task's.
                        blame = size == 1
                    futures = {
                        i: pool.submit(_worker_run, (i, attempts[i], tasks[i]))
                        for i in remote
                    }
                    broken = False
                    for i in remote:
                        future = futures[i]
                        if broken:
                            # The pool just died under us: keep results
                            # that finished before the breakage, requeue
                            # the rest without charging them an attempt.
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
                            broken = True
                            close_pool(nuke=True)
                            if not blame:
                                # Any worker may have died: charge
                                # nobody and go on one worker at a time.
                                width = 1
                                next_pending.append(i)
                                continue
                            kills[i] += 1
                            local[i] = kills[i] >= POOL_KILL_LIMIT
                            if fail(i, exc, started):
                                next_pending.append(i)
                        except Exception as exc:
                            if fail(i, exc, started):
                                next_pending.append(i)
                                sleep_for = max(sleep_for, backoff(i))
                        else:
                            succeed(i, result)
                pending = next_pending
                if pending and sleep_for > 0.0:
                    time.sleep(sleep_for)
        finally:
            close_pool()
        settled = [o if o is not None else TaskOutcome() for o in outcomes]
        for key, outcome in zip(keys, settled):
            self.report.records.extend(outcome.records)
            observer.absorb(outcome.delta)
            if outcome.status != "ok":
                self.report.record(
                    StageRecord(
                        stage=stage,
                        key=key,
                        seconds=outcome.seconds,
                        self_seconds=0.0,
                        cache_hit=False,
                        worker=_worker_tag() if outcome.local else "pool",
                        status=outcome.status,
                        attempts=outcome.attempts,
                        error=outcome.error,
                    )
                )
        return settled

    # -- window sweeps ----------------------------------------------------

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
        is retried.  A window that exhausts its retries, or whose stage
        failed after its own, is recorded as ``degraded`` in the report
        and omitted from the returned list, so every surviving window
        still gets its estimate.
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
            # One lookup per window: a hit is recorded and kept as is,
            # and only the misses become runner tasks.
            found = {w: self._lookup(key) for w, key in keys.items()}
            pending = [w for w, value in found.items() if value is MISS]
            outcomes = self.run_tasks(
                pending, _window_task,
                stage="window_result",
                keys=[keys[w].token() for w in pending],
                workers=workers,
            )
            for window, outcome in zip(pending, outcomes):
                if outcome.status == "degraded":
                    continue
                if not outcome.local:
                    self.cache.put(keys[window], outcome.value)
                found[window] = outcome.value
            # Return the values themselves: presence in the cache is not
            # a proxy for success (a tiny budget can evict a fresh
            # WindowResult).
            return [found[w] for w in windows if found[w] is not MISS]

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
        # Bad input raises here: inside the stage it would be retried
        # and recorded as a failed stage.
        if level not in FIT_LEVELS:
            raise ValueError(f"level must be 'addresses' or 'subnets', got {level!r}")
        if kind != "dynamic":
            self.internet.registry.stratum_values(kind)
        return self.run("stratified", window, kind=kind, level=level)


# -- process-pool plumbing --------------------------------------------------


@dataclass(frozen=True)
class _ExecutorPayload:
    """The picklable state a pool worker rebuilds an executor from.

    It reaches each worker as a pool initializer argument: inherited
    under fork, pickled once per worker under spawn.  The cache never
    travels: workers reopen a persistent store by its
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


#: This worker process's task function, executor, injector and stage
#: label, set once by the pool initializer.
_WORKER: tuple[Callable, Executor, FaultInjector | None, str] | None = None
#: This worker's observer (enabled iff the parent's is); its spans and
#: counters ship home with each accepted task.
_WORKER_OBSERVER: Observer | None = None


def _worker_init(
    func: Callable, payload: _ExecutorPayload, faults: FaultInjector | None,
    stage: str, observe: bool,
) -> None:
    global _WORKER, _WORKER_OBSERVER
    _WORKER_OBSERVER = Observer() if observe else Observer.disabled()
    _WORKER = (func, payload.build(_WORKER_OBSERVER), faults, stage)


def _store_counts(executor: Executor) -> dict[str, int]:
    """The persistent-tier counters of an executor's store (none for memory)."""
    return {
        name: count for name, count in executor.cache.stats().items()
        if name.startswith("persistent_")
    }


def _worker_run(
    job: tuple[int, int, Any]
) -> tuple[Any, float, list[StageRecord], ObserverDelta | None]:
    index, attempt, task = job
    assert _WORKER is not None and _WORKER_OBSERVER is not None, (
        "worker initializer did not run"
    )
    func, executor, faults, stage = _WORKER
    if faults is not None:
        faults.fire(stage, index, attempt)
    records = executor.report.records
    before = len(records)
    store_before = _store_counts(executor)
    mark = _WORKER_OBSERVER.delta_mark()
    value, seconds = _attempt(func, executor, task, _WORKER_OBSERVER)
    # The parent's ledger reads only its own store's counters, so this
    # attempt's puts and reads travel home as counter increments.
    for name, count in _store_counts(executor).items():
        if count != store_before[name]:
            _WORKER_OBSERVER.inc(f"cache_{name}_total", count - store_before[name])
    return (
        value, seconds, records[before:], _WORKER_OBSERVER.collect_delta(mark),
    )


def _window_task(
    executor: Executor, window: "TimeWindow", observer: Observer
) -> WindowResult:
    # The sweep has looked the window up already and missed, and the
    # runner fired this task's faults.
    return executor._compute(
        executor.key_for("window_result", window), window, {}, fire=False
    )
