"""Fault injection and the executor's recovery paths.

Every scenario here drives a real failure mode — injected exceptions,
worker kills, hung tasks, corrupted store entries — through the engine
with a deterministic :class:`FaultInjector` and asserts both the
recovery (results identical to a clean run) and the accounting
(``retried`` / ``degraded`` records in the :class:`RunReport`).
"""

import os
import time

import numpy as np
import pytest

from repro.analysis.crossval import cross_validate_window
from repro.analysis.sensitivity import source_leverage_window
from repro.analysis.windows import TimeWindow, missing_windows
from repro.engine import (
    ExecutionPolicy,
    Executor,
    FaultInjected,
    FaultInjector,
    FaultSpec,
)
from repro.engine.executor import BACKOFF_JITTER
from repro.engine.report import RunReport
from repro.engine.store import LocalStore, open_store
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from repro.sources.catalog import build_standard_sources
from tests.conftest import assert_stored_datasets_match

WINDOWS = [TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5)]

#: Fast retry schedule so failure tests don't sleep for real.
FAST = ExecutionPolicy(retries=1, backoff_base=0.001, backoff_max=0.002)


@pytest.fixture(scope="module")
def small_internet():
    """A very small Internet for whole-sweep tests (scale 2^-14)."""
    return SyntheticInternet(SimulationConfig(scale=2.0**-14, seed=99))


def _double(executor, task, observer):
    payload, item = task
    return payload * item


def _slow_first(executor, task, observer):
    """Task 0 outlasts a sibling's worker death, so the parent is still
    waiting on it when the pool breaks."""
    _, item = task
    if item == 0:
        time.sleep(0.3)
    return item


def run_tasks(executor, payload, func, items, *, workers=1, report=None,
              policy=FAST, faults=None):
    """Drive the task runner over ``(payload, item)`` toy tasks.

    The tasks run on an executor over ``executor``'s world that carries
    ``policy``, ``faults`` and ``report``.  Returns the values (``None``
    for a degraded task) and the outcomes; retried and degraded tasks
    are recorded in ``report`` keyed by ``repr(item)``.
    """
    engine = Executor(
        executor.internet, executor.sources, executor.options,
        policy=policy, faults=faults, report=report,
    )
    outcomes = engine.run_tasks(
        [(payload, item) for item in items], func,
        stage="demo", keys=[repr(item) for item in items], workers=workers,
    )
    return [o.value for o in outcomes], outcomes


def outcome_statuses(outcomes):
    """``(task index, status, attempts)`` per outcome."""
    return [(i, o.status, o.attempts) for i, o in enumerate(outcomes)]


class TestFaultSpec:
    def test_parse_full_form(self):
        spec = FaultSpec.parse("crossval:delay:3:2:5.0")
        assert spec == FaultSpec("crossval", "delay", index=3, count=2, seconds=5.0)

    def test_parse_defaults(self):
        spec = FaultSpec.parse("preprocess:corrupt")
        assert spec == FaultSpec("preprocess", "corrupt", index=0, count=1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("just-a-stage")
        with pytest.raises(ValueError):
            FaultSpec.parse("fit:meltdown")

    def test_matches_counts_attempts(self):
        spec = FaultSpec("fit", "error", index=1, count=2)
        assert spec.matches("fit", 1, 0)
        assert spec.matches("fit", 1, 1)
        assert not spec.matches("fit", 1, 2)  # quiet after `count` attempts
        assert not spec.matches("fit", 0, 0)
        assert not spec.matches("tabulate", 1, 0)

    def test_wildcard_stage(self):
        spec = FaultSpec("*", "error")
        assert spec.matches("anything", 0, 0)

    def test_injector_fire_raises_in_parent(self):
        injector = FaultInjector([FaultSpec("fit", "error")])
        with pytest.raises(FaultInjected):
            injector.fire("fit", 0, 0)
        injector.fire("fit", 0, 1)  # attempt past count: no fault
        injector.fire("tabulate", 0, 0)  # other stage: no fault

    def test_kill_in_parent_degrades_to_exception(self):
        injector = FaultInjector([FaultSpec("fit", "kill")])
        with pytest.raises(FaultInjected):
            injector.fire("fit", 0, 0)  # must not os._exit the test run


class TestBackoff:
    def test_deterministic(self):
        policy = ExecutionPolicy()
        assert policy.backoff(7, "fit", 3, 2) == policy.backoff(7, "fit", 3, 2)

    def test_grows_and_caps(self):
        policy = ExecutionPolicy(backoff_base=0.05, backoff_max=0.4)
        delays = [policy.backoff(0, "fit", 0, attempt) for attempt in range(1, 7)]
        # Doubling outgrows the jitter until the cap; capped attempts
        # differ by their jitter alone.
        floors = [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]
        for delay, floor in zip(delays, floors):
            assert floor <= delay <= floor * (1 + BACKOFF_JITTER)
        assert delays[:4] == sorted(delays[:4])

    def test_jitter_bounded(self):
        policy = ExecutionPolicy(backoff_base=0.1)
        for index in range(20):
            jittered = policy.backoff(0, "fit", index, 1)
            assert 0.1 <= jittered <= 0.1 * (1 + BACKOFF_JITTER)


class TestFanOutSerial:
    """The task runner in this process, over toy tasks."""

    def test_retry_then_succeed(self, tiny_executor):
        report = RunReport()
        faults = FaultInjector([FaultSpec("demo", "error", index=1, count=1)])
        out, outcomes = run_tasks(
            tiny_executor, 2, _double, [1, 2, 3], report=report, faults=faults,
        )
        assert out == [2, 4, 6]
        assert outcome_statuses(outcomes) == [
            (0, "ok", 1), (1, "retried", 2), (2, "ok", 1)
        ]
        assert report.retry_count == 1

    def test_exhausted_task_degrades_to_none(self, tiny_executor):
        report = RunReport()
        faults = FaultInjector([FaultSpec("demo", "error", index=1, count=5)])
        out, _ = run_tasks(
            tiny_executor, 2, _double, [1, 2, 3], report=report, faults=faults,
        )
        assert out == [2, None, 6]
        degraded = report.degraded_records()
        assert len(degraded) == 1
        assert degraded[0].stage == "demo"
        assert "injected error" in degraded[0].error

    def test_report_dict_and_summary_expose_fault_tolerance(self, tiny_executor):
        report = RunReport()
        faults = FaultInjector([
            FaultSpec("demo", "error", index=0, count=1),
            FaultSpec("demo", "error", index=1, count=5),
        ])
        run_tasks(tiny_executor, 2, _double, [1, 2], report=report, faults=faults)
        blob = report.to_dict()["fault_tolerance"]
        assert blob["retries"] == 1
        assert blob["degraded"][0]["stage"] == "demo"
        assert "degraded" in report.summary()


class TestFanOutPool:
    """The task runner on a process pool, over toy tasks."""

    def test_worker_kill_recovers(self, tiny_executor):
        report = RunReport()
        faults = FaultInjector([FaultSpec("demo", "kill", index=1, count=1)])
        out, _ = run_tasks(
            tiny_executor, 3, _double, [1, 2, 3, 4],
            workers=2, report=report, faults=faults,
        )
        assert out == [3, 6, 9, 12]
        retried = report.retried_records()
        assert retried and all(r.stage == "demo" for r in retried)

    def test_repeat_killer_falls_back_to_serial(self, tiny_executor):
        report = RunReport()
        faults = FaultInjector([FaultSpec("demo", "kill", index=0, count=2)])
        out, _ = run_tasks(
            tiny_executor, 3, _double, [1, 2],
            workers=2, report=report, faults=faults,
        )
        assert out == [3, 6]
        record = next(r for r in report.records if r.key == repr(1))
        assert record.status == "retried"
        assert record.attempts == 3  # two kills + the in-parent success

    def test_hung_task_times_out_and_retries(self, tiny_executor):
        report = RunReport()
        faults = FaultInjector(
            [FaultSpec("demo", "delay", index=0, count=1, seconds=30.0)]
        )
        policy = ExecutionPolicy(
            retries=1, backoff_base=0.001, task_timeout=0.5
        )
        out, _ = run_tasks(
            tiny_executor, 3, _double, [1, 2],
            workers=2, report=report, policy=policy, faults=faults,
        )
        assert out == [3, 6]
        record = next(r for r in report.records if r.key == repr(1))
        assert record.status == "retried"
        assert "exceeded" in (record.error or "")

    def test_pool_death_charges_only_the_killed_task(self, tiny_executor):
        def run(workers):
            out, outcomes = run_tasks(
                tiny_executor, None, _slow_first, [0, 1],
                workers=workers,
                policy=ExecutionPolicy(retries=0, backoff_base=0.001),
                faults=FaultInjector([FaultSpec("demo", "kill", index=1, count=1)]),
            )
            return out, outcome_statuses(outcomes)

        serial = run(1)
        assert serial == ([0, None], [(0, "ok", 1), (1, "degraded", 1)])
        assert run(2) == serial

    def test_innocent_task_is_not_charged_for_a_sibling_death(self, tiny_executor):
        report = RunReport()
        out, outcomes = run_tasks(
            tiny_executor, None, _slow_first, [0, 1, 2, 3],
            workers=2, report=report,
            policy=ExecutionPolicy(retries=1, backoff_base=0.001),
            faults=FaultInjector([FaultSpec("demo", "kill", index=1, count=1)]),
        )
        assert out == [0, 1, 2, 3]
        assert outcome_statuses(outcomes) == [
            (0, "ok", 1), (1, "retried", 2), (2, "ok", 1), (3, "ok", 1)
        ]
        assert report.retry_count == 1

    def test_pool_matches_serial_under_faults(self, tiny_executor):
        def run(workers):
            faults = FaultInjector([FaultSpec("demo", "kill", index=2, count=1)])
            return run_tasks(
                tiny_executor, 5, _double, [1, 2, 3, 4],
                workers=workers, faults=faults,
            )[0]

        assert run(1) == run(2) == [5, 10, 15, 20]


class TestExecutorStageFaults:
    def test_stage_retry_then_succeed(self, tiny_internet, tiny_sources):
        clean = Executor(tiny_internet, tiny_sources)
        expected = clean.run("tabulate", WINDOWS[0])

        faults = FaultInjector([FaultSpec("tabulate", "error", index=0, count=1)])
        engine = Executor(
            tiny_internet, tiny_sources, policy=FAST, faults=faults
        )
        table = engine.run("tabulate", WINDOWS[0])
        assert np.array_equal(table.counts, expected.counts)
        record = next(
            r for r in engine.report.records if r.stage == "tabulate"
        )
        assert record.status == "retried"
        assert record.attempts == 2

    def test_stage_exhaustion_records_failed_and_raises(
        self, tiny_internet, tiny_sources
    ):
        faults = FaultInjector([FaultSpec("tabulate", "error", index=0, count=9)])
        engine = Executor(
            tiny_internet, tiny_sources, policy=FAST, faults=faults
        )
        with pytest.raises(FaultInjected):
            engine.run("tabulate", WINDOWS[0])
        failed = [r for r in engine.report.records if r.status == "failed"]
        assert failed and failed[0].stage == "tabulate"

    def test_dependency_failure_degrades_its_window(self, small_internet):
        # The first tabulate resolution exhausts its own retries, and
        # neither a dependent stage nor the runner retries it again:
        # window 0 degrades after retries + 1 tabulate attempts, and
        # window 1 (a fresh miss, so a fresh fault index) is delivered.
        faults = FaultInjector([FaultSpec("tabulate", "error", index=0, count=9)])
        engine = Executor(small_internet, policy=FAST, faults=faults)
        results = engine.run_windows(WINDOWS, workers=1)
        assert [r.window for r in results] == [WINDOWS[1]]
        tabulate_failures = [
            r.attempts for r in engine.report.failed_records()
            if r.stage == "tabulate"
        ]
        assert tabulate_failures == [FAST.retries + 1]
        assert not engine.report.retried_records()
        (degraded,) = engine.report.degraded_records()
        assert (degraded.stage, degraded.attempts) == ("window_result", 1)
        assert "injected error at tabulate[0]" in degraded.error

    def test_serial_sweep_degrades_failed_window(self, small_internet):
        # window_result itself fails on every attempt for window 0;
        # the sweep must keep going and deliver window 1.
        faults = FaultInjector(
            [FaultSpec("window_result", "error", index=0, count=9)]
        )
        engine = Executor(small_internet, policy=FAST, faults=faults)
        results = engine.run_windows(WINDOWS, workers=1)
        assert [r.window for r in results] == [WINDOWS[1]]
        assert engine.report.degraded_count == 1
        assert missing_windows(WINDOWS, results) == [WINDOWS[0]]


class FlakyFirstRead:
    """A source whose first read of each whole window raises.

    "First" holds across processes: the read creates a marker file with
    ``O_EXCL``, so whichever process — the parent or any pool worker —
    reads the window again finds the marker and reads through.
    """

    def __init__(self, base, marker_dir, windows):
        self.base = base
        self.name = base.name
        self.available_from = base.available_from
        self.available_to = base.available_to
        self.marker_dir = str(marker_dir)
        self.bounds = {(w.start, w.end) for w in windows}

    def available_in(self, start, end):
        return self.base.available_in(start, end)

    def collect(self, start, end):
        if (start, end) in self.bounds:
            marker = os.path.join(self.marker_dir, f"{start}-{end}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                raise OSError(f"transient read failure, {self.name} {start}-{end}")
        return self.base.collect(start, end)


class TestWorkersKeepThePolicy:
    @pytest.mark.parametrize("retries", [0, 1])
    def test_serial_and_pool_sweeps_agree(self, small_internet, tmp_path, retries):
        def sweep(workers):
            markers = tmp_path / f"markers-{workers}"
            markers.mkdir()
            sources = build_standard_sources(small_internet)
            sources["MLAB"] = FlakyFirstRead(sources["MLAB"], markers, WINDOWS)
            engine = Executor(
                small_internet, sources,
                policy=ExecutionPolicy(
                    retries=retries, backoff_base=0.001, backoff_max=0.002
                ),
            )
            results = engine.run_windows(WINDOWS, workers=workers)
            return [r.window for r in results], engine.report.degraded_count

        serial = sweep(1)
        assert sweep(2) == serial
        # A stage retry absorbs the one failed read; without retries
        # both windows degrade, in a pool worker as in the parent.
        assert serial == ((WINDOWS, 0) if retries else ([], len(WINDOWS)))


class FailingRead:
    """A source whose every read raises, counted in a file.

    The count holds across processes: each read appends one byte to
    ``counter``, whether the parent or a pool worker makes it.
    """

    def __init__(self, base, counter):
        self.base = base
        self.name = base.name
        self.available_from = base.available_from
        self.available_to = base.available_to
        self.counter = str(counter)

    def available_in(self, start, end):
        return self.base.available_in(start, end)

    def collect(self, start, end):
        with open(self.counter, "ab") as f:
            f.write(b".")
        raise OSError(f"read failure, {self.name} {start}-{end}")


class TestRetriesDoNotMultiply:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_failing_stage_is_attempted_retries_plus_one_times(
        self, small_internet, tmp_path, retries, workers
    ):
        # Only `collect` retries the failed read.  The stages that
        # resolve it (preprocess, spoof_filter, window_result) and the
        # runner pass its exhausted failure up instead of retrying it,
        # so the reads do not multiply per level of the stage graph.
        counter = tmp_path / "reads"
        counter.touch()
        sources = build_standard_sources(small_internet)
        sources["MLAB"] = FailingRead(sources["MLAB"], counter)
        engine = Executor(
            small_internet, sources,
            policy=ExecutionPolicy(
                retries=retries, backoff_base=0.001, backoff_max=0.002
            ),
        )
        assert engine.run_windows(WINDOWS, workers=workers) == []
        assert counter.stat().st_size == len(WINDOWS) * (retries + 1)
        assert engine.report.degraded_count == len(WINDOWS)


class TestAnalysisDegradation:
    """The folds and the drops are stages: a fault retries or fails the
    whole stage, like any other."""

    ANALYSES = (
        ("crossval", lambda ex, w: cross_validate_window(ex, w)),
        ("sensitivity", lambda ex, w: source_leverage_window(ex, w).rows),
    )

    @pytest.mark.parametrize(
        "stage, analyse", ANALYSES, ids=[stage for stage, _ in ANALYSES]
    )
    def test_stage_fault_is_retried_to_the_same_rows(
        self, tiny_internet, tiny_sources, tiny_executor, stage, analyse
    ):
        faults = FaultInjector([FaultSpec(stage, "error", index=0, count=1)])
        engine = Executor(
            tiny_internet, tiny_sources, tiny_executor.options,
            policy=FAST, faults=faults,
        )
        assert analyse(engine, WINDOWS[0]) == analyse(tiny_executor, WINDOWS[0])
        (record,) = [r for r in engine.report.records if r.stage == stage]
        assert (record.status, record.attempts) == ("retried", 2)

    @pytest.mark.parametrize(
        "stage, analyse", ANALYSES, ids=[stage for stage, _ in ANALYSES]
    )
    def test_exhausted_stage_fault_raises(
        self, tiny_internet, tiny_sources, tiny_executor, stage, analyse
    ):
        faults = FaultInjector([FaultSpec(stage, "error", index=0, count=9)])
        engine = Executor(
            tiny_internet, tiny_sources, tiny_executor.options,
            policy=FAST, faults=faults,
        )
        with pytest.raises(FaultInjected):
            analyse(engine, WINDOWS[0])
        (record,) = [r for r in engine.report.records if r.stage == stage]
        assert (record.status, record.attempts) == ("failed", 2)


class TestSpillFaults:
    def test_injected_corruption_evicts_and_recomputes(self, tmp_path):
        from repro.engine.artifacts import MISS, ArtifactKey
        from repro.ipspace.ipset import IPSet

        faults = FaultInjector([FaultSpec("collect", "corrupt", index=0)])
        store = LocalStore(tmp_path, faults=faults)
        key = ArtifactKey("collect", ("w",))
        value = IPSet.from_sorted_unique(np.arange(100, dtype=np.uint32))
        store.put(key, value)  # first collect write: garbled on disk
        assert store.get(key) is MISS
        assert store.corrupt_entries == 1
        assert not list(store.entries())
        store.put(key, value)  # the recompute's write is the second: clean
        assert np.array_equal(store.get(key).addresses, value.addresses)


def _assert_same_windows(results, windows, clean, store_dir):
    """Every window, with the clean run's estimates, and the datasets the
    sweep wrote to ``store_dir`` equal the clean run's."""
    assert [r.window for r in results] == windows
    for got, want in zip(results, clean.run_windows(windows)):
        assert got.estimate_addresses.population == (
            want.estimate_addresses.population
        )
    assert_stored_datasets_match(store_dir, clean, windows)


class TestFaultySweepAcceptance:
    SWEEP = [*WINDOWS, TimeWindow(2012.5, 2013.5)]

    @pytest.fixture(scope="class")
    def clean(self, small_internet):
        engine = Executor(small_internet)
        engine.run_windows(self.SWEEP)
        return engine

    def test_killed_worker_sweep_matches_clean_run(
        self, small_internet, clean, tmp_path
    ):
        faults = FaultInjector([
            FaultSpec("window_result", "kill", index=1, count=1),
        ])
        engine = Executor(
            small_internet,
            cache=open_store(tmp_path),
            policy=ExecutionPolicy(retries=2, backoff_base=0.001),
            faults=faults,
        )
        results = engine.run_windows(self.SWEEP, workers=2)
        _assert_same_windows(results, self.SWEEP, clean, tmp_path)
        assert engine.report.retried_records()
        assert engine.report.degraded_count == 0

    def test_only_the_killed_window_degrades_without_retries(
        self, small_internet
    ):
        faults = FaultInjector([
            FaultSpec("window_result", "kill", index=1, count=1),
        ])
        engine = Executor(
            small_internet,
            policy=ExecutionPolicy(retries=0, backoff_base=0.001),
            faults=faults,
        )
        results = engine.run_windows(WINDOWS, workers=2)
        assert [r.window for r in results] == [WINDOWS[0]]
        assert engine.report.degraded_count == 1
        assert missing_windows(WINDOWS, results) == [WINDOWS[1]]

    def test_corrupt_entry_recomputed_on_reread(
        self, small_internet, clean, tmp_path
    ):
        # Serial: pool workers' stores carry no injector, and the
        # parent's put of an entry a worker already wrote is a skip.
        faults = FaultInjector([FaultSpec("window_result", "corrupt", index=0)])
        cold = Executor(small_internet, cache=open_store(tmp_path, faults=faults))
        _assert_same_windows(
            cold.run_windows(self.SWEEP), self.SWEEP, clean, tmp_path
        )

        # A fresh executor and store over the same directory reread every
        # window from disk; the garbled entry must be recomputed, never
        # parsed into an estimate.
        store = open_store(tmp_path)
        warm = Executor(small_internet, cache=store)
        _assert_same_windows(
            warm.run_windows(self.SWEEP), self.SWEEP, clean, tmp_path
        )
        assert store.persistent.corrupt_entries == 1
