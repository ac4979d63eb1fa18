"""Exactly-once telemetry from pool workers under faults.

Worker processes ship span/metric deltas home with task results; the
parent absorbs a delta only when it accepts the outcome.  These tests
kill and requeue workers with the deterministic :class:`FaultInjector`
and assert that no task span is double-counted or lost.
"""

import pytest

from repro.analysis.windows import TimeWindow
from repro.engine import (
    ExecutionPolicy,
    Executor,
    FaultInjector,
    FaultSpec,
    fan_out,
)
from repro.obs.observer import Observer
from repro.simnet.internet import SimulationConfig, SyntheticInternet

FAST = ExecutionPolicy(retries=2, backoff_base=0.001, backoff_max=0.002)


def _observed_double(payload, item):
    """Increment the worker observer's counter, then do the work."""
    from repro.engine import executor

    obs = executor._WORKER_OBSERVER
    if obs is not None:
        obs.inc("work_done_total")
    return payload * item


def task_spans(obs, stage="demo"):
    return [s for s in obs.tracer.spans if s.name == f"task:{stage}"]


class TestFanOutDeltas:
    def test_clean_pool_run_ships_every_span_once(self):
        obs = Observer()
        out = fan_out(
            2, _observed_double, [1, 2, 3, 4],
            workers=2, stage="demo", policy=FAST, observer=obs,
        )
        assert out == [2, 4, 6, 8]
        spans = task_spans(obs)
        assert len(spans) == 4
        assert sorted(s.attributes["index"] for s in spans) == [0, 1, 2, 3]
        assert obs.metrics.value("work_done_total") == 4.0

    def test_worker_kill_requeue_counts_exactly_once(self):
        obs = Observer()
        faults = FaultInjector([FaultSpec("demo", "kill", index=1, count=1)])
        out = fan_out(
            3, _observed_double, [1, 2, 3, 4],
            workers=2, stage="demo", policy=FAST, faults=faults, observer=obs,
        )
        assert out == [3, 6, 9, 12]
        spans = task_spans(obs)
        # The killed attempt died with its worker before shipping a
        # delta; only the requeued success contributes — one span and
        # one counter tick per task, no more, no less.
        assert len(spans) == 4
        assert sorted(s.attributes["index"] for s in spans) == [0, 1, 2, 3]
        assert obs.metrics.value("work_done_total") == 4.0

    def test_repeat_killer_serial_fallback_still_exactly_once(self):
        obs = Observer()
        faults = FaultInjector([FaultSpec("demo", "kill", index=0, count=2)])
        out = fan_out(
            3, _observed_double, [1, 2],
            workers=2, stage="demo", policy=FAST, faults=faults, observer=obs,
        )
        assert out == [3, 6]
        spans = task_spans(obs)
        assert len(spans) == 2
        assert sorted(s.attributes["index"] for s in spans) == [0, 1]

    def test_degraded_task_ships_no_span(self):
        obs = Observer()
        faults = FaultInjector([FaultSpec("demo", "error", index=1, count=9)])
        out = fan_out(
            2, _observed_double, [1, 2, 3],
            workers=2, stage="demo", policy=FAST, faults=faults, observer=obs,
        )
        assert out == [2, None, 6]
        spans = task_spans(obs)
        assert sorted(s.attributes["index"] for s in spans) == [0, 2]

    def test_pool_and_serial_ship_same_span_set(self):
        def indices(workers):
            obs = Observer()
            faults = FaultInjector([FaultSpec("demo", "kill", index=2, count=1)])
            fan_out(
                5, _observed_double, [1, 2, 3, 4],
                workers=workers, stage="demo", policy=FAST,
                faults=faults, observer=obs,
            )
            return sorted(s.attributes["index"] for s in task_spans(obs))

        assert indices(1) == indices(2) == [0, 1, 2, 3]


class TestWindowSweepDeltas:
    @pytest.fixture(scope="class")
    def internet(self):
        return SyntheticInternet(SimulationConfig(scale=2.0**-14, seed=99))

    def test_killed_window_worker_ships_stage_spans_once(self, internet):
        windows = [TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5)]
        obs = Observer()
        faults = FaultInjector(
            [FaultSpec("window_result", "kill", index=1, count=1)]
        )
        engine = Executor(
            internet, policy=FAST, faults=faults, observer=obs
        )
        results = engine.run_windows(windows, workers=2)
        assert len(results) == 2
        window_spans = [
            s for s in obs.tracer.spans if s.name == "stage:window_result"
        ]
        # One top-level stage span per window: the killed attempt's
        # trace died with its worker, the requeued attempt shipped.
        assert len(window_spans) == 2
        keys = {s.attributes["key"] for s in window_spans}
        assert len(keys) == 2
        assert engine.report.retry_count >= 1
