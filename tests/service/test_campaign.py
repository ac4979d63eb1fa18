"""Campaign lifecycle end-to-end: spec identity, scheduling, ledgers.

A campaign must be a pure re-packaging of the existing stage graph:
its results equal the direct executor's to the bit, its identity is
content-addressed (resubmission is a lookup), and once the query
ledger exists, answers are served with zero GLM fits.
"""

import time

import pytest

from repro.analysis.windows import TimeWindow
from repro.core import fitkernel
from repro.engine.executor import ExecutionPolicy
from repro.engine.faults import FaultInjector
from repro.service.campaign import (
    CampaignSpec,
    CampaignStatus,
    decompose,
    task_id_for,
)
from repro.service.queryledger import entry_key
from repro.service.scheduler import (
    CampaignScheduler,
    default_executor_factory,
)

#: Small enough to run the full service path in seconds, large enough
#: for the simulator to produce well-conditioned tabulations.
SCALE_LOG2 = -14
SEED = 3

WINDOWS = ((2013.0, 2014.0), (2013.5, 2014.5))


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        windows=WINDOWS,
        scale_log2=SCALE_LOG2,
        seed=SEED,
        drop_sources=("SWIN",),
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    """One campaign run to completion, shared by the read-side tests."""
    root = tmp_path_factory.mktemp("campaigns")
    scheduler = CampaignScheduler(root)
    spec = small_spec()
    campaign_id = scheduler.submit(spec)
    status = scheduler.run(campaign_id)
    return scheduler, spec, campaign_id, status


class TestSpecIdentity:
    def test_equal_specs_share_an_id(self):
        assert small_spec().campaign_id() == small_spec().campaign_id()

    def test_id_depends_on_the_request(self):
        base = small_spec().campaign_id()
        assert small_spec(seed=SEED + 1).campaign_id() != base
        assert small_spec(drop_sources=()).campaign_id() != base
        assert small_spec(windows=WINDOWS[:1]).campaign_id() != base

    def test_json_round_trip_preserves_identity(self):
        spec = small_spec()
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.campaign_id() == spec.campaign_id()

    def test_window_objects_normalise_to_bounds(self):
        spec = small_spec(windows=(TimeWindow(2013.0, 2014.0),
                                   TimeWindow(2013.5, 2014.5)))
        assert spec.windows == WINDOWS
        assert spec.campaign_id() == small_spec().campaign_id()

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="at least one window"):
            small_spec(windows=())


class TestDecompose:
    def test_windows_first_then_sensitivity_grid(self):
        tasks = decompose(small_spec())
        assert [t.kind for t in tasks] == [
            "window", "window", "sensitivity", "sensitivity",
        ]
        assert [t.index for t in tasks] == [0, 1, 2, 3]
        assert tasks[2].bounds == WINDOWS[0]
        assert tasks[2].exclude == ("SWIN",)

    def test_task_ids_are_content_addressed(self):
        tasks = decompose(small_spec())
        assert tasks[0].task_id == task_id_for("window", WINDOWS[0], ())
        assert len({t.task_id for t in tasks}) == len(tasks)


class TestEndToEnd:
    def test_campaign_completes(self, completed):
        _, _, _, status = completed
        assert status.finished
        assert status.counts["done"] == 4
        assert status.counts["degraded"] == 0
        assert status.total == 4

    def test_results_equal_the_direct_executor(self, completed):
        scheduler, spec, campaign_id, _ = completed
        executor = default_executor_factory(spec)
        direct = executor.run("window_result", TimeWindow(*WINDOWS[1]))
        row = scheduler.ledger(campaign_id).window(WINDOWS[1])
        assert row["estimated_addresses"] == float(direct.estimated_addresses)
        assert row["observed_addresses"] == int(direct.observed_addresses)
        assert row["truth_addresses"] == int(direct.truth_addresses)

    def test_sensitivity_grid_in_ledger(self, completed):
        scheduler, _, campaign_id, _ = completed
        rows = scheduler.ledger(campaign_id).sensitivity()
        assert [r["source"] for r in rows] == ["SWIN", "SWIN"]
        assert all(r["estimate_without"] > 0 for r in rows)

    def test_status_readable_from_another_scheduler(self, completed):
        scheduler, _, campaign_id, _ = completed
        other = CampaignScheduler(scheduler.root)
        status = other.status(campaign_id)
        assert status.finished
        assert "completed" in status.summary()

    def test_unknown_campaign_raises(self, completed):
        scheduler, _, _, _ = completed
        with pytest.raises(FileNotFoundError):
            scheduler.status("c0000000000000000")

    def test_workers_floor_enforced(self, completed):
        scheduler, _, campaign_id, _ = completed
        with pytest.raises(ValueError, match="workers"):
            scheduler.run(campaign_id, workers=0)


class TestQueryLedger:
    def test_served_without_fits(self, completed):
        scheduler, _, campaign_id, _ = completed
        before = fitkernel.snapshot().fits
        ledger = scheduler.ledger(campaign_id)
        totals = ledger.totals()
        growth = ledger.growth()
        windows = ledger.windows()
        assert fitkernel.snapshot().fits == before
        assert totals["window"] == "Jun 2014"
        assert totals["estimated_addresses"] > totals["observed_addresses"]
        assert set(growth) == {"routed", "observed", "estimated", "truth"}
        assert len(windows) == 2

    def test_entry_keys_are_content_addressed(self, completed):
        scheduler, spec, campaign_id, _ = completed
        ledger = scheduler.ledger(campaign_id)
        key = entry_key(spec.options, WINDOWS[0])
        assert ledger.document["windows"][key]["label"] == "Dec 2013"
        assert ledger.window((1999.0, 2000.0)) is None

    def test_growth_series_round_trips_exactly(self, completed):
        scheduler, _, campaign_id, _ = completed
        ledger = scheduler.ledger(campaign_id)
        series = ledger.growth_series()
        rows = ledger.windows()
        assert list(series.estimated) == [
            r["estimated_addresses"] for r in rows
        ]
        assert series.labels == tuple(r["label"] for r in rows)

    def test_provenance_recorded(self, completed):
        scheduler, spec, campaign_id, _ = completed
        provenance = scheduler.ledger(campaign_id).provenance
        assert provenance["seed"] == spec.seed
        assert provenance["scale_log2"] == spec.scale_log2
        assert provenance["wall_seconds"] > 0

    def test_resubmission_is_a_lookup(self, completed):
        scheduler, spec, campaign_id, _ = completed
        before = fitkernel.snapshot().fits
        assert scheduler.submit(spec) == campaign_id
        status = scheduler.run(campaign_id)
        assert status.finished
        assert fitkernel.snapshot().fits == before


def drain(root, spec, workers=1, **executor_knobs):
    """Submit and drain ``spec`` through an executor built with the knobs."""
    executor = default_executor_factory(spec, **executor_knobs)
    scheduler = CampaignScheduler(root)
    campaign_id = scheduler.submit(spec)
    status = scheduler.run(campaign_id, workers=workers, executor=executor)
    return scheduler, campaign_id, status, executor


class TestFaultSemantics:
    def test_transient_fault_retried_to_success(self, tmp_path):
        scheduler, campaign_id, status, _ = drain(
            tmp_path, small_spec(drop_sources=()),
            faults=FaultInjector(["campaign:error:0:1"]),
            policy=ExecutionPolicy(retries=1),
        )
        assert status.finished
        assert status.counts["done"] == 2
        assert status.counts["degraded"] == 0
        rows = scheduler.ledger(campaign_id).windows()
        assert len(rows) == 2

    def test_persistent_fault_degrades_and_is_listed_missing(self, tmp_path):
        scheduler, campaign_id, status, _ = drain(
            tmp_path, small_spec(drop_sources=()),
            faults=FaultInjector(["campaign:error:0:99"]),
            policy=ExecutionPolicy(retries=1),
        )
        assert status.finished
        assert status.counts["degraded"] == 1
        assert status.counts["done"] == 1
        ledger = scheduler.ledger(campaign_id)
        missing = ledger.missing()
        assert len(missing) == 1
        assert missing[0]["label"] == "Dec 2013"
        assert missing[0]["attempts"] == 2
        assert "FaultInjected" in missing[0]["error"]
        # The surviving window still serves.
        assert len(ledger.windows()) == 1

    def test_degraded_campaign_results_equal_surviving_direct(self, tmp_path):
        spec = small_spec(drop_sources=())
        scheduler, campaign_id, _, _ = drain(
            tmp_path, spec,
            faults=FaultInjector(["campaign:error:0:99"]),
            policy=ExecutionPolicy(retries=0),
        )
        row = scheduler.ledger(campaign_id).window(WINDOWS[1])
        direct = default_executor_factory(spec).run(
            "window_result", TimeWindow(*WINDOWS[1])
        )
        assert row["estimated_addresses"] == float(direct.estimated_addresses)

    def test_task_timeout_bounds_a_hung_task(self, tmp_path):
        started = time.monotonic()
        _, _, status, executor = drain(
            tmp_path, small_spec(drop_sources=()), workers=2,
            faults=FaultInjector(["campaign:delay:0:1:120"]),
            policy=ExecutionPolicy(task_timeout=10),
        )
        assert time.monotonic() - started < 60
        assert status.finished
        assert status.counts["done"] == status.total == 2
        (record,) = [r for r in executor.report.records if r.stage == "campaign"]
        assert record.status == "retried"
        assert "exceeded" in record.error


#: Stages that run no GLM fits, so their records must carry none.
FIT_FREE_STAGES = {
    "collect", "preprocess", "spoof_filter", "source_health", "tabulate",
    "window_result",
}


class TestParallelDrain:
    def test_two_workers_match_one(self, tmp_path, completed):
        scheduler_serial, spec, campaign_id, _ = completed
        scheduler = CampaignScheduler(tmp_path)
        assert scheduler.submit(spec) == campaign_id
        status = scheduler.run(campaign_id, workers=2)
        assert status.finished
        assert status.counts["done"] == 4
        serial = scheduler_serial.ledger(campaign_id).document
        parallel = scheduler.ledger(campaign_id).document
        assert parallel["windows"] == serial["windows"]
        assert parallel["sensitivity"] == serial["sensitivity"]
        assert parallel["series"] == serial["series"]

    def test_fit_counts_attributed_to_their_stage(self, tmp_path):
        def misses(workers):
            *_, executor = drain(tmp_path / f"w{workers}", small_spec(), workers)
            return [r for r in executor.report.records if not r.cache_hit]

        def counts(record):
            fit = record.fit
            return (fit.fits, fit.irls_iterations) if fit else (0, 0)

        serial = {(r.stage, r.key): counts(r) for r in misses(1)}
        parallel = misses(2)
        assert parallel
        for record in parallel:
            assert counts(record) == serial[(record.stage, record.key)], record
            if record.stage in FIT_FREE_STAGES:
                assert record.fit is None, record


class TestStatusModel:
    def test_json_round_trip(self):
        status = CampaignStatus(
            campaign_id="cdeadbeefdeadbeef",
            state="running",
            counts={"pending": 1, "running": 1, "done": 2, "degraded": 0},
            total=4,
        )
        assert CampaignStatus.from_json(status.to_json()) == status
        assert not status.finished
        assert "running" in status.summary()
