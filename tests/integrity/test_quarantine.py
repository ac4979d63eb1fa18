"""End-to-end: detect, quarantine, refit — gracefully degraded windows.

The acceptance scenario for the integrity subsystem: a spoof flood is
seeded into one NetFlow source mid-sweep.  With the default policy the
pipeline must notice (capture-count z-score plus consensus departure),
quarantine the source, refit on the remaining eight and land within a
few percent of the clean-run estimate; with the policy off, the
corrupted filter output flows into the fit and the estimate moves by
measurably more.
"""

import numpy as np
import pytest

from repro.analysis.crossval import cross_validate_window
from repro.analysis.sensitivity import source_leverage_window
from repro.engine.executor import Executor
from repro.engine.faults import apply_source_faults
from repro.engine.stages import PipelineOptions
from repro.integrity import QuarantinePolicy

#: The seeded flood: 200k spoofed addresses per quarter into SWIN
#: (NetFlow) starting exactly at the final window's first quarter.
FLOOD = ["source:SWIN:spoof:200000:2013.5"]


@pytest.fixture(scope="module")
def flooded_sources(tiny_internet, tiny_sources):
    return apply_source_faults(
        tiny_sources,
        FLOOD,
        seed=9,
        spoof_support=tiny_internet.registry.allocated_space(),
    )


def _executor(internet, sources, policy):
    return Executor(
        internet,
        sources,
        PipelineOptions(min_stratum_observed=25, quarantine=policy),
    )


class TestCleanRunsStayClean:
    def test_no_source_flagged_across_the_sweep(self, tiny_executor):
        from repro.analysis.windows import standard_windows

        for window in standard_windows()[-4:]:
            report = tiny_executor.window_health(window)
            assert report.suspect == (), window
            assert report.quarantined == (), window

    def test_clean_window_result_not_degraded(self, last_window_result):
        assert last_window_result.excluded_sources == ()
        assert not last_window_result.is_degraded
        assert last_window_result.health is not None
        assert last_window_result.suspect_bracket is None


class TestQuarantineAndRefit:
    def test_flooded_source_is_quarantined_and_refit_tracks_clean(
        self, tiny_internet, flooded_sources, tiny_executor, last_window
    ):
        clean = tiny_executor.window_result(last_window).estimated_addresses

        guarded = _executor(
            tiny_internet, flooded_sources, QuarantinePolicy()
        ).window_result(last_window)
        assert guarded.excluded_sources == ("SWIN",)
        assert guarded.is_degraded
        assert guarded.health.verdict_of("SWIN") == "quarantined"
        record = next(
            h for h in guarded.health.sources if h.source == "SWIN"
        )
        assert record.capture_zscore > 12
        guarded_dev = abs(guarded.estimated_addresses - clean) / clean

        unguarded = _executor(
            tiny_internet, flooded_sources, QuarantinePolicy.named("off")
        ).window_result(last_window)
        assert unguarded.excluded_sources == ()
        assert unguarded.health is None
        unguarded_dev = abs(unguarded.estimated_addresses - clean) / clean

        # The acceptance criterion: refit stays within 5% of clean,
        # the unguarded estimate deviates by more.
        assert guarded_dev < 0.05
        assert unguarded_dev > 0.05
        assert unguarded_dev > 2 * guarded_dev

    def test_crossval_folds_realign_on_survivors(
        self, tiny_internet, flooded_sources, last_window
    ):
        executor = _executor(
            tiny_internet, flooded_sources, QuarantinePolicy()
        )
        results = cross_validate_window(executor, last_window)
        assert all(r.source != "SWIN" for r in results)
        assert len(results) == 8

    def test_sensitivity_drops_from_the_refit_view(
        self, tiny_internet, flooded_sources, last_window
    ):
        executor = _executor(
            tiny_internet, flooded_sources, QuarantinePolicy()
        )
        headline = executor.window_result(last_window).estimated_addresses
        report = source_leverage_window(executor, last_window)
        assert report.baseline == pytest.approx(headline, rel=1e-9)
        assert all(row.source != "SWIN" for row in report.rows)
        assert len(report.rows) == 8

    def test_campaign_drops_equal_the_leverage_rows(
        self, tiny_internet, flooded_sources, last_window, tmp_path
    ):
        from repro.service.campaign import CampaignSpec
        from repro.service.scheduler import CampaignScheduler

        executor = _executor(
            tiny_internet, flooded_sources, QuarantinePolicy()
        )
        report = source_leverage_window(executor, last_window)
        scheduler = CampaignScheduler(tmp_path)
        campaign_id = scheduler.submit(CampaignSpec(
            windows=((last_window.start, last_window.end),),
            scale_log2=-13, seed=123, options=executor.options,
            drop_sources=("CALT", "SWIN"),
        ))
        # A fresh executor: the campaign computes its grid itself.
        scheduler.run(campaign_id, executor=_executor(
            tiny_internet, flooded_sources, QuarantinePolicy()
        ))
        served = {
            row["source"]: row["estimate_without"]
            for row in scheduler.ledger(campaign_id).sensitivity()
        }
        calt = next(row for row in report.rows if row.source == "CALT")
        assert served["CALT"] == calt.estimate_without
        # Dropping the quarantined SWIN leaves the headline estimate.
        assert served["SWIN"] == report.baseline

    def test_strata_observe_the_refit_view(
        self, tiny_internet, flooded_sources, last_window
    ):
        executor = _executor(
            tiny_internet, flooded_sources, QuarantinePolicy()
        )
        result = executor.window_result(last_window)
        strata = executor.stratified(last_window, "rir")
        assert strata.observed == result.observed_addresses

    def test_quarantine_emits_observability(
        self, tiny_internet, flooded_sources, last_window
    ):
        import json

        from repro.obs.observer import Observer

        observer = Observer()
        executor = Executor(
            tiny_internet,
            flooded_sources,
            PipelineOptions(min_stratum_observed=25),
            observer=observer,
        )
        executor.window_result(last_window)
        metrics = json.loads(observer.metrics.to_json_text())
        quarantined = [
            c for c in metrics["counters"]
            if c["name"] == "source_quarantined_total"
        ]
        assert quarantined and quarantined[0]["labels"] == {"source": "SWIN"}
        verdicts = [
            c for c in metrics["counters"]
            if c["name"] == "source_health_verdicts_total"
            and c["labels"] == {"source": "SWIN", "verdict": "quarantined"}
        ]
        assert verdicts and verdicts[0]["value"] == 1.0
        events = [
            e for e in observer.events
            if e["name"] == "integrity.quarantine"
        ]
        assert len(events) == 1
        assert events[0]["source"] == "SWIN"


class TestSuspectBracket:
    def test_duplicate_fault_brackets_the_estimate(
        self, tiny_internet, tiny_sources, tiny_executor, last_window
    ):
        # A stale-duplicate fault inflates WIKI mildly: suspect-level
        # z-score, not quarantine.  The headline estimate keeps WIKI
        # but reports the with/without sensitivity bracket.
        sources = apply_source_faults(
            tiny_sources, ["source:WIKI:duplicate:2:2013.5"], seed=9
        )
        result = _executor(
            tiny_internet, sources, QuarantinePolicy()
        ).window_result(last_window)
        assert result.excluded_sources == ()
        assert "WIKI" in result.health.suspect
        low, high = result.suspect_bracket
        assert 0 < low <= high
        assert np.isfinite(high)
        clean = tiny_executor.window_result(last_window).estimated_addresses
        assert low < clean * 1.1 and high > clean * 0.9


class TestPerWindowEmptySource:
    def test_spoof_filter_drop_is_recorded(
        self, tiny_internet, tiny_sources, last_window
    ):
        # Flood CALT hard enough that the filter collapses it: if the
        # filtered dataset ever empties, the window must record the
        # drop rather than fit a degenerate all-zero column.  (At this
        # scale the filter usually keeps a sliver; either way the
        # window result stays finite and accounted.)
        sources = apply_source_faults(
            tiny_sources,
            ["source:CALT:spoof:400000:2013.5"],
            seed=9,
            spoof_support=tiny_internet.registry.allocated_space(),
        )
        result = _executor(
            tiny_internet, sources, QuarantinePolicy()
        ).window_result(last_window)
        assert np.isfinite(result.estimated_addresses)
        health = result.health
        dropped_names = {name for name, _ in health.dropped}
        assert "CALT" in dropped_names or any(
            h.source == "CALT" for h in health.sources
        )
