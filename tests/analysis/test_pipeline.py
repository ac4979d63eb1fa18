"""End-to-end pipeline behaviour (paper-shape assertions)."""

import pytest

from repro.analysis.windows import TimeWindow
from repro.engine.executor import Executor
from repro.engine.stages import PipelineOptions


class TestWindowResult:
    def test_ordering_of_magnitudes(self, last_window_result):
        r = last_window_result
        # ping <= observed <= estimated; everything below routed.
        assert r.ping_addresses <= r.observed_addresses
        assert r.observed_addresses <= r.estimated_addresses
        assert r.estimated_addresses <= r.routed_addresses
        assert r.ping_subnets <= r.observed_subnets <= r.routed_subnets

    def test_estimate_tracks_truth(self, last_window_result):
        """The headline result: the LLM estimate is far closer to the
        truth than the observed count is."""
        r = last_window_result
        obs_gap = abs(r.truth_addresses - r.observed_addresses)
        est_gap = abs(r.truth_addresses - r.estimated_addresses)
        assert est_gap < 0.5 * obs_gap

    def test_est_over_ping_ratio(self, last_window_result):
        """Paper: estimated/pinged = 2.6-2.7 (>> Heidemann's 1.86)."""
        ratio = (
            last_window_result.estimated_addresses
            / last_window_result.ping_addresses
        )
        assert 2.0 < ratio < 4.0

    def test_subnet_estimate_small_correction(self, last_window_result):
        """Paper: /24 estimates only ~1-10 % above observed."""
        r = last_window_result
        ratio = r.estimated_subnets / r.observed_subnets
        assert 1.0 <= ratio < 1.2

    def test_address_correction_large(self, last_window_result):
        """Paper: address estimates 50-60 % above observed."""
        r = last_window_result
        assert r.estimated_addresses > 1.25 * r.observed_addresses

    def test_result_cached(self, tiny_executor, last_window):
        assert tiny_executor.window_result(last_window) is (
            tiny_executor.window_result(last_window)
        )


class TestPipelineConfig:
    def test_exclude_sources(self, tiny_internet):
        executor = Executor(
            tiny_internet,
            options=PipelineOptions(exclude_sources=("SWIN", "CALT")),
        )
        window = TimeWindow(2013.5, 2014.5)
        datasets = executor.datasets(window)
        assert "SWIN" not in datasets and "CALT" not in datasets
        assert "IPING" in datasets

    def test_early_window_lacks_late_sources(self, tiny_executor,
                                             first_window):
        datasets = tiny_executor.datasets(first_window)
        assert "CALT" not in datasets
        assert "SPAM" not in datasets
        assert "TPING" not in datasets
        assert "IPING" in datasets

    def test_estimators_expose_options(self, tiny_executor, tiny_internet,
                                       last_window):
        """Each level's fit selects by BIC, truncated at the routed
        space (in /24 blocks at the subnets level)."""
        routing = tiny_internet.routing
        bounds = (last_window.start, last_window.end)
        for level, routed in (
            ("addresses", routing.size(*bounds)),
            ("subnets", routing.subnet24_count(*bounds)),
        ):
            selection = tiny_executor.run("fit", last_window, level=level)
            assert selection.criterion == "bic"
            assert selection.fit.distribution == "truncated"
            assert selection.fit.limit == routed

    def test_run_all_of_no_windows_runs_nothing(self, tiny_internet, tiny_sources):
        executor = Executor(tiny_internet, tiny_sources)
        assert executor.run_windows([]) == []
        assert executor.report.records == []


class TestStratifiedViews:
    @pytest.mark.parametrize("kind", ["rir", "industry", "dynamic"])
    def test_stratified_total_consistent(self, tiny_executor, last_window,
                                         last_window_result, kind):
        """Table 5's observation: totals are stable across
        stratifications (within ~15 % of the unstratified estimate)."""
        strat = tiny_executor.stratified(last_window, kind)
        plain = last_window_result.estimated_addresses
        assert strat.population == pytest.approx(plain, rel=0.15)

    def test_stratified_observed_matches_union(self, tiny_executor,
                                               last_window,
                                               last_window_result):
        strat = tiny_executor.stratified(last_window, "rir")
        assert strat.observed == last_window_result.observed_addresses

    def test_stratified_subnets(self, tiny_executor, last_window,
                                last_window_result):
        strat = tiny_executor.stratified(last_window, "rir", "subnets")
        assert strat.population == pytest.approx(
            last_window_result.estimated_subnets, rel=0.15
        )

    def test_rir_strata_sizes_ordered(self, tiny_executor, last_window):
        """APNIC/ARIN/RIPE dwarf AfriNIC in used addresses (Fig 6)."""
        from repro.registry.rir import RIR

        strat = tiny_executor.stratified(last_window, "rir")
        pops = {label: s.population for label, s in strat.strata.items()}
        assert pops[int(RIR.AFRINIC)] < pops[int(RIR.APNIC)]
        assert pops[int(RIR.AFRINIC)] < pops[int(RIR.ARIN)]
        assert pops[int(RIR.AFRINIC)] < pops[int(RIR.RIPE)]
