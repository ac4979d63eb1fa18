"""Stress-regime scenarios."""

import pytest

from repro.analysis.windows import TimeWindow
from repro.engine.executor import Executor
from repro.simnet.scenarios import standard_scenarios

WINDOW = TimeWindow(2013.5, 2014.5)
SCALE = 2.0**-14  # very small: scenario tests build several Internets


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(scale=SCALE)


@pytest.fixture(scope="module")
def baseline_result(scenarios):
    internet, sources = scenarios["baseline"].build()
    return Executor(internet, sources).window_result(WINDOW)


class TestScenarios:
    def test_all_scenarios_build(self, scenarios):
        assert set(scenarios) == {
            "baseline", "heavy_spoof", "fortress", "sparse_logs",
            "high_churn",
        }
        for scenario in scenarios.values():
            internet, sources = scenario.build()
            assert len(sources) == 9
            assert len(internet.population) > 0

    def test_heavy_spoof_still_filtered(self, scenarios, baseline_result):
        """8x spoofing: the filter still keeps the /24 estimate near
        the baseline's (the paper's Figure 2 claim, stress-tested)."""
        internet, sources = scenarios["heavy_spoof"].build()
        result = Executor(internet, sources).window_result(WINDOW)
        assert result.observed_subnets == pytest.approx(
            baseline_result.observed_subnets, rel=0.2
        )

    def test_fortress_raises_correction_factor(self, scenarios,
                                               baseline_result):
        """Fewer ping responses -> bigger est/ping quotient, but the
        estimate itself stays anchored by the passive sources."""
        internet, sources = scenarios["fortress"].build()
        result = Executor(internet, sources).window_result(WINDOW)
        base_quotient = (
            baseline_result.estimated_addresses / baseline_result.ping_addresses
        )
        quotient = result.estimated_addresses / result.ping_addresses
        assert quotient > base_quotient
        assert result.estimated_addresses == pytest.approx(
            result.truth_addresses, rel=0.35
        )

    def test_sparse_logs_still_estimates(self, scenarios):
        internet, sources = scenarios["sparse_logs"].build()
        result = Executor(internet, sources).window_result(WINDOW)
        assert result.observed_addresses < result.estimated_addresses
        assert result.estimated_addresses <= result.routed_addresses

    def test_high_churn_more_ghosts(self, scenarios, baseline_result):
        """Stronger heterogeneity widens the observed-truth gap."""
        internet, sources = scenarios["high_churn"].build()
        result = Executor(internet, sources).window_result(WINDOW)
        base_gap = 1 - (
            baseline_result.observed_addresses / baseline_result.truth_addresses
        )
        gap = 1 - result.observed_addresses / result.truth_addresses
        assert gap > base_gap
