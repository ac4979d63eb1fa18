"""Cross-validation machinery (Table 3, Figure 3)."""

import numpy as np
import pytest

from repro.analysis.crossval import (
    TABLE3_SETTINGS,
    cross_validate_all,
    cross_validate_source,
    sweep_selection_settings,
)


@pytest.fixture(scope="module")
def window_datasets(tiny_executor, last_window):
    return tiny_executor.datasets(last_window)


class TestCrossValidateSource:
    def test_accounting(self, window_datasets):
        result = cross_validate_source(window_datasets, "WEB")
        assert result.source == "WEB"
        assert result.universe_size == len(window_datasets["WEB"])
        assert result.observed_by_others + result.true_unseen == (
            result.universe_size
        )
        assert result.estimated_unseen >= 0

    def test_estimate_beats_observed(self, window_datasets):
        """CR's estimate of the hidden part must beat the trivial
        'nothing unseen' baseline for most sources (Fig 3's point)."""
        results = cross_validate_all(window_datasets)
        wins = sum(
            1
            for r in results
            if abs(r.estimated_unseen - r.true_unseen) < r.true_unseen
        )
        assert wins >= len(results) - 2

    def test_ping_coverage_recorded(self, window_datasets):
        result = cross_validate_source(window_datasets, "WEB")
        assert 0 < result.observed_by_ping <= result.universe_size

    def test_with_range(self, window_datasets):
        result = cross_validate_source(
            window_datasets, "WIKI", with_range=True, alpha=1e-3
        )
        assert result.range_low is not None
        assert result.range_low <= result.range_high
        low, high = result.normalised_range()
        assert 0 < low <= high

    def test_unknown_source_rejected(self, window_datasets):
        with pytest.raises(KeyError):
            cross_validate_source(window_datasets, "NOPE")

    def test_needs_three_sources(self, window_datasets):
        two = {k: window_datasets[k] for k in ("WIKI", "WEB")}
        with pytest.raises(ValueError):
            cross_validate_source(two, "WIKI")


class TestSweep:
    def test_table3_settings_shape(self):
        labels = [s[0] for s in TABLE3_SETTINGS]
        assert "AIC-fixed1" in labels
        assert "BIC-adaptive1000" in labels
        assert len(TABLE3_SETTINGS) == 7

    def test_sweep_rows(self, window_datasets):
        settings = (("AIC-fixed1", "aic", 1), ("BIC-adaptive", "bic",
                                               "adaptive1000"))
        rows = sweep_selection_settings([window_datasets], settings)
        assert [r.setting for r in rows] == ["AIC-fixed1", "BIC-adaptive"]
        for row in rows:
            assert np.isfinite(row.rmse) and np.isfinite(row.mae)
            assert row.rmse >= row.mae >= 0
