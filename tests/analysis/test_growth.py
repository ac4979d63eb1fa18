"""Growth-series extraction."""

import numpy as np
import pytest

from repro.analysis.growth import (
    linear_growth_per_year,
    normalized,
    series_from_results,
    stratified_yearly_growth,
)
from repro.analysis.windows import TimeWindow


@pytest.fixture(scope="module")
def three_window_results(tiny_executor):
    windows = [
        TimeWindow(2011.0, 2012.0),
        TimeWindow(2012.25, 2013.25),
        TimeWindow(2013.5, 2014.5),
    ]
    return tiny_executor.run_windows(windows)


class TestSeries:
    def test_series_alignment(self, three_window_results):
        series = series_from_results(three_window_results, "addresses")
        assert len(series.window_ends) == 3
        assert series.labels == ("Dec 2011", "Mar 2013", "Jun 2014")

    def test_growth_shapes(self, three_window_results):
        """Observed and estimated grow; estimated grows faster than
        routed in relative terms (Figures 4/5)."""
        for level in ("addresses", "subnets"):
            series = series_from_results(three_window_results, level)
            assert series.estimated[-1] > series.estimated[0]
            assert series.observed[-1] > series.observed[0]
            est_rel = series.normalized("estimated")[-1]
            routed_rel = series.normalized("routed")[-1]
            assert est_rel > routed_rel

    def test_estimated_tracks_truth_everywhere(self, three_window_results):
        series = series_from_results(three_window_results, "addresses")
        assert np.all(
            np.abs(series.estimated - series.truth) < 0.25 * series.truth
        )

    def test_unknown_level_rejected(self, three_window_results):
        with pytest.raises(ValueError):
            series_from_results(three_window_results, "hosts")

    def test_growth_per_year_positive(self, three_window_results):
        series = series_from_results(three_window_results, "addresses")
        assert series.growth_per_year("estimated") > 0


class TestHelpers:
    def test_normalized(self):
        assert list(normalized(np.array([2.0, 4.0, 6.0]))) == [1.0, 2.0, 3.0]

    def test_normalized_rejects_zero_start(self):
        with pytest.raises(ValueError):
            normalized(np.array([0.0, 1.0]))

    def test_linear_growth(self):
        times = np.array([2011.0, 2012.0, 2013.0])
        series = np.array([10.0, 20.0, 30.0])
        assert linear_growth_per_year(times, series) == pytest.approx(10.0)

    def test_linear_growth_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_growth_per_year(np.array([2011.0]), np.array([1.0]))

    def test_linear_growth_is_the_exact_least_squares_slope(self):
        from fractions import Fraction

        rng = np.random.default_rng(19)
        for size in range(2, 16):
            times = 2011.0 + 0.25 * np.arange(size) + rng.uniform(0, 0.2)
            series = (
                rng.uniform(1e5, 1e9)
                + rng.uniform(-1e8, 1e8) * (times - 2011.0)
                + rng.normal(scale=1e5, size=size)
            )
            t = [Fraction(x) for x in times]
            s = [Fraction(x) for x in series]
            t_mean, s_mean = sum(t) / size, sum(s) / size
            exact = sum((a - t_mean) * (b - s_mean) for a, b in zip(t, s)) / sum(
                (a - t_mean) ** 2 for a in t
            )
            assert linear_growth_per_year(times, series) == pytest.approx(
                float(exact), rel=1e-15
            )

    def test_linear_growth_matches_polyfit(self):
        """Growing series over a sweep's eleven quarterly window ends, as
        np.polyfit computed them (its uncentred Vandermonde solve is the
        one that errs: by up to ~4e-12 where the trend is weak against
        the noise, while the closed form above is exact)."""
        rng = np.random.default_rng(23)
        times = 2012.0 + 0.25 * np.arange(11)
        for _ in range(20):
            series = rng.uniform(1e5, 1e9) * (
                1
                + rng.uniform(0.02, 0.2) * (times - 2012.0)
                + rng.normal(scale=0.002, size=11)
            )
            slope, _ = np.polyfit(times, series, 1)
            assert linear_growth_per_year(times, series) == pytest.approx(
                slope, rel=1e-12
            )

    def test_linear_growth_rejects_equal_times_and_ragged_input(self):
        with pytest.raises(ValueError, match="all times are equal"):
            linear_growth_per_year(np.full(3, 2012.5), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            linear_growth_per_year(np.arange(3.0), np.arange(4.0))


class TestStratifiedGrowth:
    def test_rir_growth_rows(self, tiny_executor):
        rows = stratified_yearly_growth(
            tiny_executor,
            "rir",
            TimeWindow(2011.0, 2012.0),
            TimeWindow(2013.5, 2014.5),
        )
        assert len(rows) == 5
        # Every RIR grew over the period.
        assert all(r.estimated_per_year > 0 for r in rows)

    def test_fast_regions_grow_faster(self, tiny_executor):
        """AfriNIC/LACNIC outpace RIPE in relative growth (Fig 6)."""
        from repro.registry.rir import RIR

        rows = {
            r.label: r
            for r in stratified_yearly_growth(
                tiny_executor,
                "rir",
                TimeWindow(2011.0, 2012.0),
                TimeWindow(2013.5, 2014.5),
            )
        }
        assert (
            rows[int(RIR.AFRINIC)].estimated_relative
            > rows[int(RIR.RIPE)].estimated_relative
        )

    def test_min_observed_filters(self, tiny_executor):
        all_rows = stratified_yearly_growth(
            tiny_executor, "country",
            TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5),
        )
        big_rows = stratified_yearly_growth(
            tiny_executor, "country",
            TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5),
            min_observed=1000,
        )
        assert len(big_rows) < len(all_rows)

    def test_windows_must_be_ordered(self, tiny_executor):
        with pytest.raises(ValueError):
            stratified_yearly_growth(
                tiny_executor, "rir",
                TimeWindow(2013.5, 2014.5), TimeWindow(2011.0, 2012.0),
            )
