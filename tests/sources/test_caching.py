"""Caching and internal consistency of the source framework."""

import numpy as np
import pytest

from repro.core.histories import tabulate_histories
from repro.sources.base import quarter_bounds, quarter_of
from repro.sources.netflow import NETFLOW_AFFINITY, NetFlowSource
from repro.sources.passive import LogSource


class TestQuarterCaching:
    def test_quarter_set_cached(self, tiny_internet):
        src = LogSource("X", tiny_internet.population, 1, rate=0.05,
                        available_from=2011.0)
        q = quarter_of(2012.5)
        a = src.quarter_set(q)
        b = src.quarter_set(q)
        assert a is b  # same object: cache hit

    def test_collect_union_of_quarters(self, tiny_internet):
        src = LogSource("X", tiny_internet.population, 1, rate=0.05,
                        available_from=2011.0)
        window = src.collect(2012.0, 2012.5)
        manual = np.unique(np.concatenate([
            src.quarter_set(quarter_of(2012.0)),
            src.quarter_set(quarter_of(2012.25)),
        ]))
        assert np.array_equal(window.addresses, manual)

    def test_availability_clips_quarters(self, tiny_internet):
        src = LogSource("X", tiny_internet.population, 1, rate=0.05,
                        available_from=2012.25)
        early_half = src.collect(2012.0, 2012.5)
        only_late = src.quarter_set(quarter_of(2012.25))
        assert np.array_equal(early_half.addresses, np.unique(only_late))


def _log_formula(src, q):
    """A log source's quarter, straight from the per-quarter formula."""
    pop = src.population
    rng = src._quarter_rng(q)
    aff = src.affinity[pop.host_type]
    weight = pop.activity.astype(np.float64) ** src.activity_exponent
    prob = -np.expm1(-((src._rate_at(q) / 4.0) * weight * aff))
    return pop.addresses[src._active_mask(q) & (rng.random(len(pop)) < prob)]


def _netflow_formula(src, q):
    """A NetFlow source's spoof-free quarter, from the formula."""
    pop = src.population
    rng = src._quarter_rng(q)
    aff = NETFLOW_AFFINITY[pop.host_type]
    weight = pop.activity.astype(np.float64) ** src.activity_exponent
    prob = -np.expm1(-(src.rate / 4.0) * weight * aff)
    return pop.addresses[src._active_mask(q) & (rng.random(len(pop)) < prob)]


class TestObservationConstants:
    """Per-source constants kept across quarters change no observation."""

    QUARTERS = (0, 5, 2, 13, 9)

    @pytest.mark.parametrize("growth", [0.0, 0.4])
    def test_log_quarters_match_the_formula(self, tiny_internet, growth):
        src = LogSource("X", tiny_internet.population, 5, rate=0.08,
                        available_from=2011.0, activity_exponent=0.9,
                        yearly_rate_growth=growth)
        for q in self.QUARTERS:
            observed = src._observe_quarter(q, src._quarter_rng(q))
            assert np.array_equal(observed, _log_formula(src, q))

    def test_netflow_quarters_match_the_formula(self, tiny_internet):
        src = NetFlowSource("NF", tiny_internet.population, 3, rate=0.3,
                            available_from=2011.0, spoof_per_quarter=50,
                            activity_exponent=1.05)
        for q in self.QUARTERS:
            legit = _netflow_formula(src, q)
            assert np.array_equal(src.legitimate_quarter(q), legit)
            observed = src._observe_quarter(q, src._quarter_rng(q))
            assert np.array_equal(observed[: legit.size], legit)

    def test_constants_are_dropped_after_the_last_quarter(self, tiny_internet):
        src = LogSource("X", tiny_internet.population, 1, rate=0.05,
                        available_from=2011.0, yearly_rate_growth=0.4)
        src.collect(2011.0, 2012.0)
        assert set(src._kept) == {"weight"}
        src.collect(2011.0, 2014.5)
        assert src._kept == {}

    def test_single_quarter_collect_is_the_quarter(self, tiny_internet):
        src = LogSource("X", tiny_internet.population, 1, rate=0.05,
                        available_from=2011.0)
        q = quarter_of(2012.5)
        window = src.collect(*quarter_bounds(q))
        window.validate()
        assert np.array_equal(window.addresses, src.quarter_set(q))


class TestPipelineCaching:
    def test_dataset_cache_distinguishes_filtering(self, tiny_executor,
                                                   last_window):
        filtered = tiny_executor.datasets(last_window, spoof_filtering=True)
        raw = tiny_executor.datasets(last_window, spoof_filtering=False)
        assert filtered is tiny_executor.datasets(
            last_window, spoof_filtering=True
        )
        assert raw is not filtered
        assert len(raw["SWIN"]) >= len(filtered["SWIN"])

    def test_estimators_share_cached_datasets(self, tiny_executor,
                                              last_window):
        # The /24 table tabulates the same cached datasets, projected.
        projected = {
            name: dataset.subnets24()
            for name, dataset in tiny_executor.datasets(last_window).items()
        }
        expected = tabulate_histories(projected)
        table = tiny_executor.run("tabulate", last_window, level="subnets")
        assert table.source_names == expected.source_names
        assert np.array_equal(table.counts, expected.counts)
