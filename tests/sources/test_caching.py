"""Caching and internal consistency of the source framework."""

import numpy as np

from repro.core.histories import tabulate_histories
from repro.sources.base import quarter_of
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
