"""Persistence round-trips."""

import numpy as np
import pytest

from repro.analysis.growth import series_from_results
from repro.analysis.windows import TimeWindow
from repro.core.histories import tabulate_histories
from repro.io import (
    load_datasets,
    load_table,
    load_window_results,
    save_datasets,
    save_table,
    save_window_results,
)
from repro.ipspace.ipset import IPSet


class TestDatasetRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        datasets = {
            "ping": IPSet(rng.integers(0, 2**32, 1000, dtype=np.uint64)
                          .astype(np.uint32)),
            "web": IPSet(["1.2.3.4", "5.6.7.8"]),
            "empty": IPSet.empty(),
        }
        path = tmp_path / "data.npz"
        save_datasets(path, datasets)
        loaded = load_datasets(path)
        assert set(loaded) == set(datasets)
        for name in datasets:
            assert loaded[name] == datasets[name]

    def test_loaded_sets_valid(self, tmp_path):
        path = tmp_path / "d.npz"
        save_datasets(path, {"x": IPSet([3, 1, 2])})
        loaded = load_datasets(path)["x"]
        loaded.validate()


class TestTableRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        sources = {
            "a": IPSet(rng.integers(0, 10_000, 500).astype(np.uint32)),
            "b": IPSet(rng.integers(0, 10_000, 500).astype(np.uint32)),
            "c": IPSet(rng.integers(0, 10_000, 500).astype(np.uint32)),
        }
        table = tabulate_histories(sources)
        path = tmp_path / "table.json"
        save_table(path, table)
        loaded = load_table(path)
        assert loaded.num_sources == table.num_sources
        assert loaded.source_names == table.source_names
        assert np.array_equal(loaded.counts, table.counts)

    def test_sparse_encoding(self, tmp_path):
        from repro.core.histories import ContingencyTable

        counts = np.zeros(2**9, dtype=np.int64)
        counts[1] = 5
        counts[511] = 2
        table = ContingencyTable(9, counts)
        path = tmp_path / "big.json"
        save_table(path, table)
        # Only two cells serialised, not 512.
        assert path.read_text().count(":") < 20
        assert np.array_equal(load_table(path).counts, counts)


class TestWindowResultRoundtrip:
    def test_roundtrip_supports_growth_analysis(self, tmp_path,
                                                tiny_executor):
        windows = [TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5)]
        results = tiny_executor.run_windows(windows)
        path = tmp_path / "results.json"
        save_window_results(path, results)
        loaded = load_window_results(path)
        assert len(loaded) == 2
        assert loaded[0].window == results[0].window
        assert loaded[1].estimated_addresses == pytest.approx(
            results[1].estimated_addresses
        )
        # The reloaded objects feed the growth analyses directly.
        series = series_from_results(loaded, "addresses")
        original = series_from_results(results, "addresses")
        assert np.allclose(series.estimated, original.estimated)
        assert np.array_equal(series.routed, original.routed)
