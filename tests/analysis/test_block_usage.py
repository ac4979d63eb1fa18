"""Block-level usage analytics."""

import numpy as np
import pytest

from repro.analysis.block_usage import block_usage_profile
from repro.ipspace.ipset import IPSet


def dataset_from_blocks(block_sizes):
    """A dataset with given per-/24 occupancies."""
    addrs = []
    for i, size in enumerate(block_sizes):
        base = i * 256
        addrs.extend(base + b for b in range(size))
    return IPSet(np.array(addrs, dtype=np.uint32))


class TestProfile:
    def test_counts(self):
        profile = block_usage_profile(dataset_from_blocks([3, 10, 200]))
        assert profile.num_blocks == 3
        assert profile.num_addresses == 213
        assert list(profile.occupancy) == [3, 10, 200]
        assert profile.mean_per_block == pytest.approx(71.0)
        assert profile.median_per_block == 10.0

    def test_fractions(self):
        profile = block_usage_profile(dataset_from_blocks([1, 1, 50, 200]))
        assert profile.fraction_below(2) == 0.5
        assert profile.fraction_dense(128) == 0.25

    def test_empty_dataset(self):
        profile = block_usage_profile(IPSet.empty())
        assert profile.num_blocks == 0
        assert profile.gini() == 0.0
        assert profile.fraction_below(5) == 0.0

    def test_gini_uniform_is_zero(self):
        profile = block_usage_profile(dataset_from_blocks([50] * 10))
        assert profile.gini() == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_is_high(self):
        profile = block_usage_profile(dataset_from_blocks([1] * 9 + [250]))
        assert profile.gini() > 0.7

    def test_histogram_sums_to_blocks(self):
        profile = block_usage_profile(
            dataset_from_blocks([1, 3, 7, 20, 100, 250])
        )
        hist = profile.histogram()
        assert sum(count for _, count in hist) == profile.num_blocks


class TestSimulatorShape:
    def test_simulated_truth_is_bimodal(self, tiny_internet):
        """The simulator reproduces the Cai & Heidemann shape: many
        sparse /24s, a dense pool mode, strong inequality."""
        truth = tiny_internet.population.used_ipset(2013.5, 2014.5)
        profile = block_usage_profile(truth)
        assert profile.fraction_below(32) > 0.15  # sparse mode
        assert profile.fraction_dense(128) > 0.25  # dense mode
        assert profile.gini() > 0.25
        # Mean per used /24 near the paper-implied ~190... at least
        # clearly above 100.
        assert profile.mean_per_block > 100

    def test_observed_sparser_than_truth(self, tiny_executor, tiny_internet,
                                         last_window):
        """Sources undersample inside blocks, so observed occupancy
        sits below the truth's."""
        datasets = tiny_executor.datasets(last_window)
        union = datasets["IPING"]
        observed = block_usage_profile(union)
        truth = block_usage_profile(
            tiny_internet.population.used_ipset(
                last_window.start, last_window.end
            )
        )
        assert observed.mean_per_block < truth.mean_per_block
