"""Section 7: unused-space prediction."""

import numpy as np
import pytest

from repro.analysis.unused import (
    build_unused_space_model,
    estimate_occupancy_ratios,
    observed_allocation_vector,
    occupancy_ratios,
    predict_allocation,
)
from repro.ipspace.blocks import NUM_LEVELS, vacant_block_histogram
from repro.ipspace.intervals import IntervalSet


class TestAllocationVector:
    def test_recovers_known_insertion(self):
        universe = IntervalSet([(0, 2**16)])
        before = vacant_block_histogram(np.array([7], dtype=np.uint32),
                                        universe)
        after = vacant_block_histogram(np.array([7, 40_000], dtype=np.uint32),
                                       universe)
        n = observed_allocation_vector(before, after)
        assert n.sum() == pytest.approx(1.0)
        # The new address fell into some single maximal vacant block.
        level = int(np.argmax(n))
        assert n[level] == pytest.approx(1.0)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            observed_allocation_vector(np.zeros(5), np.zeros(5))


class TestOccupancyRatios:
    def test_normalised_at_32(self):
        x = np.ones(NUM_LEVELS) * 10
        n = np.ones(NUM_LEVELS)
        f = occupancy_ratios(x, n)
        assert f[32] == pytest.approx(1.0)

    def test_zero_available_handled(self):
        x = np.zeros(NUM_LEVELS)
        n = np.zeros(NUM_LEVELS)
        f = occupancy_ratios(x, n)
        assert np.isfinite(f).all()


class TestPredictAllocation:
    def test_conserves_unseen_mass(self):
        x = np.zeros(NUM_LEVELS)
        x[20] = 50  # fifty vacant /20s
        f = np.ones(NUM_LEVELS)
        alloc, final = predict_allocation(x, f, unseen=1000.0)
        assert alloc.sum() == pytest.approx(1000.0, rel=1e-6)
        assert np.isfinite(final).all()

    def test_zero_unseen(self):
        x = np.ones(NUM_LEVELS)
        alloc, final = predict_allocation(x, np.ones(NUM_LEVELS), 0.0)
        assert alloc.sum() == 0
        assert np.array_equal(final, x)

    def test_negative_unseen_rejected(self):
        with pytest.raises(ValueError):
            predict_allocation(np.ones(NUM_LEVELS), np.ones(NUM_LEVELS), -5)

    def test_vacancy_never_driven_hard_negative(self):
        x = np.zeros(NUM_LEVELS)
        x[24] = 4.0
        f = np.zeros(NUM_LEVELS)
        f[24] = 1.0
        alloc, final = predict_allocation(x, f, unseen=3.0)
        assert final[24] >= 0.9  # 4 blocks, 3 addresses placed

    def test_allocations_shift_to_smaller_blocks_over_time(self):
        """As big blocks fill, later batches land in the fragments."""
        x = np.zeros(NUM_LEVELS)
        x[16] = 2.0
        f = np.ones(NUM_LEVELS)
        alloc, _ = predict_allocation(x, f, unseen=100.0)
        assert alloc[17:].sum() > 0  # fragments got used


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def model(self, tiny_executor, tiny_internet, last_window,
              last_window_result):
        datasets = tiny_executor.datasets(last_window)
        universe = tiny_internet.routing.window(
            last_window.start, last_window.end
        )
        unseen = last_window_result.estimate_addresses.unseen
        return build_unused_space_model(datasets, universe, unseen)

    def test_ratios_shape(self, model):
        assert model.ratios.shape == (NUM_LEVELS,)
        assert model.ratios[32] == pytest.approx(1.0)
        assert (model.ratios >= 0).all()

    def test_predicted_vacancy_shrinks(self, model):
        before = model.observed_unused_addresses.sum()
        after = model.estimated_unused_addresses.sum()
        assert after < before
        assert before - after == pytest.approx(model.unseen, rel=0.05)

    def test_subnet24_consistency_check(self, model, last_window_result):
        """The paper's mutual-validation: the Section 7 model's new-/24
        count is the same order as the /24 LLM's unseen estimate."""
        model_24s = model.new_subnet24_equivalent()
        llm_24s = last_window_result.estimate_subnets.unseen
        assert model_24s > 0
        if llm_24s > 10:
            assert 0.1 < model_24s / llm_24s < 10.0

    def test_estimate_ratio_estimation_requires_deltas(self, tiny_executor,
                                                       last_window,
                                                       tiny_internet):
        datasets = tiny_executor.datasets(last_window)
        universe = tiny_internet.routing.window(
            last_window.start, last_window.end
        )
        with pytest.raises(ValueError):
            estimate_occupancy_ratios(datasets, universe, deltas=())
