"""Leave-one-source-out sensitivity."""

import pytest

from repro.analysis.sensitivity import leave_one_out_sensitivity
from repro.core.estimator import EstimatorOptions
from repro.ipspace.ipset import IPSet
from tests.conftest import make_independent_sources


class TestSensitivity:
    def test_basic_report(self, rng):
        _, sources = make_independent_sources(
            rng, 20_000, [0.3, 0.35, 0.25, 0.3]
        )
        report = leave_one_out_sensitivity(sources)
        assert len(report.rows) == 4
        assert report.baseline > 0
        for row in report.rows:
            assert row.estimate_without > 0

    def test_independent_sources_robust(self, rng):
        """Dropping any one of four independent sources barely moves
        the estimate."""
        _, sources = make_independent_sources(
            rng, 30_000, [0.3, 0.35, 0.25, 0.3]
        )
        report = leave_one_out_sensitivity(sources)
        assert report.is_robust(threshold=0.1)

    def test_pivotal_source_detected(self, rng):
        """A source that uniquely covers half the population has high
        leverage: without it the estimate collapses."""
        import numpy as np

        N = 30_000
        pop = np.sort(rng.choice(2**30, N, replace=False)).astype(np.uint32)
        visible = rng.random(N) < 0.5  # half the population
        sources = {
            # Two ordinary sources only ever see the visible half...
            "a": IPSet.from_sorted_unique(
                pop[visible & (rng.random(N) < 0.6)]
            ),
            "b": IPSet.from_sorted_unique(
                pop[visible & (rng.random(N) < 0.6)]
            ),
            # ...and one census sees everyone.
            "census": IPSet.from_sorted_unique(pop[rng.random(N) < 0.7]),
        }
        report = leave_one_out_sensitivity(
            sources, EstimatorOptions(criterion="aic", divisor=1)
        )
        assert report.max_leverage().source == "census"
        assert not report.is_robust(threshold=0.15)

    def test_needs_three_sources(self, rng):
        _, sources = make_independent_sources(rng, 1_000, [0.5, 0.5])
        with pytest.raises(ValueError):
            leave_one_out_sensitivity(sources)

    def test_pipeline_estimate_is_robust(self, tiny_executor, last_window):
        """The nine-source pipeline estimate does not hinge on any
        single dataset (the paper's diversity argument)."""
        datasets = tiny_executor.datasets(last_window)
        report = leave_one_out_sensitivity(datasets)
        assert report.is_robust(threshold=0.3)
