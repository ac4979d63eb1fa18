"""Failure injection and robustness properties across the stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.windows import TimeWindow
from repro.core.estimator import CaptureRecapture, EstimatorOptions
from repro.core.histories import tabulate_histories
from repro.core.selection import select_model
from repro.engine.executor import Executor
from repro.engine.stages import PipelineOptions
from repro.filtering.spoof_filter import SpoofFilter
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import Prefix
from repro.sources.base import MeasurementSource


class _BrokenSource(MeasurementSource):
    """A source that reports unroutable garbage — always, or only
    inside ``broken_from``..``broken_to`` (the per-window failure
    mode: a feed that goes dark for one window and recovers)."""

    def __init__(self, broken_from=float("-inf"), broken_to=float("inf")):
        super().__init__("BROKEN", available_from=2011.0)
        self.broken_from = broken_from
        self.broken_to = broken_to
        self._healthy = IPSet.empty()

    def healthy_like(self, other):
        """Serve ``other``'s data outside the broken interval."""
        self._healthy = other
        return self

    def collect(self, start, end):
        if start < self.broken_to and end > self.broken_from:
            # Private space: preprocessing must remove everything.
            return IPSet(np.arange(0x0A000000, 0x0A000400, dtype=np.uint32))
        return self._healthy


class TestPipelineFailureInjection:
    def test_all_garbage_source_dropped(self, tiny_internet, tiny_sources):
        sources = dict(tiny_sources)
        sources["BROKEN"] = _BrokenSource()
        executor = Executor(
            tiny_internet, sources, PipelineOptions(min_stratum_observed=25)
        )
        window = TimeWindow(2013.5, 2014.5)
        datasets = executor.datasets(window)
        assert "BROKEN" not in datasets
        result = executor.window_result(window)
        assert np.isfinite(result.estimated_addresses)

    def test_window_broken_source_dropped_per_window(
        self, tiny_internet, tiny_sources
    ):
        """A source emptied for ONE window is dropped for that window
        only — and the drop is recorded with its reason — while other
        windows keep using it."""
        broken_window = TimeWindow(2013.5, 2014.5)
        healthy_window = TimeWindow(2012.5, 2013.5)
        source = _BrokenSource(
            broken_from=2013.5, broken_to=2014.5
        ).healthy_like(tiny_sources["GAME"].collect(2011.0, 2014.5))
        sources = dict(tiny_sources)
        sources["BROKEN"] = source
        executor = Executor(
            tiny_internet, sources, PipelineOptions(min_stratum_observed=25)
        )
        assert "BROKEN" not in executor.datasets(broken_window)
        assert "BROKEN" in executor.datasets(healthy_window)
        result = executor.window_result(broken_window)
        assert np.isfinite(result.estimated_addresses)
        assert result.is_degraded
        assert ("BROKEN", "empty_after_preprocess") in result.health.dropped

    def test_pipeline_with_two_sources_only(self, tiny_internet,
                                            tiny_sources):
        executor = Executor(
            tiny_internet,
            {k: tiny_sources[k] for k in ("IPING", "WEB")},
            PipelineOptions(),
        )
        result = executor.window_result(TimeWindow(2013.5, 2014.5))
        assert result.estimated_addresses >= result.observed_addresses

    def test_pipeline_deterministic(self, tiny_internet, tiny_sources):
        window = TimeWindow(2012.5, 2013.5)
        a = Executor(tiny_internet, tiny_sources).window_result(window)
        b = Executor(tiny_internet, tiny_sources).window_result(window)
        assert a.estimated_addresses == b.estimated_addresses
        assert a.observed_addresses == b.observed_addresses


class TestEstimatorDegeneracies:
    def test_disjoint_sources_finite(self):
        """Zero overlap anywhere: estimates stay finite (truncation
        bounds the blow-up)."""
        a = IPSet(range(0, 1000))
        b = IPSet(range(1000, 2000))
        c = IPSet(range(2000, 3000))
        cr = CaptureRecapture(
            {"a": a, "b": b, "c": c}, EstimatorOptions(limit=1e6)
        )
        est = cr.estimate()
        assert np.isfinite(est.population)
        assert est.population <= 1e6 + 1

    def test_identical_sources(self):
        """Perfect overlap: nothing is unseen by the model's logic."""
        s = IPSet(range(5000))
        cr = CaptureRecapture({"a": s, "b": s, "c": s})
        est = cr.estimate()
        assert est.population == pytest.approx(5000, rel=0.01)

    def test_single_individual(self):
        table = tabulate_histories({"a": IPSet([7]), "b": IPSet([7])})
        selection = select_model(table)
        assert np.isfinite(selection.fit.estimate().population)

    def test_nested_sources(self):
        """One source strictly inside another."""
        big = IPSet(range(10_000))
        small = IPSet(range(5_000))
        third = IPSet(range(2_500, 7_500))
        est = CaptureRecapture({"b": big, "s": small, "t": third}).estimate()
        assert est.population >= 10_000 * 0.99


class TestSpoofFilterProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400))
    def test_filter_output_subset_of_input(self, seed, n_spoof):
        rng = np.random.default_rng(seed)
        routed = IntervalSet.from_prefixes(
            [Prefix.parse("10.0.0.0/16"), Prefix.parse("20.0.0.0/16")]
        )
        darknet = Prefix.parse("20.0.0.0/16")
        legit = IPSet(
            (0x0A000000 + rng.choice(2**16, 300, replace=False)).astype(
                np.uint32
            )
        )
        spoof = IPSet(
            np.where(
                rng.random(n_spoof) < 0.5,
                0x0A000000 + rng.integers(0, 2**16, n_spoof),
                0x14000000 + rng.integers(0, 2**16, n_spoof),
            ).astype(np.uint32)
        )
        suspect = legit | spoof
        refs = legit.sample(100, rng)
        report = SpoofFilter(refs, routed, [darknet], seed=1).apply(suspect)
        # Output is always a subset of the input.
        assert suspect.contains(report.filtered.addresses).all()
        # Accounting always balances.
        assert (
            report.kept + report.removed_stage1 + report.removed_stage2
            == len(suspect)
        )
