"""Shared benchmark fixtures.

Every bench reproduces one table or figure of the paper on a common
simulated Internet (scale 2^-12 ≈ 1/4096 of the real one).  Simulated
counts are printed both raw and scaled back to real-Internet magnitude
(millions) so they can be laid side by side with the paper's numbers;
absolute agreement is not expected — the *shape* (who wins, ratios,
crossovers) is what the asserts check.
"""

from __future__ import annotations

import pytest

from repro.analysis.windows import TimeWindow, standard_windows
from repro.engine.executor import Executor
from repro.engine.stages import PipelineOptions
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from repro.sources.catalog import build_standard_sources

#: Simulation scale for all benchmarks.
BENCH_SCALE = 2.0**-12
BENCH_SEED = 20140630


@pytest.fixture(scope="session")
def bench_internet() -> SyntheticInternet:
    return SyntheticInternet(SimulationConfig(scale=BENCH_SCALE, seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_sources(bench_internet):
    return build_standard_sources(bench_internet)


@pytest.fixture(scope="session")
def bench_executor(bench_internet, bench_sources) -> Executor:
    return Executor(
        bench_internet,
        bench_sources,
        PipelineOptions(min_stratum_observed=30),
    )


@pytest.fixture(scope="session")
def first_window() -> TimeWindow:
    return TimeWindow(2011.0, 2012.0)


@pytest.fixture(scope="session")
def last_window() -> TimeWindow:
    return TimeWindow(2013.5, 2014.5)


@pytest.fixture(scope="session")
def all_window_results(bench_executor):
    """The 11 standard windows, run once and shared (Figs 4, 5, 10)."""
    return bench_executor.run_windows(standard_windows())


@pytest.fixture(scope="session")
def last_window_result(bench_executor, last_window):
    return bench_executor.window_result(last_window)
