"""Shared fixtures: a small deterministic simulated Internet.

The simulator is expensive enough that tests share session-scoped
instances: ``tiny_internet`` (scale 2^-13, ~100k ground-truth
addresses) for anything exercising the full pipeline, and premade
capture-recapture toy populations for the statistics core.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.windows import TimeWindow
from repro.engine.executor import Executor
from repro.engine.stages import PipelineOptions
from repro.engine.store import open_store
from repro.ipspace.ipset import IPSet
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from repro.sources.catalog import build_standard_sources

#: Scale used by all shared simulator fixtures.
TEST_SCALE = 2.0**-13


@pytest.fixture(scope="session")
def tiny_internet() -> SyntheticInternet:
    """A small but fully featured simulated Internet."""
    return SyntheticInternet(SimulationConfig(scale=TEST_SCALE, seed=123))


@pytest.fixture(scope="session")
def tiny_sources(tiny_internet):
    """The nine standard sources over the tiny Internet."""
    return build_standard_sources(tiny_internet)


@pytest.fixture(scope="session")
def tiny_executor(tiny_internet, tiny_sources) -> Executor:
    """An executor over the tiny Internet (results are cached inside)."""
    return Executor(
        tiny_internet, tiny_sources, PipelineOptions(min_stratum_observed=25)
    )


@pytest.fixture(scope="session")
def last_window() -> TimeWindow:
    """The paper's final window (Jul 2013 - Jun 2014)."""
    return TimeWindow(2013.5, 2014.5)


@pytest.fixture(scope="session")
def first_window() -> TimeWindow:
    """The paper's first window (Jan - Dec 2011)."""
    return TimeWindow(2011.0, 2012.0)


@pytest.fixture(scope="session")
def last_window_result(tiny_executor, last_window):
    """Full window result for the final window (computed once)."""
    return tiny_executor.window_result(last_window)


def make_independent_sources(
    rng: np.random.Generator,
    population_size: int,
    capture_probs: list[float],
    space: int = 2**30,
) -> tuple[int, dict[str, IPSet]]:
    """A uniform population sampled independently by several sources.

    The textbook CR setting: every estimator should recover
    ``population_size`` here.  Returns (population_size, sources).
    """
    population = np.sort(
        rng.choice(space, size=population_size, replace=False)
    ).astype(np.uint32)
    sources = {}
    for i, p in enumerate(capture_probs):
        mask = rng.random(population_size) < p
        sources[f"S{i}"] = IPSet.from_sorted_unique(population[mask])
    return population_size, sources


def make_heterogeneous_sources(
    rng: np.random.Generator,
    population_size: int,
    num_sources: int = 4,
    sigma: float = 1.0,
    base_rate: float = 0.3,
) -> tuple[int, dict[str, IPSet]]:
    """A population with lognormal per-individual capture propensity.

    All sources share the latent activity, producing the apparent
    positive dependence the paper's interaction terms must absorb.
    Returns (population_size, sources).
    """
    population = np.sort(
        rng.choice(2**30, size=population_size, replace=False)
    ).astype(np.uint32)
    activity = rng.lognormal(-0.5 * sigma**2, sigma, population_size)
    sources = {}
    for i in range(num_sources):
        rate = base_rate * rng.uniform(0.6, 1.4)
        prob = -np.expm1(-rate * activity)
        mask = rng.random(population_size) < prob
        sources[f"S{i}"] = IPSet.from_sorted_unique(population[mask])
    return population_size, sources


def assert_stored_datasets_match(store_dir, reference: Executor, windows) -> None:
    """The window datasets a sweep wrote to ``store_dir`` equal ``reference``'s.

    A fresh executor over the store reads each window's ``spoof_filter``
    artifact back.  Every read must be a persistent-tier hit, so the
    sets compared are the ones the sweep (its pool workers, say)
    computed, never a recomputation.
    """
    stored = Executor(
        reference.internet, reference.sources, reference.options,
        cache=open_store(store_dir),
    )
    for window in windows:
        got, want = stored.datasets(window), reference.datasets(window)
        assert set(got) == set(want), window
        for name in want:
            assert np.array_equal(
                got[name].addresses, want[name].addresses
            ), (window, name)
    assert stored.report.hit_tiers() == {"persistent": len(windows)}
    assert stored.report.cache_misses == 0


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh fixed-seed generator per test."""
    return np.random.default_rng(2014)
