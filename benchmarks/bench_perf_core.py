"""Performance microbenchmarks for the hot paths.

Unlike the table/figure benches (one-shot experiment reproductions),
these time the substrate operations that dominate a full pipeline run:
IPSet algebra, capture-history tabulation, Poisson IRLS fits and
vacancy histograms.  They guard against performance regressions — a
full 11-window campaign runs hundreds of each.

``test_perf_window_sweep_parallel`` exercises the staged engine
end-to-end: serial vs process-pool window sweep, asserting bit-identical
results always and a >=1.5x speedup when the machine has >=4 cores.
"""

import os
from time import perf_counter

import numpy as np
import pytest

from repro.core.design import main_effect_terms
from repro.core.glm import fit_poisson
from repro.core.histories import tabulate_histories
from repro.core.loglinear import LoglinearModel
from repro.ipspace.blocks import vacant_block_histogram
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet

RNG = np.random.default_rng(1)
N = 300_000


@pytest.fixture(scope="module")
def big_sets():
    a = IPSet(RNG.integers(0, 2**32, N, dtype=np.uint64).astype(np.uint32))
    b = IPSet(RNG.integers(0, 2**32, N, dtype=np.uint64).astype(np.uint32))
    return a, b


@pytest.fixture(scope="module")
def nine_sources():
    pop = np.sort(
        RNG.choice(2**31, size=N, replace=False)
    ).astype(np.uint32)
    return {
        f"s{i}": IPSet.from_sorted_unique(pop[RNG.random(N) < 0.3])
        for i in range(9)
    }


def test_perf_ipset_union(benchmark, big_sets):
    a, b = big_sets
    result = benchmark(lambda: a | b)
    assert len(result) >= max(len(a), len(b))


def test_perf_ipset_membership(benchmark, big_sets):
    a, b = big_sets
    probes = b.addresses
    result = benchmark(lambda: a.contains(probes))
    assert result.shape == probes.shape


def test_perf_tabulate_nine_sources(benchmark, nine_sources):
    table = benchmark(lambda: tabulate_histories(nine_sources))
    assert table.num_sources == 9


def test_perf_poisson_irls(benchmark, nine_sources):
    table = tabulate_histories(nine_sources)
    from repro.core.design import design_matrix

    X, _ = design_matrix(9, main_effect_terms(9))
    y = table.counts[1:].astype(float)
    fit = benchmark(lambda: fit_poisson(X, y))
    assert np.isfinite(fit.loglik)


def test_perf_llm_estimate(benchmark, nine_sources):
    table = tabulate_histories(nine_sources)
    model = LoglinearModel(9, main_effect_terms(9))
    est = benchmark(lambda: model.fit(table).estimate())
    assert est.population > 0


def test_perf_select_model_batched(benchmark, nine_sources):
    """Stepwise selection over t=9 sources, pairwise interactions.

    The heaviest fit-layer consumer: one selection fits dozens of
    candidate models, and each stepwise round's candidates become one
    stacked lattice solve.
    """
    from repro.core.selection import select_model

    table = tabulate_histories(nine_sources)
    selection = benchmark(lambda: select_model(table, max_order=2))
    assert np.isfinite(selection.selected_ic)
    assert selection.fit.estimate().population > table.num_observed


def test_perf_profile_interval(benchmark, nine_sources):
    """Profile-likelihood interval scan (hundreds of refits per call)."""
    from repro.core.profile_ci import profile_likelihood_interval

    table = tabulate_histories(nine_sources)
    terms = main_effect_terms(9)
    interval = benchmark(
        lambda: profile_likelihood_interval(table, terms, alpha=0.001)
    )
    assert interval.population_low <= interval.population_high


def test_perf_sweep_batched(benchmark):
    """Four-window engine sweep, batched kernel, serial pool.

    The regression gate's *required* benchmark (see
    ``check_regression.REQUIRED_BENCHMARKS``): this median is the
    committed evidence that batching pays on the full staged path, so a
    candidate run that silently drops it fails the gate.
    """
    from repro.analysis.windows import TimeWindow
    from repro.engine import Executor
    from repro.simnet.internet import SimulationConfig, SyntheticInternet

    windows = [
        TimeWindow(2011.0, 2012.0),
        TimeWindow(2012.0, 2013.0),
        TimeWindow(2013.0, 2014.0),
        TimeWindow(2013.5, 2014.5),
    ]
    internet = SyntheticInternet(SimulationConfig(scale=2.0**-14, seed=20140630))

    def sweep():
        return Executor(internet).run_windows(windows, workers=1)

    results = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(results) == len(windows)
    assert all(r.estimate_addresses.population > 0 for r in results)


def test_perf_vacancy_histogram(benchmark):
    used = np.unique(
        RNG.integers(0, 2**28, 200_000, dtype=np.uint64).astype(np.uint32)
    )
    universe = IntervalSet([(0, 2**28)])
    hist = benchmark(lambda: vacant_block_histogram(used, universe))
    assert hist.sum() > 0


def test_perf_window_sweep_parallel(tmp_path):
    """Serial vs parallel window sweep through the staged engine.

    Bit-identity is asserted unconditionally; the speedup bound only on
    machines with enough cores to make it meaningful.  An untimed pool
    sweep into a store then lets the datasets its workers computed be
    read back and compared with the serial ones.
    """
    from repro.analysis.windows import TimeWindow
    from repro.engine import Executor, open_store
    from repro.simnet.internet import SimulationConfig, SyntheticInternet
    from tests.conftest import assert_stored_datasets_match

    windows = [
        TimeWindow(2011.0, 2012.0),
        TimeWindow(2012.0, 2013.0),
        TimeWindow(2013.0, 2014.0),
        TimeWindow(2013.5, 2014.5),
    ]
    internet = SyntheticInternet(SimulationConfig(scale=2.0**-13, seed=20140630))
    cores = os.cpu_count() or 1

    serial = Executor(internet)
    start = perf_counter()
    serial_results = serial.run_windows(windows, workers=1)
    serial_seconds = perf_counter() - start
    # Taken before the dataset read-back below adds hits of its own.
    stats = serial.report.to_dict()

    parallel = Executor(internet)
    start = perf_counter()
    parallel_results = parallel.run_windows(windows, workers=min(4, cores))
    parallel_seconds = perf_counter() - start

    for s, p in zip(serial_results, parallel_results):
        assert s.estimate_addresses.population == p.estimate_addresses.population
        assert s.estimate_subnets.population == p.estimate_subnets.population
    # Untimed: a pool sweep whose workers write their datasets to a store.
    Executor(internet, cache=open_store(tmp_path)).run_windows(windows, workers=2)
    assert_stored_datasets_match(tmp_path, serial, windows)

    print(
        f"\nwindow sweep: serial {serial_seconds:.2f}s, "
        f"parallel({min(4, cores)}) {parallel_seconds:.2f}s on {cores} cores; "
        f"serial engine: {stats['cache_hits']} cache hits / "
        f"{stats['cache_misses']} misses"
    )
    assert stats["cache_misses"] > 0
    assert stats["cache_hits"] >= len(windows)  # datasets reused per window
    if cores >= 4:
        assert serial_seconds / parallel_seconds >= 1.5, (
            f"expected >=1.5x speedup, got "
            f"{serial_seconds / parallel_seconds:.2f}x"
        )
