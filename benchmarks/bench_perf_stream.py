"""Performance benchmark for the streaming estimator's warm advance.

The streaming contract (docs/STREAM.md) promises that absorbing one
new quarter of observations and bringing every window current is much
cheaper than recomputing the sweep from scratch: closed windows stay
cached, ingestion touches only the journal tail, and only the
newly-coverable window is actually fit.  This bench pins that promise
to counts that repeat exactly — the warm one-quarter ``advance``
ingests exactly the journal tail and runs at most a fifth of the GLM
fits a from-scratch replay of the same journal runs — and commits the
warm-advance median (``BENCH_perf_stream.json``) so
``check_regression.py`` catches the architecture quietly degrading
into recompute-everything.  A wall-time ratio against the replay would
gate nothing stable: it moves with machine load, and a faster fit
kernel shrinks the fit-heavy replay more than the advance.
"""

import pytest

from repro.core import fitkernel
from repro.engine.stages import PipelineOptions
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from repro.stream.estimator import StreamEstimator
from repro.stream.journal import journal_from_sources
from repro.sources.catalog import build_standard_sources

#: Smaller than the table/figure benches' 2^-12: this bench replays the
#: full journal several times (scratch + per-round warm setup).
STREAM_SCALE_LOG2 = -14
STREAM_SEED = 20140630

#: The warm state holds everything through this time; the timed advance
#: absorbs the one quarter beyond it and closes the final window.
WARM_THROUGH = 2014.25

#: Floor on scratch-replay / warm-advance GLM fits (measured 8,538
#: against 1,090: 7.8x).
MIN_FIT_RATIO = 5.0


@pytest.fixture(scope="module")
def stream_world(tmp_path_factory):
    internet = SyntheticInternet(
        SimulationConfig(scale=2.0**STREAM_SCALE_LOG2, seed=STREAM_SEED)
    )
    sources = build_standard_sources(internet)
    tmp = tmp_path_factory.mktemp("stream-bench")
    journal = journal_from_sources(sources, tmp / "journal")
    # Deltas are journalled in time order, so the records up to
    # WARM_THROUGH are exactly a prefix of the full journal; its length
    # is the warm state's ingest limit.
    n_through = len(
        journal_from_sources(sources, tmp / "prefix", through=WARM_THROUGH)
    )
    assert 0 < n_through < len(journal)
    return internet, journal, n_through


def _fresh(stream_world):
    internet, journal, _ = stream_world
    return StreamEstimator(internet, journal, options=PipelineOptions())


def test_perf_stream_warm_advance(benchmark, stream_world):
    """Warm one-quarter advance: the journal tail only, and at most a
    fifth of a scratch replay's GLM fits."""
    _, journal, n_through = stream_world

    # The reference: a cold estimator replays the whole journal and
    # closes every window from scratch.
    before = fitkernel.snapshot()
    scratch = _fresh(stream_world)
    scratch_results = scratch.advance()
    scratch_fits = (fitkernel.snapshot() - before).fits
    assert len(scratch_results) == 11

    state = {}
    rounds = []

    def setup():
        # Rebuild the warm state each round: everything through
        # WARM_THROUGH ingested and every then-coverable window closed
        # (close() directly — advance() would absorb the tail early).
        stream = _fresh(stream_world)
        stream.ingest(limit=n_through)
        coverable = stream.closeable_windows()
        assert len(coverable) == len(scratch_results) - 1
        for window in coverable:
            stream.close(window)
        state["stream"] = stream

    def warm_advance():
        stream = state["stream"]
        before = fitkernel.snapshot()
        records = stream.ingest()
        results = stream.advance()
        rounds.append((records, (fitkernel.snapshot() - before).fits))
        return results

    results = benchmark.pedantic(
        warm_advance, setup=setup, rounds=3, iterations=1
    )
    assert len(results) == len(scratch_results)

    print(
        f"\nscratch replay {scratch_fits} fits, warm advance "
        f"{sorted({fits for _, fits in rounds})} fits "
        f"(floor ratio {MIN_FIT_RATIO:.0f}x)"
    )
    for records, fits in rounds:
        assert records == len(journal) - n_through
        assert 0 < fits * MIN_FIT_RATIO <= scratch_fits

    # The warm advance must agree with the scratch replay exactly.
    for warm_result, scratch_result in zip(results, scratch_results):
        assert warm_result.window == scratch_result.window
        assert warm_result.estimated_addresses == pytest.approx(
            scratch_result.estimated_addresses, rel=1e-8
        )
