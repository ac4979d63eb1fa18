"""StreamEstimator: batch parity, snapshots, late events, resumed advances."""

import numpy as np
import pytest

from repro.analysis.windows import standard_windows
from repro.core.histories import tabulate_histories
from repro.engine.stages import PipelineOptions
from repro.engine.store import open_store
from repro.sources.base import quarter_bounds, quarter_of
from repro.stream import journal as journal_module
from repro.stream.estimator import StreamEstimator
from repro.stream.journal import DeltaJournal, journal_from_sources

#: Must match the ``tiny_executor`` fixture so closes compare equal.
OPTIONS = dict(min_stratum_observed=25)


@pytest.fixture(scope="module")
def stream_journal(tmp_path_factory, tiny_sources):
    path = tmp_path_factory.mktemp("stream") / "journal"
    return journal_from_sources(tiny_sources, path)


@pytest.fixture(scope="module")
def warm_stream(tiny_internet, stream_journal):
    stream = StreamEstimator(
        tiny_internet, stream_journal, options=PipelineOptions(**OPTIONS)
    )
    stream.ingest()
    return stream


class TestBatchParity:
    def test_full_journal_is_ingested(self, warm_stream, stream_journal):
        assert warm_stream.next_seq == len(stream_journal)
        assert len(warm_stream.sources()) == 9
        assert warm_stream.closeable_windows() == standard_windows()

    def test_live_tabulator_matches_scratch(self, warm_stream):
        tab = warm_stream.tabulator()
        assert tab is not None
        tab.verify()
        window = warm_stream.live_window()
        assert window == standard_windows()[-1]

    def test_close_matches_batch_window(
        self, warm_stream, last_window, last_window_result
    ):
        result = warm_stream.close(last_window)
        batch = last_window_result
        assert result.observed_addresses == batch.observed_addresses
        assert result.routed_addresses == batch.routed_addresses
        np.testing.assert_allclose(
            result.estimated_addresses, batch.estimated_addresses, rtol=1e-8
        )
        np.testing.assert_allclose(
            result.estimated_subnets, batch.estimated_subnets, rtol=1e-8
        )
        assert result.excluded_sources == batch.excluded_sources

    def test_close_at_same_version_is_cached(self, warm_stream, last_window):
        first = warm_stream.close(last_window)
        assert warm_stream.close(last_window) is first
        assert warm_stream.revision_of(last_window) == 0

    def test_adjacent_window_close_also_matches_batch(
        self, warm_stream, tiny_executor
    ):
        # The second close runs against a warm chain populated by the
        # first — parity must survive any seeding that happens.
        window = standard_windows()[-2]
        result = warm_stream.close(window)
        batch = tiny_executor.window_result(window)
        assert result.excluded_sources == batch.excluded_sources
        np.testing.assert_allclose(
            result.estimated_addresses, batch.estimated_addresses, rtol=1e-8
        )


class TestLateEvents:
    def test_late_delta_marks_stale_and_revises(
        self, tiny_internet, tiny_sources, tmp_path, last_window
    ):
        journal = journal_from_sources(tiny_sources, tmp_path / "journal")
        stream = StreamEstimator(
            tiny_internet, journal, options=PipelineOptions(**OPTIONS)
        )
        stream.ingest()
        first = stream.close(last_window)
        assert stream.stale_windows() == []
        # A late batch lands in an already-closed quarter: addresses
        # another source vouched for, new to WIKI.
        quarter = quarter_of(2014.25)
        q_start, q_end = quarter_bounds(quarter)
        extra = np.setdiff1d(
            tiny_sources["SWIN"].collect(q_start, q_end).addresses,
            tiny_sources["WIKI"].collect(q_start, q_end).addresses,
        )[:500]
        assert extra.size  # the late batch must actually change WIKI
        journal.append("WIKI", quarter, add=extra)
        stream.ingest()
        assert last_window in stream.stale_windows()
        revised = stream.close(last_window)
        assert stream.revision_of(last_window) == 1
        assert revised is not first
        assert stream.stale_windows() == []
        # Parity holds under revision too: a batch run over the same
        # mutated history (integrity scoring included — the grafted
        # batch may well get WIKI quarantined) must agree exactly.
        from repro.engine.executor import Executor

        batch = Executor(
            tiny_internet, stream.sources(), PipelineOptions(**OPTIONS)
        ).window_result(last_window)
        assert revised.excluded_sources == batch.excluded_sources
        assert revised.observed_addresses == batch.observed_addresses
        np.testing.assert_allclose(
            revised.estimated_addresses, batch.estimated_addresses, rtol=1e-8
        )

    def test_noop_delta_does_not_invalidate(
        self, tiny_internet, tiny_sources, tmp_path, first_window
    ):
        journal = journal_from_sources(
            tiny_sources, tmp_path / "journal", through=2012.0
        )
        stream = StreamEstimator(
            tiny_internet, journal, options=PipelineOptions(**OPTIONS)
        )
        stream.ingest()
        assert stream.closeable_windows() == [first_window]
        result = stream.close(first_window)
        version = stream.version
        quarter = quarter_of(2011.5)
        journal.append(
            "WIKI", quarter, add=tiny_sources["WIKI"].quarter_set(quarter)
        )
        stream.ingest()
        assert stream.version == version  # nothing actually changed
        assert stream.stale_windows() == []
        assert stream.close(first_window) is result


class TestSnapshotResume:
    def test_resume_without_store_is_fresh(self, tiny_internet, stream_journal):
        stream = StreamEstimator.resume(tiny_internet, stream_journal)
        assert stream.next_seq == 0

    def test_snapshot_requires_store(self, warm_stream):
        with pytest.raises(ValueError, match="artifact store"):
            warm_stream.snapshot()

    def test_resume_restores_state_and_tail_ingest_matches(
        self, tiny_internet, tiny_sources, tiny_executor, tmp_path,
        first_window,
    ):
        journal = journal_from_sources(tiny_sources, tmp_path / "journal")
        store = open_store(tmp_path / "store")
        options = PipelineOptions(**OPTIONS)
        stream = StreamEstimator(
            tiny_internet, journal, options=options, store=store
        )
        stream.ingest(limit=60)
        closed = stream.close(first_window)
        stream.snapshot()

        resumed = StreamEstimator.resume(
            tiny_internet, journal, options=options, store=store
        )
        assert resumed.next_seq == stream.next_seq
        assert resumed.version == stream.version
        restored = resumed._closed[(first_window.start, first_window.end)]
        assert restored.result.estimated_addresses == closed.estimated_addresses
        # Absorbing the tail from the snapshot must land in the same
        # state as a stream that never stopped.
        stream.ingest()
        resumed.ingest()
        assert resumed.next_seq == stream.next_seq == len(journal)
        assert resumed.version == stream.version
        for name, source in resumed.sources().items():
            np.testing.assert_array_equal(
                source.collect(2013.5, 2014.5).addresses,
                stream.sources()[name].collect(2013.5, 2014.5).addresses,
            )
        # Advancing the resumed stream closes every window (its final
        # refits may start from the store's fit memos); each must match
        # a batch run over the same history.
        results = resumed.advance()
        assert [r.window for r in results] == standard_windows()
        for result in results:
            batch = tiny_executor.window_result(result.window)
            assert result.excluded_sources == batch.excluded_sources
            np.testing.assert_allclose(
                result.estimated_addresses, batch.estimated_addresses,
                rtol=1e-8,
            )
            np.testing.assert_allclose(
                result.estimated_subnets, batch.estimated_subnets, rtol=1e-8
            )

    def test_snapshot_generations_supersede(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        journal = journal_from_sources(
            tiny_sources, tmp_path / "journal", through=2012.0
        )
        store = open_store(tmp_path / "store")
        stream = StreamEstimator(tiny_internet, journal, store=store)
        stream.ingest(limit=20)
        stream.snapshot()
        stream.ingest()
        stream.snapshot()
        resumed = StreamEstimator.resume(tiny_internet, journal, store=store)
        assert resumed.next_seq == len(journal)  # the *latest* snapshot

    def test_unchanged_state_reuses_snapshot_generation(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        journal = journal_from_sources(
            tiny_sources, tmp_path / "journal", through=2012.0
        )
        store = open_store(tmp_path / "store")
        stream = StreamEstimator(tiny_internet, journal, store=store)
        stream.ingest()
        key = stream.snapshot()
        assert stream.snapshot() == key  # no-op write, same generation


class TestTailCost:
    """A resumed stream pays for the journal tail, not the history."""

    #: One quarter: a delta from each of the nine sources.
    TAIL = 9

    def test_resumed_ingest_decodes_only_the_tail(
        self, tiny_internet, tiny_sources, tmp_path, monkeypatch
    ):
        journal = journal_from_sources(tiny_sources, tmp_path / "journal")
        store = open_store(tmp_path / "store")
        stream = StreamEstimator(tiny_internet, journal, store=store)
        stream.ingest(limit=len(journal) - self.TAIL)
        stream.snapshot()

        decoded = []
        decode = journal_module._decode

        def counted(body):
            decoded.append(body)
            return decode(body)

        monkeypatch.setattr(journal_module, "_decode", counted)
        resumed = StreamEstimator.resume(
            tiny_internet, DeltaJournal(journal.path), store=store
        )
        assert resumed.ingest() == self.TAIL
        assert len(decoded) <= self.TAIL
        # The tail opened a new quarter, so the live window moved.
        assert resumed.live_window() != stream.live_window()
        assert resumed._tabulator is None
        live_observed = resumed.describe()["live_observed"]
        assert resumed._tabulator is None
        tab = resumed.tabulator()
        tab.verify()
        assert live_observed == tab.num_observed

    def test_resumed_advance_verifies_each_line_once(
        self, tiny_internet, tiny_sources, tmp_path, monkeypatch
    ):
        # Through 2012.0 the journal covers the first standard window,
        # so the advance closes it.
        journal = journal_from_sources(
            tiny_sources, tmp_path / "journal", through=2012.0
        )
        store = open_store(tmp_path / "store")
        stream = StreamEstimator(tiny_internet, journal, store=store)
        stream.ingest(limit=len(journal) - self.TAIL)
        stream.snapshot()

        verified = []
        verify = journal_module._verify

        def counted(line):
            verified.append(line)
            return verify(line)

        monkeypatch.setattr(journal_module, "_verify", counted)
        resumed = StreamEstimator.resume(
            tiny_internet, DeltaJournal(journal.path), store=store
        )
        assert resumed.ingest() == self.TAIL
        results = resumed.advance()
        assert [r.window for r in results] == standard_windows()[:1]
        # Open, tail ingest and the advance's own ingest: one check a line.
        assert len(verified) == len(set(verified)) == len(journal)

    def test_tabulator_follows_later_deltas(
        self, tiny_internet, stream_journal
    ):
        # A tabulator asked for mid-ingest must not go stale: after more
        # deltas, across quarters entering and leaving the window, the
        # next call holds the live window's table.  ``verify()`` alone
        # cannot show this: it checks the cells against the tabulator's
        # own memberships.
        stream = StreamEstimator(tiny_internet, stream_journal)
        stream.ingest(limit=30)
        early = stream.tabulator()
        assert early is not None and stream.tabulator() is early
        stream.ingest()
        current = stream.tabulator()
        current.verify()
        window = stream.live_window()
        scratch = tabulate_histories({
            name: source.collect(window.start, window.end)
            for name, source in stream.sources().items()
        })
        np.testing.assert_array_equal(current.table().counts, scratch.counts)
        assert stream.describe()["live_observed"] == scratch.counts.sum()


class TestIntegrityParity:
    def test_quarantine_matches_batch_under_poisoned_source(
        self, tiny_internet, tmp_path, last_window
    ):
        from repro.engine.executor import Executor
        from repro.engine.faults import apply_source_faults, parse_fault
        from repro.sources.catalog import build_standard_sources

        spec = parse_fault("source:SWIN:spoof:60000:2013.5")
        sources = apply_source_faults(
            build_standard_sources(tiny_internet),
            [spec],
            seed=123,
            spoof_support=tiny_internet.registry.allocated_space(),
        )
        options = PipelineOptions(**OPTIONS)
        batch = Executor(tiny_internet, sources, options).window_result(
            last_window
        )
        journal = journal_from_sources(sources, tmp_path / "journal")
        stream = StreamEstimator(tiny_internet, journal, options=options)
        stream.ingest()
        result = stream.close(last_window)
        assert result.excluded_sources == batch.excluded_sources
        assert result.observed_addresses == batch.observed_addresses
        np.testing.assert_allclose(
            result.estimated_addresses, batch.estimated_addresses, rtol=1e-8
        )
