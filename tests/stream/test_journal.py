"""The observation-delta journal: append, replay, crash safety."""

import json

import numpy as np
import pytest

from repro.stream.journal import (
    DeltaJournal,
    JournalCorruptionError,
    ObservationDelta,
    SourceRecord,
    journal_from_sources,
)


def _journal(tmp_path, **kwargs):
    return DeltaJournal(tmp_path / "journal", **kwargs)


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[3, 1, 2], remove=[])
        journal.append("A", 8, add=[], remove=[2])
        records = list(journal.replay())
        assert isinstance(records[0], SourceRecord)
        assert records[0].name == "A"
        assert isinstance(records[1], ObservationDelta)
        np.testing.assert_array_equal(records[1].add, [1, 2, 3])
        np.testing.assert_array_equal(records[2].remove, [2])

    def test_sequence_numbers_are_gap_free(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        for _ in range(5):
            journal.append("A", 8, add=[1], remove=[])
        assert [r.seq for r in journal.replay()] == list(range(6))
        assert journal.last_seq == 5

    def test_replay_from_offset(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        journal.append("A", 9, add=[2], remove=[])
        tail = list(journal.replay(start_seq=2))
        assert len(tail) == 1 and tail[0].quarter == 9

    def test_replay_sees_lines_appended_after_it(self, tmp_path):
        journal = _journal(tmp_path, segment_records=2)
        journal.declare_source("A", 2011.0)
        reader = _journal(tmp_path, segment_records=2)
        assert [r.seq for r in reader.replay()] == [0]
        journal.append("A", 8, add=[1], remove=[])
        assert [r.seq for r in reader.replay(start_seq=1)] == [1]
        assert [r.seq for r in reader.replay()] == [0, 1]

    def test_reopen_continues_sequence(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        reopened = _journal(tmp_path)
        reopened.append("A", 9, add=[2], remove=[])
        assert [r.seq for r in reopened.replay()] == [0, 1, 2]

    def test_segment_rotation(self, tmp_path):
        journal = _journal(tmp_path, segment_records=3)
        journal.declare_source("A", 2011.0)
        for i in range(8):
            journal.append("A", 8, add=[i], remove=[])
        segments = sorted(p.name for p in (tmp_path / "journal").iterdir())
        assert len(segments) == 3
        assert len(list(_journal(tmp_path).replay())) == 9


class TestCrashSafety:
    def _segments(self, tmp_path):
        return sorted((tmp_path / "journal").glob("segment-*.jsonl"))

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        last = self._segments(tmp_path)[-1]
        with last.open("a") as fh:
            fh.write('{"kind":"delta","seq":2,"sou')  # crash mid-write
        reopened = _journal(tmp_path)
        assert [r.seq for r in reopened.replay()] == [0, 1]
        # The next append overwrites the torn tail with a valid record.
        reopened.append("A", 9, add=[2], remove=[])
        assert [r.seq for r in _journal(tmp_path).replay()] == [0, 1, 2]

    def test_interior_corruption_raises(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        journal.append("A", 9, add=[2], remove=[])
        last = self._segments(tmp_path)[-1]
        lines = last.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "X" + lines[1][21:]  # flip one byte
        last.write_text("".join(lines))
        with pytest.raises(JournalCorruptionError):
            list(_journal(tmp_path).replay())

    @pytest.mark.parametrize("torn", [False, True])
    def test_append_refuses_a_corrupt_interior(self, tmp_path, torn):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        for q in range(5):
            journal.append("A", 8 + q, add=[q], remove=[])
        last = self._segments(tmp_path)[-1]
        lines = last.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:10] + "X" + lines[2][11:]  # corrupt line 3 of 6
        if torn:
            lines.append('{"kind":"delta","seq":6,"sou')
        last.write_text("".join(lines))
        before = last.read_bytes()
        reopened = _journal(tmp_path)
        length = len(reopened)
        with pytest.raises(JournalCorruptionError, match=r"jsonl:3\b"):
            reopened.append("A", 13, add=[9], remove=[])
        # Neither truncated at the bad line nor extended past it.
        assert last.read_bytes() == before
        assert len(reopened) == length
        with pytest.raises(JournalCorruptionError, match=r"jsonl:3\b"):
            list(_journal(tmp_path).replay())

    def test_append_refuses_a_corrupt_previous_segment(self, tmp_path):
        # A crash right after rotation leaves a blank tail segment; the
        # next seq then comes from the previous segment's last line,
        # which is no torn append when it fails its checksum.
        journal = _journal(tmp_path, segment_records=3)
        journal.declare_source("A", 2011.0)
        for q in range(4):
            journal.append("A", 8 + q, add=[q], remove=[])
        previous, tail = self._segments(tmp_path)
        tail.write_text("")
        lines = previous.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1][:10] + "X" + lines[-1][11:]
        previous.write_text("".join(lines))
        before = [previous.read_bytes(), tail.read_bytes()]
        with pytest.raises(JournalCorruptionError, match=r"000000.jsonl:3\b"):
            _journal(tmp_path, segment_records=3).append("A", 12, add=[9])
        assert [previous.read_bytes(), tail.read_bytes()] == before
        assert self._segments(tmp_path) == [previous, tail]

    def test_replay_from_offset_checks_the_skipped_prefix(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        journal.append("A", 9, add=[2], remove=[])
        last = self._segments(tmp_path)[-1]
        lines = last.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:10] + "X" + lines[1][11:]
        last.write_text("".join(lines))
        with pytest.raises(JournalCorruptionError, match=r"jsonl:2\b"):
            list(_journal(tmp_path).replay(start_seq=2))

    def test_corrupt_line_appended_after_open_raises(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        reader = _journal(tmp_path)
        assert [r.seq for r in reader.replay()] == [0, 1]
        # Another writer appends two records; the first is garbled.
        journal.append("A", 9, add=[2], remove=[])
        journal.append("A", 10, add=[3], remove=[])
        last = self._segments(tmp_path)[-1]
        lines = last.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:10] + "X" + lines[2][11:]
        last.write_text("".join(lines))
        for start in (0, 3):
            with pytest.raises(JournalCorruptionError, match=r"jsonl:3\b"):
                list(reader.replay(start_seq=start))

    def test_checksum_mismatch_detected(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        journal.append("A", 9, add=[2], remove=[])
        last = self._segments(tmp_path)[-1]
        lines = last.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["quarter"] = 99  # tamper but keep valid JSON and stale crc
        lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        last.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            list(_journal(tmp_path).replay())

    def test_sequence_gap_raises(self, tmp_path):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        journal.append("A", 8, add=[1], remove=[])
        journal.append("A", 9, add=[2], remove=[])
        last = self._segments(tmp_path)[-1]
        lines = last.read_text().splitlines(keepends=True)
        del lines[1]  # drop an interior record
        last.write_text("".join(lines))
        with pytest.raises(JournalCorruptionError, match="gap"):
            list(_journal(tmp_path).replay())


class TestFromSources:
    def test_refuses_nonempty_journal(self, tmp_path, tiny_sources):
        journal = _journal(tmp_path)
        journal.declare_source("A", 2011.0)
        with pytest.raises(ValueError, match="not empty"):
            journal_from_sources(tiny_sources, tmp_path / "journal")

    def test_journaled_collections_match_live(self, tmp_path, tiny_sources):
        from repro.analysis.windows import TimeWindow
        from repro.stream.estimator import JournalSource

        journal = journal_from_sources(tiny_sources, tmp_path / "journal")
        # Rebuild per-source views straight off the journal and compare
        # a window's collection with the live source.
        sources = {}
        quarters = {}
        for record in journal.replay():
            if isinstance(record, SourceRecord):
                sources[record.name] = record
                quarters[record.name] = {}
            elif isinstance(record, ObservationDelta):
                quarters[record.source][record.quarter] = record.add
        window = TimeWindow(2013.5, 2014.5)
        for name, live in tiny_sources.items():
            meta = sources[name]
            view = JournalSource(
                name, meta.available_from, meta.available_to, quarters[name]
            )
            np.testing.assert_array_equal(
                view.collect(window.start, window.end).addresses,
                live.collect(window.start, window.end).addresses,
                err_msg=name,
            )
