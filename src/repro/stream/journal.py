"""Append-only observation journal: the stream's source of truth.

Observations arrive as :class:`ObservationDelta` events — "source S
saw these addresses during quarter Q" (and, for revisions, "unsee
those") — appended to checksummed JSONL segments under a journal
directory.  The journal is the only durable state the streaming
estimator needs: replaying it deterministically rebuilds the exact
per-(source, quarter) membership the batch pipeline would have
collected, which is what makes stream-vs-batch parity exact rather
than approximate.

Format (one JSON object per line, ``crc`` last):

* ``{"kind": "source", "seq": n, "name": ..., "available_from": ...,
  "available_to": ..., "crc": ...}`` — declares a measurement source
  and its availability window (must precede the source's deltas);
* ``{"kind": "delta", "seq": n, "source": ..., "quarter": q,
  "add": [...], "remove": [...], "crc": ...}`` — one delta batch.

Sequence numbers are monotonic and gap-free across segments.  The
``crc`` field is the crc32 of the canonical JSON of the record without
it — which is the line's own text up to ``,"crc":`` closed by ``}``, so
a line is verified, and its ``seq`` read, without decoding its JSON.
A journal verifies each line once: it keeps the byte offset and seq of
every line it has checked, so a later replay seeks straight to its
start line and checksums only lines it has not seen, and decodes only
the records it yields.  Crash safety: a torn final line (interrupted
append) is ignored on replay; corruption anywhere else raises
:class:`JournalCorruptionError` — silently skipping an interior record
would silently skew every estimate after it.
"""

from __future__ import annotations

import json
import re
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro._canonical import canonical_digest
from repro.ipspace.addresses import unique_addresses
from repro.sources.base import (
    TIME_HORIZON,
    TIME_ORIGIN,
    MeasurementSource,
    QuarterlySource,
    quarter_bounds,
    quarter_of,
)

#: Records per segment before :meth:`DeltaJournal.append` rotates.
DEFAULT_SEGMENT_RECORDS = 4096

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


class JournalCorruptionError(RuntimeError):
    """An interior journal record failed its checksum or sequencing."""


@dataclass(frozen=True)
class SourceRecord:
    """Declaration of a measurement source and its availability."""

    seq: int
    name: str
    available_from: float
    available_to: float = TIME_HORIZON


@dataclass(frozen=True)
class ObservationDelta:
    """One delta batch: addresses (un)observed by a source in a quarter."""

    seq: int
    source: str
    quarter: int
    add: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint32))
    remove: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint32))

    def __post_init__(self) -> None:
        for name in ("add", "remove"):
            arr = unique_addresses(np.asarray(getattr(self, name), dtype=np.uint32))
            object.__setattr__(self, name, arr)

    @property
    def bounds(self) -> tuple[float, float]:
        """The quarter's (start, end) fractional years."""
        return quarter_bounds(self.quarter)


_CRC_FIELD = b',"crc":'
_SEQ_FIELD = b',"seq":'
_DIGITS = re.compile(rb"\d+")


def _encode(record: dict) -> str:
    """One journal line: canonical JSON with a trailing crc field."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8"))
    return body[:-1] + f',"crc":{crc}}}\n'


def _body(line: bytes) -> bytes:
    """A verified line with its crc field cut out (see :func:`_verify`)."""
    return line[: line.rfind(_CRC_FIELD)] + b"}"


def _verify(line: bytes) -> tuple[int, bytes] | None:
    """``(seq, body)`` of one stripped line; ``None`` when its checksum
    fails (torn tail?).

    ``body`` is the line with its crc field cut out — the canonical
    JSON :func:`_encode` checksummed — so verifying reads no JSON.
    """
    cut = line.rfind(_CRC_FIELD)
    if cut < 0 or not line.endswith(b"}"):
        return None
    digits = line[cut + len(_CRC_FIELD):-1]
    body = line[:cut] + b"}"
    if not digits.isdigit() or zlib.crc32(body) != int(digits):
        return None
    # Keys are sorted and string values escape every quote, so the one
    # ``,"seq":`` in a record is its top-level key.
    at = body.rfind(_SEQ_FIELD)
    seq = _DIGITS.match(body, at + len(_SEQ_FIELD)) if at >= 0 else None
    return (int(seq.group()), body) if seq is not None else None


def _decode(body: bytes) -> dict | None:
    """The record a verified line body holds (``None`` if it is none)."""
    try:
        record = json.loads(body)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    return record if isinstance(record, dict) else None


def _lines(
    data: bytes, offset: int = 0, line_no: int = 0
) -> list[tuple[int, int, int, bytes]]:
    """``(byte offset, end offset, line number, stripped text)`` of each
    non-blank line of ``data``.

    ``offset`` and ``line_no`` place ``data`` in its segment: the byte
    offset it starts at and the number of lines before it.  A line's
    end offset is past its newline, if it has one.
    """
    out = []
    pieces = data.split(b"\n")
    last = len(pieces) - 1
    for k, raw in enumerate(pieces):
        end = offset + len(raw) + (k < last)
        line = raw.strip()
        if line:
            out.append((offset, end, line_no + k + 1, line))
        offset = end
    return out


def _gap(segment: Path, expected: int, found: int) -> JournalCorruptionError:
    return JournalCorruptionError(
        f"sequence gap in {segment.name}: "
        f"expected seq {expected}, found {found}"
    )


class _Checked:
    """The lines of one segment this process has verified.

    A gap-free run from the segment's first line: seq ``first + k``
    starts at byte ``offsets[k]``; ``end`` is the byte offset past the
    last verified line and ``lines`` that line's number.  ``torn`` is
    the byte offset of a torn final line the last check stopped at.
    """

    __slots__ = ("first", "offsets", "end", "lines", "torn")

    def __init__(self) -> None:
        self.first = 0
        self.offsets: list[int] = []
        self.end = 0
        self.lines = 0
        self.torn: int | None = None

    @property
    def next_seq(self) -> int | None:
        """The seq the next line must carry (None before any line)."""
        return self.first + len(self.offsets) if self.offsets else None

    def add(self, seq: int, offset: int, end: int, line_no: int) -> None:
        """Record the verified line that continues the run."""
        if not self.offsets:
            self.first = seq
        self.offsets.append(offset)
        self.end = end
        self.lines = line_no


class DeltaJournal:
    """An append-only, checksummed, segmented journal of deltas.

    Appends go to the newest segment (rotated every
    ``segment_records`` records); replay streams every segment in
    order, verifying checksums and sequence continuity of each line
    once.  Opening a journal scans segment *names* and checksums the
    raw text of the newest segment, decoding none of it; appends refuse
    a journal that check finds corrupt.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_records = int(segment_records)
        self._segments = sorted(
            p for p in self.path.iterdir()
            if p.name.startswith(_SEGMENT_PREFIX)
            and p.name.endswith(_SEGMENT_SUFFIX)
        )
        self._next_seq = 0
        self._tail_records = 0
        # (segment, byte offset) of a torn trailing write to truncate
        # away before the next append — appending after the fragment
        # would glue the new record onto it and tear that one too.
        self._torn: tuple[Path, int] | None = None
        # Where the journal fails its checksum or sequence, if appends
        # must refuse.
        self._corrupt: str | None = None
        # The lines verified so far, per segment: replay never checks a
        # line twice.
        self._checked: dict[Path, _Checked] = {}
        if self._segments:
            self._check_tail()

    def _check_tail(self) -> None:
        """Checksum every line of the tail segment.

        Counts its records (for rotation), positions the next seq after
        its last committed record and marks a torn final line for
        truncation.  A failing or out-of-sequence line anywhere before
        the last one is interior corruption: it is recorded, and appends
        refuse.  This is replay's own check, so the lines it verified
        are not checked again.
        """
        tail = self._segments[-1]
        try:
            for _ in self._bodies(tail, True, sys.maxsize, None):
                pass
        except JournalCorruptionError as exc:
            self._corrupt = str(exc)
        checked = self._checked[tail]
        self._tail_records = len(checked.offsets)
        if checked.offsets:
            self._next_seq = checked.next_seq
        if checked.torn is not None:
            self._torn = (tail, checked.torn)
        if self._tail_records == 0 and len(self._segments) > 1:
            # Tail segment holds nothing valid: count from the previous
            # segment's last record so seqs stay gap-free.  That segment
            # was rotated away whole, so a failing last line there is
            # corruption, not a torn append.
            previous = self._segments[-2]
            lines = _lines(previous.read_bytes())
            verified = _verify(lines[-1][3]) if lines else None
            if verified is not None:
                self._next_seq = verified[0] + 1
            elif self._corrupt is None:
                where = lines[-1][2] if lines else 1
                self._corrupt = f"corrupt record at {previous.name}:{where}"

    @property
    def journal_id(self) -> str:
        """Stable content key of this journal's location."""
        return "j" + canonical_digest(str(self.path.resolve()))[:16]

    @property
    def last_seq(self) -> int:
        """Highest appended sequence number (-1 when empty)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return self._next_seq

    # -- writing ----------------------------------------------------------

    def _segment_for_append(self) -> Path:
        if not self._segments or self._tail_records >= self.segment_records:
            index = len(self._segments)
            segment = self.path / f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"
            self._segments.append(segment)
            self._tail_records = 0
        return self._segments[-1]

    def _append_record(self, record: dict) -> int:
        if self._corrupt is not None:
            raise JournalCorruptionError(f"{self._corrupt}; refusing to append")
        if self._torn is not None:
            torn_segment, keep = self._torn
            with torn_segment.open("r+b") as fh:
                fh.truncate(keep)
            self._torn = None
        seq = self._next_seq
        record = dict(record, seq=seq)
        segment = self._segment_for_append()
        with segment.open("a", encoding="utf-8") as fh:
            fh.write(_encode(record))
        self._next_seq += 1
        self._tail_records += 1
        return seq

    def declare_source(
        self,
        name: str,
        available_from: float,
        available_to: float = TIME_HORIZON,
    ) -> SourceRecord:
        """Append a source declaration (idempotent re-declares are fine)."""
        seq = self._append_record({
            "kind": "source",
            "name": str(name),
            "available_from": float(available_from),
            "available_to": float(available_to),
        })
        return SourceRecord(seq, name, available_from, available_to)

    def append(
        self,
        source: str,
        quarter: int,
        add: Iterable[int] | np.ndarray = (),
        remove: Iterable[int] | np.ndarray = (),
    ) -> ObservationDelta:
        """Append one delta batch and return it with its sequence number."""
        add = unique_addresses(np.asarray(list(add) if not isinstance(add, np.ndarray) else add, dtype=np.uint32))
        remove = unique_addresses(np.asarray(list(remove) if not isinstance(remove, np.ndarray) else remove, dtype=np.uint32))
        seq = self._append_record({
            "kind": "delta",
            "source": str(source),
            "quarter": int(quarter),
            "add": [int(a) for a in add],
            "remove": [int(r) for r in remove],
        })
        return ObservationDelta(seq, source, int(quarter), add, remove)

    # -- replay -----------------------------------------------------------

    def _bodies(
        self,
        segment: Path,
        last_segment: bool,
        start_seq: int,
        expected: int | None,
    ) -> Iterator[tuple[int, bytes]]:
        """``(seq, body)`` of each line of one segment with ``seq >=
        start_seq``, checked against ``expected``, the seq the
        segment's first line must carry.

        Reading starts at ``start_seq``'s line when it is verified, else
        after the last verified line; only the lines past that are
        checksummed, and each joins the segment's verified run.
        """
        checked = self._checked.setdefault(segment, _Checked())
        known = len(checked.offsets)
        if known and expected is not None and checked.first != expected:
            raise _gap(segment, expected, checked.first)
        skip = max(start_seq - checked.first, 0)
        at = checked.offsets[skip] if skip < known else checked.end
        try:
            with open(segment, "rb") as fh:
                fh.seek(at)
                data = fh.read()
        except FileNotFoundError:
            return
        head = checked.end - at
        if head > 0:
            # Verified lines, seq `first + skip` onward: only cut them.
            seq = checked.first + skip
            for raw in data[:head].split(b"\n"):
                line = raw.strip()
                if line:
                    yield seq, _body(line)
                    seq += 1
            data = data[head:]
        if known:
            expected = checked.next_seq
        lines = _lines(data, checked.end, checked.lines)
        for k, (offset, end, line_no, line) in enumerate(lines):
            verified = _verify(line)
            if verified is None:
                if last_segment and k == len(lines) - 1:
                    # Torn tail from an interrupted append: the record
                    # never committed, so replay simply ends here.
                    checked.torn = offset
                    return
                raise JournalCorruptionError(
                    f"corrupt record at {segment.name}:{line_no} "
                    "(checksum failure in the journal interior)"
                )
            seq, body = verified
            if expected is not None and seq != expected:
                raise _gap(segment, expected, seq)
            expected = seq + 1
            checked.add(seq, offset, end, line_no)
            if seq >= start_seq:
                yield seq, body

    def replay(
        self, start_seq: int = 0
    ) -> Iterator[SourceRecord | ObservationDelta]:
        """Yield every committed record with ``seq >= start_seq``, in order.

        Every line is checked, the skipped prefix included, for its
        checksum and for gap-free sequencing — once per journal object:
        lines an earlier replay (or the open) verified are not checked
        again, so a replay reads from ``start_seq``'s line and
        checksums only lines appended since.  Replay after a crash
        therefore either reproduces the exact committed prefix or
        raises, never a silently different history.  Only the yielded
        records are JSON-decoded.
        """
        expected: int | None = None
        segments = list(self._segments)
        for index, segment in enumerate(segments):
            last_segment = index == len(segments) - 1
            for seq, body in self._bodies(
                segment, last_segment, start_seq, expected
            ):
                record = _decode(body)
                if record is None or record.get("seq") != seq:
                    raise JournalCorruptionError(
                        f"undecodable record seq {seq} in {segment.name}"
                    )
                if record["kind"] == "source":
                    yield SourceRecord(
                        seq,
                        record["name"],
                        float(record["available_from"]),
                        float(record["available_to"]),
                    )
                elif record["kind"] == "delta":
                    yield ObservationDelta(
                        seq,
                        record["source"],
                        int(record["quarter"]),
                        np.asarray(record["add"], dtype=np.uint32),
                        np.asarray(record["remove"], dtype=np.uint32),
                    )
                # unknown kinds are forward-compatibility: skip
            checked = self._checked[segment]
            if checked.offsets:
                expected = checked.next_seq


def journal_from_sources(
    sources: Mapping[str, MeasurementSource],
    path: str | Path,
    *,
    through: float = TIME_HORIZON,
) -> DeltaJournal:
    """Write a simulated history into a journal, quarter by quarter.

    Emits one source declaration per source, then one delta per
    (quarter, source) in chronological order — exactly the granularity
    :class:`~repro.sources.base.QuarterlySource` accumulates at, so a
    window materialised from the journal is identical to one collected
    live.  ``through`` bounds the emitted history (exclusive), letting
    tests and rehearsals stop mid-stream and append the rest later.
    """
    journal = DeltaJournal(path)
    if len(journal):
        raise ValueError(
            f"journal at {journal.path} is not empty "
            f"(seq {journal.last_seq}); refusing to re-append the history"
        )
    ordered = dict(sorted(sources.items()))
    for name, source in ordered.items():
        journal.declare_source(
            name, source.available_from, source.available_to
        )
    first = quarter_of(TIME_ORIGIN)
    last = quarter_of(min(through, TIME_HORIZON) - 1e-9)
    for quarter in range(first, last + 1):
        q_start, q_end = quarter_bounds(quarter)
        for name, source in ordered.items():
            lo = max(q_start, source.available_from)
            hi = min(q_end, source.available_to)
            if lo >= hi:
                continue
            if isinstance(source, QuarterlySource):
                observed = source.quarter_set(quarter)
            else:
                # Faulty wrappers and custom sources: one collect per
                # quarter reproduces the window union bit-for-bit
                # because perturbations are seeded per quarter.
                observed = source.collect(q_start, q_end).addresses
            journal.append(name, quarter, add=observed)
    return journal
