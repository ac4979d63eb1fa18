"""Streaming estimation over a delta journal.

:class:`StreamEstimator` tails a :class:`~repro.stream.journal.DeltaJournal`
and turns it into the same artifacts the batch pipeline produces:

* **ingest** replays committed deltas into per-(source, quarter)
  membership arrays, in O(tail records); the live sliding window's
  :class:`~repro.stream.tabulator.IncrementalTabulator` is built from
  them only when :meth:`StreamEstimator.tabulator` asks for it;
* **close** materialises a window through the ordinary stage pipeline —
  an :class:`~repro.engine.executor.Executor` over
  :class:`JournalSource` views of the journaled quarters — so spoof
  filtering, integrity scoring, quarantine→refit and the estimates
  themselves are *exactly* the batch computation (parity is by
  construction, not approximation);
* **snapshot** persists the whole stream state through the
  content-addressed :class:`~repro.engine.store.ArtifactStore`, and
  :meth:`StreamEstimator.resume` restores it and re-ingests only the
  journal tail.

Late events are first-class: a delta for an already-closed window bumps
the stream's data version, the affected windows show up in
:meth:`stale_windows`, and re-closing them emits a revised result with
an incremented revision counter.

Correctness note on caching: artifact keys are content-addressed in
*parameters* (window bounds + options), not in data, because batch
sources are immutable for a run.  Journaled data mutates, so the
stream uses a fresh per-version :class:`~repro.engine.artifacts.ArtifactCache`
— never the persistent artifact tier — for window closes; only
snapshots touch the persistent store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.engine.artifacts import MISS, ArtifactCache, ArtifactKey
from repro.engine.executor import ExecutionPolicy, Executor
from repro.engine.report import RunReport
from repro.engine.stages import PipelineOptions, WindowResult
from repro.ipspace.addresses import unique_addresses
from repro.ipspace.ipset import IPSet
from repro.obs.observer import Observer
from repro.sources.base import (
    MeasurementSource,
    quarter_bounds,
    quarter_of,
    union_of_quarters,
)
from repro.stream.journal import DeltaJournal, ObservationDelta, SourceRecord
from repro.stream.tabulator import IncrementalTabulator

if TYPE_CHECKING:
    from repro.analysis.windows import TimeWindow
    from repro.engine.faults import FaultInjector
    from repro.engine.store import ArtifactStore

#: Stage name of persisted stream snapshots in the artifact store.
SNAPSHOT_STAGE = "stream_snapshot"

#: The sliding live window spans this many trailing quarters (1 year,
#: matching the batch sweep's window length).
LIVE_WINDOW_QUARTERS = 4

_EMPTY = np.zeros(0, dtype=np.uint32)


class JournalSource(MeasurementSource):
    """A measurement source materialised from journaled quarters.

    ``collect`` applies :func:`repro.sources.base.union_of_quarters`, the
    rule :class:`~repro.sources.base.QuarterlySource` collects by, to the
    journal's per-quarter membership arrays, so every stage downstream
    sees byte-identical datasets to a live batch collection of the same
    history.
    """

    def __init__(
        self,
        name: str,
        available_from: float,
        available_to: float,
        quarters: Mapping[int, np.ndarray],
    ) -> None:
        super().__init__(name, available_from, available_to)
        self._quarters = dict(quarters)

    def quarter_set(self, index: int) -> np.ndarray:
        """Sorted-unique journaled addresses for one quarter."""
        return self._quarters.get(index, _EMPTY)

    def collect(self, start: float, end: float) -> IPSet:
        """Union of the window's (availability-clipped) journaled quarters."""
        return union_of_quarters(self, start, end)


class ClosedWindow:
    """One closed (or revised) window and the stream state it saw."""

    __slots__ = ("result", "version", "last_seq", "revision")

    def __init__(
        self,
        result: WindowResult,
        version: int,
        last_seq: int,
        revision: int = 0,
    ) -> None:
        self.result = result
        self.version = version
        self.last_seq = last_seq
        self.revision = revision


class StreamEstimator:
    """Incremental estimation: ingest deltas, close windows on demand."""

    def __init__(
        self,
        internet,
        journal: DeltaJournal,
        *,
        options: PipelineOptions | None = None,
        policy: ExecutionPolicy | None = None,
        store: "ArtifactStore | None" = None,
        observer: Observer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.internet = internet
        self.journal = journal
        self.options = options or PipelineOptions()
        self.policy = policy or ExecutionPolicy()
        self.store = store
        self.observer = observer if observer is not None else Observer.disabled()
        self.faults = faults
        self.report = RunReport()
        self._sources: dict[str, tuple[float, float]] = {}
        self._quarters: dict[str, dict[int, np.ndarray]] = {}
        self._quarter_versions: dict[tuple[str, int], int] = {}
        self._closed: dict[tuple[float, float], ClosedWindow] = {}
        self._next_seq = 0
        self._version = 0
        self._executor: Executor | None = None
        self._executor_version = -1
        self._tabulator: IncrementalTabulator | None = None
        self._tabulator_version = -1
        self._latest_quarter: int | None = None
        self._snapshot_generation = 0
        self._snapshot_sig: tuple | None = None

    # -- ingest ------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The first journal sequence number not yet applied."""
        return self._next_seq

    @property
    def version(self) -> int:
        """Monotonic data version; bumps on every effective mutation."""
        return self._version

    def ingest(self, limit: int | None = None) -> int:
        """Apply the journal tail; returns the number of records applied.

        Only *effective* changes bump the data version: a delta whose
        adds are already present and whose removes are absent leaves
        the stream (and every cached close) untouched.
        """
        applied = 0
        for record in self.journal.replay(self._next_seq):
            if limit is not None and applied >= limit:
                break
            if isinstance(record, SourceRecord):
                self._apply_source(record)
            elif isinstance(record, ObservationDelta):
                self._apply_delta(record)
            self._next_seq = record.seq + 1
            applied += 1
        return applied

    def _apply_source(self, record: SourceRecord) -> None:
        meta = (record.available_from, record.available_to)
        if self._sources.get(record.name) == meta:
            return
        self._sources[record.name] = meta
        self._quarters.setdefault(record.name, {})
        self._version += 1
        self.observer.inc("stream_sources_declared_total")

    def _apply_delta(self, delta: ObservationDelta) -> None:
        name = delta.source
        if name not in self._sources:
            raise ValueError(
                f"delta seq {delta.seq} references undeclared source {name!r}"
            )
        quarters = self._quarters[name]
        current = quarters.get(delta.quarter, _EMPTY)
        updated = np.setdiff1d(
            unique_addresses(np.concatenate([current, delta.add])),
            delta.remove,
            assume_unique=True,
        )
        added = np.setdiff1d(updated, current, assume_unique=True)
        removed = np.setdiff1d(current, updated, assume_unique=True)
        self.observer.inc("stream_deltas_ingested_total")
        if not added.size and not removed.size:
            return
        if updated.size:
            quarters[delta.quarter] = updated
        else:
            quarters.pop(delta.quarter, None)
        self._version += 1
        self._quarter_versions[(name, delta.quarter)] = self._version
        if added.size:
            self.observer.inc("stream_addresses_added_total", float(added.size))
        if removed.size:
            self.observer.inc(
                "stream_addresses_removed_total", float(removed.size)
            )
        latest = self._latest_quarter
        if latest is None or delta.quarter > latest:
            self._latest_quarter = delta.quarter

    # -- live sliding window ----------------------------------------------

    def live_window(self) -> "TimeWindow | None":
        """The sliding 1-year window ending at the latest seen quarter."""
        from repro.analysis.windows import TimeWindow

        if self._latest_quarter is None:
            return None
        _, end = quarter_bounds(self._latest_quarter)
        return TimeWindow(end - LIVE_WINDOW_QUARTERS / 4.0, end)

    def _target_quarters(self) -> tuple[int, ...]:
        if self._latest_quarter is None:
            return ()
        first = self._latest_quarter - (LIVE_WINDOW_QUARTERS - 1)
        return tuple(range(first, self._latest_quarter + 1))

    def tabulator(self) -> IncrementalTabulator | None:
        """The live window's tabulator, built on demand from the
        journaled quarters and rebuilt once the data version moves."""
        target = self._target_quarters()
        if not target or not self._sources:
            return None
        if self._tabulator is None or self._tabulator_version != self._version:
            tabulator = IncrementalTabulator(sorted(self._sources))
            for name in tabulator.source_names:
                quarters = self._quarters.get(name, {})
                for q in target:
                    members = quarters.get(q)
                    if members is not None and members.size:
                        tabulator.add(name, members)
            self._tabulator = tabulator
            self._tabulator_version = self._version
        return self._tabulator

    def _live_observed(self) -> int:
        """Distinct addresses any source saw in the live quarters."""
        target = self._target_quarters()
        chunks = [
            quarters[q]
            for quarters in self._quarters.values()
            for q in target
            if q in quarters
        ]
        if not chunks:
            return 0
        return int(unique_addresses(np.concatenate(chunks)).size)

    # -- window closes -----------------------------------------------------

    def sources(self) -> dict[str, JournalSource]:
        """Journal-backed source views at the current data version."""
        return {
            name: JournalSource(name, *meta, self._quarters.get(name, {}))
            for name, meta in sorted(self._sources.items())
        }

    def executor(self) -> Executor:
        """An executor over the current data version.

        The artifact cache is rebuilt whenever the data version moved —
        stage keys carry no data dependence, so serving a stale
        artifact after a late event would silently corrupt a revision.
        """
        if self._executor is None or self._executor_version != self._version:
            self._executor = Executor(
                self.internet,
                sources=self.sources(),
                options=self.options,
                cache=ArtifactCache(),
                report=self.report,
                policy=self.policy,
                faults=self.faults,
                observer=self.observer,
            )
            self._executor_version = self._version
        return self._executor

    def coverage_end(self) -> float | None:
        """End of the latest quarter any delta has touched."""
        if self._latest_quarter is None:
            return None
        return quarter_bounds(self._latest_quarter)[1]

    def closeable_windows(self) -> "list[TimeWindow]":
        """Standard sweep windows fully covered by ingested data."""
        from repro.analysis.windows import standard_windows

        end = self.coverage_end()
        if end is None:
            return []
        return [w for w in standard_windows() if w.end <= end + 1e-9]

    def close(self, window: "TimeWindow") -> WindowResult:
        """Close one window: the full batch-stage computation.

        Re-closing a window after late events produces a *revision*:
        the previous result is replaced and the revision counter
        increments.  Closing at an unchanged version is a cache hit on
        the executor and returns the recorded result's artifact.
        """
        executor = self.executor()
        result = executor.window_result(window)
        bounds = (window.start, window.end)
        previous = self._closed.get(bounds)
        revision = 0
        if previous is not None:
            if previous.version == self._version:
                return previous.result
            revision = previous.revision + 1
        self._closed[bounds] = ClosedWindow(
            result, self._version, self._next_seq - 1, revision
        )
        self.observer.inc("stream_windows_closed_total")
        if revision:
            self.observer.inc("stream_windows_revised_total")
        self.observer.event(
            "stream.window_closed",
            level="info",
            window=f"{window.start:.2f}-{window.end:.2f}",
            seq=str(self._next_seq - 1),
            revision=str(revision),
            excluded=",".join(result.excluded_sources),
        )
        return result

    def advance(
        self, windows: "Sequence[TimeWindow] | None" = None
    ) -> list[WindowResult]:
        """Ingest the journal tail, then close every coverable window.

        Stale windows (closed before a late event touched their
        quarters) are re-closed too, so the returned results always
        reflect the full journal.
        """
        self.ingest()
        if windows is None:
            windows = self.closeable_windows()
        stale = set(self.stale_windows())
        out = []
        for window in windows:
            bounds = (window.start, window.end)
            if bounds in self._closed and window not in stale:
                out.append(self._closed[bounds].result)
            else:
                out.append(self.close(window))
        return out

    def stale_windows(self) -> "list[TimeWindow]":
        """Closed windows invalidated by late events (need re-closing)."""
        from repro.analysis.windows import TimeWindow

        stale = []
        for bounds, closed in sorted(self._closed.items()):
            start, end = bounds
            touched = range(quarter_of(start), quarter_of(end - 1e-9) + 1)
            if any(
                self._quarter_versions.get((name, q), 0) > closed.version
                for name in self._sources
                for q in touched
            ):
                stale.append(TimeWindow(start, end))
        return stale

    def revision_of(self, window: "TimeWindow") -> int | None:
        """Revision counter of a closed window (None if never closed)."""
        closed = self._closed.get((window.start, window.end))
        return closed.revision if closed is not None else None

    # -- snapshots ---------------------------------------------------------

    def _snapshot_key(self, generation: int) -> ArtifactKey:
        # Content-addressed stores are idempotent per key (put skips
        # existing entries), so a mutating snapshot must move to a new
        # key every write: the generation counter is part of the key
        # and resume probes for the highest one present.
        return ArtifactKey(
            stage=SNAPSHOT_STAGE,
            params=(self.journal.journal_id, generation),
        )

    def snapshot(self) -> ArtifactKey:
        """Persist the stream state to the artifact store.

        The snapshot holds everything :meth:`resume` needs to skip the
        already-applied journal prefix: per-quarter membership and
        closed results with their version/seq/revision.  Returns the
        store key.
        """
        if self.store is None:
            raise ValueError(
                "snapshot requires an artifact store (pass store= / --store)"
            )
        sig = (self._next_seq, self._version, tuple(sorted(self._closed)))
        if sig == self._snapshot_sig and self._snapshot_generation:
            return self._snapshot_key(self._snapshot_generation)
        payload = {
            "journal_id": self.journal.journal_id,
            "next_seq": self._next_seq,
            "version": self._version,
            "sources": dict(self._sources),
            "quarters": {
                name: dict(quarters)
                for name, quarters in self._quarters.items()
            },
            "quarter_versions": dict(self._quarter_versions),
            "latest_quarter": self._latest_quarter,
            "closed": [
                (bounds, closed.result, closed.version, closed.last_seq,
                 closed.revision)
                for bounds, closed in sorted(self._closed.items())
            ],
        }
        self._snapshot_generation += 1
        self._snapshot_sig = sig
        key = self._snapshot_key(self._snapshot_generation)
        self.store.put(key, payload)
        self.observer.inc("stream_snapshots_written_total")
        return key

    @classmethod
    def resume(
        cls,
        internet,
        journal: DeltaJournal,
        *,
        options: PipelineOptions | None = None,
        policy: ExecutionPolicy | None = None,
        store: "ArtifactStore | None" = None,
        observer: Observer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> "StreamEstimator":
        """Restore from the last snapshot (if any), positioned at its seq.

        Without a store — or with no snapshot for this journal — this
        is simply a fresh estimator; either way the caller follows with
        :meth:`ingest`/:meth:`advance` to absorb the journal tail.
        """
        stream = cls(
            internet,
            journal,
            options=options,
            policy=policy,
            store=store,
            observer=observer,
            faults=faults,
        )
        if store is None:
            return stream
        generation = 0
        while stream._snapshot_key(generation + 1) in store:
            generation += 1
        if generation == 0:
            return stream
        payload = store.get(stream._snapshot_key(generation))
        if payload is MISS:
            return stream
        if payload.get("journal_id") != journal.journal_id:
            return stream
        stream._snapshot_generation = generation
        stream._next_seq = int(payload["next_seq"])
        stream._version = int(payload["version"])
        stream._sources = {
            name: (float(meta[0]), float(meta[1]))
            for name, meta in payload["sources"].items()
        }
        stream._quarters = {
            name: {
                int(q): np.asarray(arr, dtype=np.uint32)
                for q, arr in quarters.items()
            }
            for name, quarters in payload["quarters"].items()
        }
        stream._quarter_versions = {
            (name, int(q)): int(v)
            for (name, q), v in payload["quarter_versions"].items()
        }
        latest = payload.get("latest_quarter")
        stream._latest_quarter = int(latest) if latest is not None else None
        for bounds, result, version, last_seq, revision in payload["closed"]:
            stream._closed[tuple(bounds)] = ClosedWindow(
                result, int(version), int(last_seq), int(revision)
            )
        stream._snapshot_sig = (
            stream._next_seq,
            stream._version,
            tuple(sorted(stream._closed)),
        )
        stream.observer.inc("stream_snapshots_restored_total")
        return stream

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """A flat status snapshot for the CLI and tests."""
        live = self.live_window()
        return {
            "journal_id": self.journal.journal_id,
            "next_seq": self._next_seq,
            "version": self._version,
            "sources": {
                name: {
                    "available_from": meta[0],
                    "available_to": meta[1],
                    "quarters": len(self._quarters.get(name, {})),
                    "addresses": int(
                        sum(
                            arr.size
                            for arr in self._quarters.get(name, {}).values()
                        )
                    ),
                }
                for name, meta in sorted(self._sources.items())
            },
            "live_window": (live.start, live.end) if live is not None else None,
            "live_observed": self._live_observed(),
            "closed_windows": [
                {
                    "window": list(bounds),
                    "revision": closed.revision,
                    "seq": closed.last_seq,
                    "estimated_addresses": closed.result.estimated_addresses,
                }
                for bounds, closed in sorted(self._closed.items())
            ],
            "stale_windows": [
                (w.start, w.end) for w in self.stale_windows()
            ],
        }
