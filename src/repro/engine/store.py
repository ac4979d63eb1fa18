"""Pluggable artifact stores: in-memory tier + persistent local backend.

The :class:`~repro.engine.artifacts.ArtifactCache` is a per-run LRU
that dies with the Executor; window sweeps, sensitivity grids and
cross-validation folds would therefore start cold in every process.
This module provides the storage layer's :class:`ArtifactStore`
interface with two backends:

* the :class:`~repro.engine.artifacts.ArtifactCache` (registered as a
  virtual subclass) — fast, process-local, evicting;
* :class:`LocalStore` — a persistent local-directory backend that
  stores payloads *content-addressed* by the canonical key digest
  (:meth:`~repro.engine.artifacts.ArtifactKey.digest`), survives the
  process, and can be shared between concurrent runs.

:class:`TieredStore` composes the two write-through: every ``get``
checks memory first and falls back to the persistent directory
(promoting hits into memory), every ``put`` lands in both.  Pool
workers rebuild the same tiered store from its picklable :meth:`spec`,
so a window computed by one worker is readable by every other — and by
next week's run.

This is the only module that knows the on-disk entry format.  Layout
(``token = f"{stage}-{digest[:16]}"``)::

    <root>/v3/<stage>/<token>.arr    array payloads (IPSet, tables, ...)
    <root>/v3/<stage>/<token>.pkl    everything else (crc-framed pickle)

Both kinds are one 8-byte frame header (a 4-byte magic, ``RARR`` or
``RART``, and a crc32) followed by the body.  An ``.arr`` body is a
zlib level-1 stream of a JSON manifest (name, dtype, shape per array)
and the arrays' raw bytes; 1-D ``uint32`` arrays (sorted addresses)
go in as first differences, which zlib packs far tighter than the
addresses.  Its crc covers the *decoded* names, dtypes and bytes, so
a decoding bug fails the check exactly as disk damage does.  A
``.pkl`` crc covers the pickle bytes, checked before unpickling.

The ``v3`` segment is :data:`~repro._canonical.KEY_SCHEMA_VERSION`:
bumping the schema strands old entries in a directory the new code
never looks at, so stale entries miss cleanly instead of colliding
(``stats`` and ``gc`` still see them, ``verify`` counts them stale).
Writes are lock-free concurrency-safe (unique temp name +
``os.replace``); reads verify a crc32 before trusting any payload, and
a corrupt entry is unlinked, surfaced as a ``cache.corrupt_spill``
event and degraded to a recomputing miss.
"""

from __future__ import annotations

import abc
import itertools
import json
import logging
import os
import pickle
import struct
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Iterator, Mapping

import numpy as np

from repro._canonical import KEY_SCHEMA_VERSION
from repro.core.histories import ContingencyTable
from repro.engine.artifacts import (
    DEFAULT_MAX_BYTES,
    MISS,
    ArtifactCache,
    ArtifactKey,
)
from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    from repro.engine.faults import FaultInjector
    from repro.obs.observer import Observer

logger = logging.getLogger(__name__)

#: Frame header of every store entry: magic + crc32.
_FRAME_HEADER = struct.Struct("<4sI")
#: Magic of ``.pkl`` entries, whose crc32 covers the pickle bytes.
PICKLE_MAGIC = b"RART"
#: Magic of array entries, whose crc32 covers the decoded payload.
ARRAY_MAGIC = b"RARR"
ARRAY_SUFFIX = ".arr"
PICKLE_SUFFIX = ".pkl"
#: The suffixes an entry of the current schema may carry, in lookup order.
_CURRENT_SUFFIXES = (ARRAY_SUFFIX, PICKLE_SUFFIX)
#: Entry suffixes :meth:`LocalStore.entries` lists; ``.npz`` is the
#: array format of key schema 2, kept visible so ``stats`` and ``gc``
#: still count and reclaim pre-bump entries.
ENTRY_SUFFIXES = (*_CURRENT_SUFFIXES, ".npz")
_MANIFEST_LEN = struct.Struct("<I")

#: Temp files older than this are presumed orphaned by a killed writer
#: and are swept during :meth:`LocalStore.gc`.
STALE_TMP_SECONDS = 3600.0


# -- entry codec ------------------------------------------------------------


def _spill_payload(value: Any) -> dict[str, np.ndarray] | None:
    """Encode an array-backed artifact as named arrays (None if unsupported)."""
    if isinstance(value, IPSet):
        return {"__ipset__": value.addresses}
    if isinstance(value, ContingencyTable):
        names = np.array(list(value.source_names), dtype=np.str_)
        return {"__table_counts__": value.counts, "__table_names__": names}
    if (
        isinstance(value, Mapping)
        and value
        and all(isinstance(v, IPSet) for v in value.values())
    ):
        return {f"set:{name}": s.addresses for name, s in value.items()}
    return None


def _restore_payload(payload: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`_spill_payload`."""
    if "__ipset__" in payload:
        return IPSet.from_sorted_unique(payload["__ipset__"])
    if "__table_counts__" in payload:
        counts = payload["__table_counts__"]
        names = tuple(str(n) for n in payload["__table_names__"])
        num_sources = int(np.log2(counts.size))
        return ContingencyTable(num_sources, counts, names)
    return {
        name[len("set:"):]: IPSet.from_sorted_unique(payload[name])
        for name in payload
        if name.startswith("set:")
    }


def _is_delta_coded(dtype: np.dtype, ndim: int) -> bool:
    """Whether an array travels as first differences (1-D ``uint32``)."""
    return dtype == np.uint32 and ndim == 1


def _encode_arrays(payload: Mapping[str, np.ndarray]) -> bytes:
    """One framed ``.arr`` entry: header, then the zlib level-1 body."""
    manifest = []
    arrays = []
    for name, arr in payload.items():
        arr = np.ascontiguousarray(arr)
        manifest.append([name, arr.dtype.str, list(arr.shape)])
        if _is_delta_coded(arr.dtype, arr.ndim):
            deltas = np.empty_like(arr)
            deltas[:1] = arr[:1]
            np.subtract(arr[1:], arr[:-1], out=deltas[1:])
            arr = deltas
        arrays.append(arr)
    head = json.dumps(manifest).encode("utf-8")
    compressor = zlib.compressobj(1)
    chunks = [
        _FRAME_HEADER.pack(ARRAY_MAGIC, _payload_checksum(payload)),
        compressor.compress(_MANIFEST_LEN.pack(len(head)) + head),
    ]
    chunks.extend(compressor.compress(arr) for arr in arrays)
    chunks.append(compressor.flush())
    return b"".join(chunks)


def _decode_arrays(body: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`_encode_arrays` after the frame header.

    Raises ``zlib.error``, ``ValueError``, ``TypeError`` or
    ``struct.error`` on a body it cannot parse.
    """
    raw = zlib.decompress(body)
    (size,) = _MANIFEST_LEN.unpack_from(raw)
    offset = _MANIFEST_LEN.size + size
    payload = {}
    for name, dtype, shape in json.loads(raw[_MANIFEST_LEN.size:offset]):
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        offset += arr.nbytes
        if _is_delta_coded(dtype, len(shape)):
            payload[name] = np.cumsum(arr, dtype=np.uint32)
        else:
            payload[name] = arr.reshape(shape).copy()
    if offset != len(raw):
        raise ValueError("trailing bytes after the last array")
    return payload


def _payload_checksum(payload: Mapping[str, np.ndarray]) -> int:
    """crc32 over the payload's names, dtypes and array bytes, order-independent."""
    crc = 0
    for name in sorted(payload):
        crc = zlib.crc32(name.encode("utf-8"), crc)
        arr = np.ascontiguousarray(payload[name])
        crc = zlib.crc32(str(arr.dtype).encode("utf-8"), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc


#: Process-wide sequence for unique temp-file names.  Two threads (or
#: two stores) in one process writing the same entry still get distinct
#: temp paths; distinct processes are separated by pid.
_TMP_SEQ = itertools.count()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Publish ``data`` under ``path`` via unique temp name + ``os.replace``.

    Lock-free concurrency-safe: every writer uses its own
    ``.{name}.{pid}-{seq}.tmp`` in the same directory, so concurrent
    runs sharing one store directory race only on the final atomic
    rename — last writer wins, and no reader can ever observe a
    half-written file under the final name.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{next(_TMP_SEQ)}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class CorruptSpillError(RuntimeError):
    """A store entry failed its checksum or could not be decoded."""

    def __init__(
        self,
        message: str,
        *,
        stored_crc: int | None = None,
        computed_crc: int | None = None,
    ) -> None:
        super().__init__(message)
        self.stored_crc = stored_crc
        self.computed_crc = computed_crc


class ArtifactStore(abc.ABC):
    """What the engine requires of an artifact store.

    ``get`` returns the cached value or the :data:`MISS` sentinel;
    ``put`` inserts (both keyed by :class:`ArtifactKey`); ``stats``
    returns a flat counter snapshot.  ``describe`` and ``spec`` have
    usable defaults: provenance for the run ledger, and the picklable
    worker-rebuild spec (``None`` meaning "nothing to share — workers
    build their own").
    """

    @abc.abstractmethod
    def get(self, key: ArtifactKey) -> Any:
        """The stored value for ``key``, or the :data:`MISS` sentinel."""

    @abc.abstractmethod
    def put(self, key: ArtifactKey, value: Any) -> None:
        """Insert ``value`` under ``key``."""

    @abc.abstractmethod
    def __contains__(self, key: ArtifactKey) -> bool:
        """Whether an entry exists for ``key`` (no value materialised)."""

    @abc.abstractmethod
    def stats(self) -> dict[str, int]:
        """Flat counter snapshot (hits, misses, backend-specific rest)."""

    def describe(self) -> dict[str, Any]:
        """Provenance of this store for the run ledger (``run.json``)."""
        return {"backend": type(self).__name__}

    def spec(self) -> dict[str, Any] | None:
        """Picklable worker-rebuild spec; ``None`` = nothing to share."""
        return None


# The LRU cache must not import this module (the store imports it); it
# satisfies the contract structurally, so register it.
ArtifactStore.register(ArtifactCache)


def _warn_corrupt_entry(
    observer: "Observer | None",
    key: ArtifactKey,
    path: str | Path,
    exc: CorruptSpillError,
) -> None:
    """Surface a corrupt store entry: structured event or warning log."""
    attrs: dict[str, Any] = {
        "key": key.token(),
        "stage": key.stage,
        "path": str(path),
        "error": str(exc),
    }
    if exc.stored_crc is not None:
        attrs["stored_crc"] = f"{exc.stored_crc:#010x}"
        attrs["computed_crc"] = f"{exc.computed_crc:#010x}"
    if observer is not None:
        observer.event("cache.corrupt_spill", level="warning", **attrs)
    else:
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        logger.warning("cache.corrupt_spill %s", detail)


class LocalStore(ArtifactStore):
    """Persistent content-addressed artifact store in a local directory.

    Entries never expire on their own — reclamation is explicit via
    :meth:`gc` (by total size and/or age, oldest ``mtime`` first).
    ``put`` is idempotent: an existing entry is not rewritten (content
    addressing makes the bytes equivalent), only its ``mtime`` is
    refreshed so gc treats it as recently useful.
    """

    def __init__(
        self,
        root: str | Path,
        observer: "Observer | None" = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.root = Path(root)
        self.observer = observer
        self.faults = faults
        self._put_counts: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.put_skips = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.corrupt_entries = 0
        # Lookups build plain string paths, not pathlib ones: they run
        # once per stage resolution.
        self._dir = os.path.join(self.root, f"v{KEY_SCHEMA_VERSION}")

    # -- paths ------------------------------------------------------------

    @property
    def _version_dir(self) -> Path:
        return Path(self._dir)

    def _stem(self, key: ArtifactKey) -> str:
        """The entry path of ``key`` without its suffix."""
        return os.path.join(self._dir, key.stage, key.token())

    def _open(self, key: ArtifactKey) -> BinaryIO | None:
        """``key``'s entry opened for reading, or None if there is none.

        One ``open`` per suffix, no separate existence probe; an entry
        that exists but cannot be opened raises ``OSError``.
        """
        stem = self._stem(key)
        for suffix in _CURRENT_SUFFIXES:
            try:
                return open(stem + suffix, "rb")
            except FileNotFoundError:
                continue
        return None

    def __contains__(self, key: ArtifactKey) -> bool:
        try:
            entry = self._open(key)
        except OSError:
            return True  # present, if unreadable: get degrades it to a miss
        if entry is None:
            return False
        entry.close()
        return True

    # -- get/put ----------------------------------------------------------

    def get(self, key: ArtifactKey) -> Any:
        """Read + checksum-verify; corruption degrades to a miss."""
        try:
            entry = self._open(key)
            if entry is None:
                self.misses += 1
                return MISS
            with entry:
                path, data = entry.name, entry.read()
        except OSError as exc:  # racing gc/unlink: plain miss
            logger.debug("store read failed for %s: %s", key.token(), exc)
            self.misses += 1
            return MISS
        try:
            value = self._decode(path, data)
        except CorruptSpillError as exc:
            Path(path).unlink(missing_ok=True)
            self.corrupt_entries += 1
            _warn_corrupt_entry(self.observer, key, path, exc)
            self.misses += 1
            return MISS
        self.hits += 1
        self.bytes_read += len(data)
        return value

    def put(self, key: ArtifactKey, value: Any) -> None:
        """Atomically persist ``value``; idempotent for existing keys."""
        stem = self._stem(key)
        for suffix in _CURRENT_SUFFIXES:
            # Content-addressed: an existing entry holds the same bytes.
            # Refreshing its mtime (so gc sees it as recently useful) is
            # also the existence probe.
            try:
                os.utime(stem + suffix)
            except FileNotFoundError:
                continue
            except OSError:
                pass
            self.put_skips += 1
            return
        payload = _spill_payload(value)
        if payload is not None:
            data, path = _encode_arrays(payload), Path(stem + ARRAY_SUFFIX)
        else:
            body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            header = _FRAME_HEADER.pack(PICKLE_MAGIC, zlib.crc32(body))
            data, path = header + body, Path(stem + PICKLE_SUFFIX)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, data)
        self.puts += 1
        self.bytes_written += len(data)
        index = self._put_counts.get(key.stage, 0)
        self._put_counts[key.stage] = index + 1
        if self.faults is not None:
            self.faults.corrupt_spill(key.stage, index, path)

    @staticmethod
    def _decode(path: str | Path, data: bytes) -> Any:
        """Decode + verify one entry's bytes (raises on any corruption)."""
        name = os.path.basename(path)
        if len(data) < _FRAME_HEADER.size:
            raise CorruptSpillError(f"truncated store entry {name}")
        magic, stored = _FRAME_HEADER.unpack_from(data)
        pickled = name.endswith(PICKLE_SUFFIX)
        if magic != (PICKLE_MAGIC if pickled else ARRAY_MAGIC):
            raise CorruptSpillError(f"bad magic in store entry {name}")
        body = data[_FRAME_HEADER.size :]
        if pickled:
            computed = zlib.crc32(body)
        else:
            try:
                payload = _decode_arrays(body)
            except (zlib.error, ValueError, TypeError, struct.error) as exc:
                raise CorruptSpillError(
                    f"unreadable store entry {name}"
                ) from exc
            computed = _payload_checksum(payload)
        if stored != computed:
            raise CorruptSpillError(
                f"checksum mismatch in {name}: "
                f"stored crc32 {stored:#010x} != computed {computed:#010x}",
                stored_crc=stored,
                computed_crc=computed,
            )
        if not pickled:
            return _restore_payload(payload)
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise CorruptSpillError(
                f"undecodable store entry {name}"
            ) from exc

    # -- accounting and maintenance ---------------------------------------

    def stats(self) -> dict[str, int]:
        """Lifetime counters of this store instance (not the directory)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "put_skips": self.put_skips,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "corrupt_entries": self.corrupt_entries,
        }

    def describe(self) -> dict[str, Any]:
        """Backend, directory and key-schema provenance for the ledger."""
        return {
            "backend": "local",
            "path": str(self.root),
            "key_schema": KEY_SCHEMA_VERSION,
        }

    def spec(self) -> dict[str, Any] | None:
        """Rebuild spec: workers reopen the same directory."""
        return {"path": str(self.root)}

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the store (any schema version)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*")):
            if path.is_file() and path.suffix in ENTRY_SUFFIXES:
                yield path

    def usage(self) -> dict[str, int]:
        """Point-in-time directory scan: entry count, bytes, stages."""
        entries = 0
        total = 0
        stages: dict[str, int] = {}
        for path in self.entries():
            entries += 1
            total += path.stat().st_size
            stages[path.parent.name] = stages.get(path.parent.name, 0) + 1
        return {"entries": entries, "bytes": total, "stages": stages}

    def gc(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> dict[str, int]:
        """Reclaim space: drop entries by age, then by size, oldest first.

        ``max_age`` is seconds since last use (mtime — refreshed by
        idempotent re-puts); ``max_bytes`` bounds the total store size
        after collection.  Orphaned temp files older than
        :data:`STALE_TMP_SECONDS` are always swept.
        """
        now = time.time() if now is None else now
        removed = removed_bytes = 0
        tmp_removed = 0
        if self.root.is_dir():
            for path in self.root.rglob(".*.tmp"):
                try:
                    if now - path.stat().st_mtime > STALE_TMP_SECONDS:
                        path.unlink(missing_ok=True)
                        tmp_removed += 1
                except OSError:
                    continue
        survivors: list[tuple[float, int, Path]] = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            if max_age is not None and now - stat.st_mtime > max_age:
                path.unlink(missing_ok=True)
                removed += 1
                removed_bytes += stat.st_size
            else:
                survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            survivors.sort()  # oldest mtime first
            total = sum(size for _, size, _ in survivors)
            while survivors and total > max_bytes:
                _, size, path = survivors.pop(0)
                path.unlink(missing_ok=True)
                removed += 1
                removed_bytes += size
                total -= size
        kept = sum(1 for _ in self.entries())
        kept_bytes = sum(p.stat().st_size for p in self.entries())
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "tmp_removed": tmp_removed,
            "kept": kept,
            "kept_bytes": kept_bytes,
        }

    def verify(self, delete: bool = False) -> dict[str, Any]:
        """Checksum-verify every current entry; optionally delete the corrupt.

        Entries of other key-schema versions are unreadable by design:
        they are counted as ``stale``, never corrupt, and left to ``gc``.
        """
        checked = stale = 0
        corrupt: list[str] = []
        for path in self.entries():
            if not path.is_relative_to(self._version_dir):
                stale += 1
                continue
            checked += 1
            try:
                self._decode(path, path.read_bytes())
            except CorruptSpillError:
                corrupt.append(str(path))
                if delete:
                    path.unlink(missing_ok=True)
            except OSError:
                continue
        return {
            "checked": checked,
            "stale": stale,
            "corrupt": len(corrupt),
            "corrupt_paths": corrupt,
            "deleted": len(corrupt) if delete else 0,
        }


class TieredStore(ArtifactStore):
    """Write-through composition: in-memory LRU over a persistent store.

    ``get`` serves from memory when possible and falls back to the
    persistent directory, promoting the value into the memory tier;
    ``put`` lands in both.  :attr:`last_hit_tier` records where the
    most recent hit came from (``"memory"`` or ``"persistent"``) so
    stage records can attribute their cache hits.
    """

    def __init__(self, memory: ArtifactCache, persistent: LocalStore) -> None:
        self.memory = memory
        self.persistent = persistent
        self.hits = 0
        self.misses = 0
        self.last_hit_tier: str | None = None

    # The engine adopts its observer onto an unclaimed store; only the
    # persistent tier reports events (corrupt entries).
    @property
    def observer(self) -> "Observer | None":
        """Observer of the persistent tier."""
        return self.persistent.observer

    @observer.setter
    def observer(self, value: "Observer | None") -> None:
        self.persistent.observer = value

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self.memory or key in self.persistent

    def get(self, key: ArtifactKey) -> Any:
        """Memory first, then persistent (promoting the hit), else MISS."""
        value = self.memory.get(key)
        if value is not MISS:
            self.hits += 1
            self.last_hit_tier = "memory"
            return value
        value = self.persistent.get(key)
        if value is not MISS:
            self.hits += 1
            self.last_hit_tier = "persistent"
            self.memory.put(key, value)  # promote for later gets
            return value
        self.misses += 1
        self.last_hit_tier = None
        return MISS

    def put(self, key: ArtifactKey, value: Any) -> None:
        """Write through: the value lands in both tiers."""
        self.memory.put(key, value)
        self.persistent.put(key, value)

    def stats(self) -> dict[str, int]:
        """Memory counters + the ``persistent_``-prefixed tier's."""
        merged = dict(self.memory.stats())
        # The memory tier's hit/miss counters see every tiered lookup;
        # the tier-spanning truth is this store's own counters.
        merged["hits"] = self.hits
        merged["misses"] = self.misses
        for name, value in self.persistent.stats().items():
            merged[f"persistent_{name}"] = value
        return merged

    def describe(self) -> dict[str, Any]:
        """Nested provenance of both tiers for the run ledger."""
        return {
            "backend": "tiered",
            "memory": self.memory.describe(),
            "persistent": self.persistent.describe(),
        }

    def spec(self) -> dict[str, Any] | None:
        """Rebuild spec: shared directory, private same-sized memory."""
        return {
            "path": str(self.persistent.root),
            "memory_bytes": self.memory.max_bytes,
        }


def open_store(
    path: str | Path,
    *,
    memory_bytes: int = DEFAULT_MAX_BYTES,
    observer: "Observer | None" = None,
    faults: "FaultInjector | None" = None,
) -> TieredStore:
    """A tiered store over a persistent directory (the ``--store`` path).

    This is also the worker-side rebuild entry point: pool workers call
    ``open_store(**spec)`` with the parent's :meth:`TieredStore.spec`,
    sharing the persistent directory while keeping private memory tiers.
    """
    return TieredStore(
        ArtifactCache(max_bytes=memory_bytes),
        LocalStore(path, observer=observer, faults=faults),
    )
