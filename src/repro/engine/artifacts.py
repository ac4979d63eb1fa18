"""Keyed artifacts and the engine's in-memory cache.

Every stage execution produces one *artifact*: a value addressed by an
:class:`ArtifactKey` (stage name + the parameters that determine the
value, options included).  The :class:`ArtifactCache` replaces the old
ad-hoc ``_dataset_cache`` / ``_result_cache`` dicts with one LRU cache
that accounts for artifact sizes.  Persistence lives in
:mod:`repro.engine.store`, which owns the on-disk entry format.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro._canonical import KEY_SCHEMA_VERSION, canonical_digest
from repro.core.histories import ContingencyTable
from repro.ipspace.ipset import IPSet

#: Default in-memory budget (bytes) before the LRU starts evicting.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Sentinel returned by :meth:`ArtifactCache.get` on a miss.
MISS = object()


@dataclass(frozen=True)
class ArtifactKey:
    """Cache address of one stage output.

    ``params`` holds everything that determines the artifact value:
    window bounds, stage parameters and the (hashable, frozen) pipeline
    options.  Two keys compare equal iff the stage would recompute the
    same value — changed options therefore miss by construction.

    The content address is :meth:`digest`: a sha256 over the canonical,
    type-tagged encoding of ``(schema version, stage, params)`` (see
    :mod:`repro._canonical`), stable across processes, Python versions
    and float formatting — which is what lets a persistent store share
    entries between runs.
    """

    stage: str
    params: tuple
    _digest: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def digest(self) -> str:
        """Content address: sha256 of the canonical key encoding."""
        if self._digest is None:
            digest = canonical_digest(
                (KEY_SCHEMA_VERSION, self.stage, self.params)
            )
            object.__setattr__(self, "_digest", digest)
        return self._digest

    def token(self) -> str:
        """Stable filesystem-safe short form (store file stem)."""
        return f"{self.stage}-{self.digest()[:16]}"


@dataclass
class Artifact:
    """A cached stage output plus its accounting metadata."""

    key: ArtifactKey
    value: Any
    nbytes: int


def artifact_nbytes(value: Any) -> int:
    """Best-effort size accounting for the artifact kinds we cache."""
    if isinstance(value, IPSet):
        return int(value.addresses.nbytes)
    if isinstance(value, ContingencyTable):
        return int(value.counts.nbytes)
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, Mapping):
        return sum(artifact_nbytes(v) for v in value.values()) + 64 * len(value)
    if isinstance(value, (list, tuple)):
        return sum(artifact_nbytes(v) for v in value) + 16 * len(value)
    return int(sys.getsizeof(value))


class ArtifactCache:
    """Size-bounded in-memory LRU artifact cache.

    ``max_bytes`` bounds the in-memory footprint; once exceeded, least
    recently used artifacts are evicted (the sole remaining entry never
    is).  Evicted artifacts are simply dropped: a persistent tier, when
    wanted, is a :class:`~repro.engine.store.TieredStore` over this
    cache.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[ArtifactKey, Artifact] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: ``"memory"`` after a hit, None after a miss.  Tiered stores
        #: extend this with ``"persistent"`` so stage records can
        #: attribute their hits.
        self.last_hit_tier: str | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self._entries

    def get(self, key: ArtifactKey) -> Any:
        """The cached value, or the :data:`MISS` sentinel."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self.last_hit_tier = None
            return MISS
        self._entries.move_to_end(key)
        self.hits += 1
        self.last_hit_tier = "memory"
        return entry.value

    def put(self, key: ArtifactKey, value: Any) -> None:
        """Insert (or refresh) an artifact, evicting LRU entries as needed."""
        nbytes = artifact_nbytes(value)
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old.nbytes
        self._entries[key] = Artifact(key=key, value=value, nbytes=nbytes)
        self.current_bytes += nbytes
        while self.current_bytes > self.max_bytes and len(self._entries) > 1:
            _, artifact = self._entries.popitem(last=False)
            self.current_bytes -= artifact.nbytes
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Counters snapshot for reports and benches."""
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def describe(self) -> dict[str, Any]:
        """Provenance description (recorded in run ledgers)."""
        return {
            "backend": "memory",
            "max_bytes": self.max_bytes,
            "key_schema": KEY_SCHEMA_VERSION,
        }

    def spec(self) -> dict[str, Any] | None:
        """Picklable rebuild spec for pool workers.

        A purely in-memory cache has nothing a worker could share, so
        the spec is ``None`` and workers build their own private cache.
        """
        return None
