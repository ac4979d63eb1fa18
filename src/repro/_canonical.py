"""Canonical, type-tagged serialization for cache-key digests.

The artifact store addresses payloads by a digest of their key — the
stage name plus every parameter that determines the value.  A digest
that must survive across *processes and runs* cannot be built on
``repr()``: dict ordering, float formatting, Python-version drift and
numpy scalar reprs all change the bytes without changing the value.

:func:`canonical_encode` produces a deterministic byte string instead:
every value is emitted as a one-byte type tag plus a length-prefixed
payload, containers recurse, unordered containers are sorted by their
members' encodings, floats are packed as raw IEEE-754 doubles (no
string formatting anywhere near them), and numpy scalars are coerced
to their Python equivalents so ``np.float64(2013.5)`` and ``2013.5``
address the same artifact.

:data:`KEY_SCHEMA_VERSION` is folded into every digest.  Bump it when
the encoding (or the meaning of any keyed parameter) changes: old
store entries then *miss cleanly* — their digests can no longer be
reproduced — instead of colliding with entries written under the new
schema.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any

import numpy as np

#: Version stamp folded into every key digest.  Bump on any change to
#: the canonical encoding, to the semantics of keyed parameters or to
#: the store's entry format, so stale persistent entries miss instead
#: of colliding.  3: delta-coded ``.arr`` array entries.
KEY_SCHEMA_VERSION = 3


#: Encodings of frozen dataclasses (the pipeline options and the
#: policies nested in them), keyed by object identity.  Every artifact
#: key carries the run's one options object, and re-encoding it per key
#: dominated a warm sweep's digest time.  Each entry holds its object,
#: so the id cannot be reused while the entry lives; an equal but
#: distinct object is encoded afresh (``1`` and ``True`` compare equal
#: and encode differently).  Frozen fields are taken to be immutable,
#: as their use in hashed keys already requires.
_FROZEN_ENCODINGS: dict[int, tuple[Any, bytes]] = {}
_FROZEN_ENCODINGS_MAX = 256


def _emit_sized(out: bytearray, tag: bytes, payload: bytes) -> None:
    out += tag
    out += struct.pack("<Q", len(payload))
    out += payload


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
        return
    if isinstance(obj, bool):
        out += b"T" if obj else b"F"
        return
    if isinstance(obj, np.generic):
        # Coerce numpy scalars to their Python equivalents so mixed
        # numpy/Python parameter provenance yields one digest.
        _encode(obj.item(), out)
        return
    if isinstance(obj, int):
        _emit_sized(out, b"i", str(obj).encode("ascii"))
        return
    if isinstance(obj, float):
        # Raw IEEE-754 bits: stable across Python versions and immune
        # to repr/formatting drift.
        out += b"f"
        out += struct.pack("<d", obj)
        return
    if isinstance(obj, str):
        _emit_sized(out, b"s", obj.encode("utf-8"))
        return
    if isinstance(obj, (bytes, bytearray, memoryview)):
        _emit_sized(out, b"b", bytes(obj))
        return
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        head = bytearray()
        _encode(arr.dtype.str, head)
        _encode(tuple(int(n) for n in arr.shape), head)
        _emit_sized(out, b"a", bytes(head) + arr.tobytes())
        return
    if isinstance(obj, tuple):
        body = bytearray()
        for item in obj:
            _encode(item, body)
        _emit_sized(out, b"t", bytes(body))
        return
    if isinstance(obj, list):
        body = bytearray()
        for item in obj:
            _encode(item, body)
        _emit_sized(out, b"l", bytes(body))
        return
    if isinstance(obj, (set, frozenset)):
        body = bytearray()
        for chunk in sorted(canonical_encode(item) for item in obj):
            body += chunk
        _emit_sized(out, b"S", bytes(body))
        return
    if isinstance(obj, dict):
        body = bytearray()
        for key_chunk, value_chunk in sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in obj.items()
        ):
            body += key_chunk
            body += value_chunk
        _emit_sized(out, b"d", bytes(body))
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        frozen = type(obj).__dataclass_params__.frozen
        if frozen:
            cached = _FROZEN_ENCODINGS.get(id(obj))
            if cached is not None and cached[0] is obj:
                out += cached[1]
                return
        # Tag with the class identity, then the field mapping: two
        # different option classes with equal fields stay distinct.
        body = bytearray()
        _encode(f"{type(obj).__module__}.{type(obj).__qualname__}", body)
        _encode(
            {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
            body,
        )
        chunk = bytearray()
        _emit_sized(chunk, b"D", bytes(body))
        if frozen:
            if len(_FROZEN_ENCODINGS) >= _FROZEN_ENCODINGS_MAX:
                _FROZEN_ENCODINGS.clear()
            _FROZEN_ENCODINGS[id(obj)] = (obj, bytes(chunk))
        out += chunk
        return
    # Last resort for exotic parameter types: class-qualified repr.
    # Anything hot in a key should be one of the canonical types above.
    _emit_sized(
        out,
        b"r",
        f"{type(obj).__module__}.{type(obj).__qualname__}:{obj!r}".encode(
            "utf-8"
        ),
    )


def canonical_encode(obj: Any) -> bytes:
    """Deterministic byte encoding of ``obj`` (see module docstring)."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def canonical_digest(obj: Any) -> str:
    """sha256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_encode(obj)).hexdigest()
