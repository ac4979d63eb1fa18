"""IPv4 address parsing, formatting and octet arithmetic.

Addresses are represented as Python ``int`` (scalar API) or
``numpy.uint32`` arrays (bulk API).  The bulk API is the one the rest of
the library uses; the scalar API exists for convenience in examples,
tests and error messages.
"""

from __future__ import annotations

import numpy as np

ADDRESS_SPACE_SIZE = 2**32
MAX_ADDRESS = ADDRESS_SPACE_SIZE - 1


class AddressError(ValueError):
    """Raised for malformed dotted-quad strings or out-of-range integers."""


def parse_addr(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    >>> parse_addr("192.0.2.1")
    3221225985
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_addr(addr: int) -> str:
    """Format an integer address as a dotted quad.

    >>> format_addr(3221225985)
    '192.0.2.1'
    """
    addr = int(addr)
    if not 0 <= addr <= MAX_ADDRESS:
        raise AddressError(f"address out of range: {addr}")
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_addrs(texts) -> np.ndarray:
    """Parse an iterable of dotted quads into a ``uint32`` array."""
    return np.fromiter(
        (parse_addr(text) for text in texts), dtype=np.uint32, count=len(texts)
    )


def format_addrs(addrs: np.ndarray) -> list[str]:
    """Format a ``uint32`` array as a list of dotted quads."""
    return [format_addr(addr) for addr in np.asarray(addrs, dtype=np.uint32)]


def as_addr_array(addrs) -> np.ndarray:
    """Coerce ints / strings / arrays into a ``uint32`` address array."""
    if isinstance(addrs, np.ndarray) and addrs.dtype == np.uint32:
        return addrs
    items = list(addrs) if not isinstance(addrs, np.ndarray) else addrs
    if len(items) and isinstance(items[0], str):
        return parse_addrs(items)
    arr = np.asarray(items)
    if arr.size and (arr.min() < 0 or arr.max() > MAX_ADDRESS):
        raise AddressError("address values out of uint32 range")
    return arr.astype(np.uint32)


def unique_addresses(arr: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``arr`` (flattened), like ``np.unique``.

    One sort plus a neighbour mask.  ``np.unique`` on integers goes
    through a hash table and then sorts its output, which costs tens of
    times more on address arrays; the sort here is the whole cost, and
    it is fast on concatenations of already-sorted runs too (the
    unions every window builds).  Correctness never depends on the
    input being sorted.
    """
    out = np.sort(np.ravel(arr))
    if out.size < 2:
        return out
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def subnet24_of(addrs: np.ndarray) -> np.ndarray:
    """Zero the last octet: the paper's /24 dataset projection."""
    return np.asarray(addrs, dtype=np.uint32) & np.uint32(0xFFFFFF00)


def last_octet(addrs: np.ndarray) -> np.ndarray:
    """Final byte *B* of each address (used by the Bayes spoof filter)."""
    return (np.asarray(addrs, dtype=np.uint32) & np.uint32(0xFF)).astype(np.uint8)


def octet(addrs: np.ndarray, index: int) -> np.ndarray:
    """Extract octet ``index`` (0 = most significant) from each address."""
    if not 0 <= index <= 3:
        raise AddressError(f"octet index out of range: {index}")
    shift = np.uint32(8 * (3 - index))
    return ((np.asarray(addrs, dtype=np.uint32) >> shift) & np.uint32(0xFF)).astype(
        np.uint8
    )


def block_index(addrs: np.ndarray, length: int) -> np.ndarray:
    """Index of the enclosing /``length`` block for each address.

    A /``length`` block index is the top ``length`` bits of the address,
    so two addresses share an index iff they share a /``length`` block.
    ``length`` 0 maps everything to block 0.
    """
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return np.zeros(len(np.atleast_1d(addrs)), dtype=np.uint32)
    shift = np.uint32(32 - length)
    return np.asarray(addrs, dtype=np.uint32) >> shift
