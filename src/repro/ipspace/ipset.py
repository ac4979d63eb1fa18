"""Sets of individual IPv4 addresses.

:class:`IPSet` is the universal currency of the library: every
measurement source yields one, the capture-recapture tabulation
consumes several, and the spoof filter transforms one into another.
Internally it is a sorted, de-duplicated ``uint32`` numpy array, which
makes union/intersection/difference and bulk membership O(n log n)
numpy operations rather than Python-level loops.  Construction and
unions deduplicate through
:func:`~repro.ipspace.addresses.unique_addresses` (one sort plus a
neighbour mask), the same primitive every other address site uses.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.ipspace.addresses import (
    MAX_ADDRESS,
    as_addr_array,
    format_addr,
    subnet24_of,
    unique_addresses,
)
from repro.ipspace.intervals import IntervalSet


class IPSet:
    """An immutable sorted set of IPv4 addresses."""

    __slots__ = ("_addrs",)

    def __init__(self, addrs: Iterable = ()) -> None:
        arr = as_addr_array(list(addrs) if not isinstance(addrs, np.ndarray) else addrs)
        self._addrs = unique_addresses(arr)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_sorted_unique(cls, addrs: np.ndarray) -> "IPSet":
        """Wrap an array already known to be sorted ``uint32`` without dupes.

        This is the fast path used internally; callers must uphold the
        invariant (checked cheaply in debug builds via ``validate``).
        """
        obj = cls.__new__(cls)
        obj._addrs = np.asarray(addrs, dtype=np.uint32)
        return obj

    @classmethod
    def empty(cls) -> "IPSet":
        return cls.from_sorted_unique(np.empty(0, dtype=np.uint32))

    def validate(self) -> None:
        """Assert the sorted-unique invariant (used in tests)."""
        arr = self._addrs
        if arr.size and not np.all(arr[1:] > arr[:-1]):
            raise AssertionError("IPSet invariant violated: not sorted-unique")

    # -- basics -----------------------------------------------------------

    @property
    def addresses(self) -> np.ndarray:
        """The underlying sorted ``uint32`` array (do not mutate)."""
        return self._addrs

    def __len__(self) -> int:
        return int(self._addrs.size)

    def __bool__(self) -> bool:
        return self._addrs.size > 0

    def __iter__(self) -> Iterator[int]:
        return (int(a) for a in self._addrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IPSet):
            return NotImplemented
        return np.array_equal(self._addrs, other._addrs)

    def __hash__(self) -> int:
        return hash(self._addrs.tobytes())

    def __repr__(self) -> str:
        preview = ", ".join(format_addr(a) for a in self._addrs[:3])
        suffix = ", ..." if len(self) > 3 else ""
        return f"IPSet([{preview}{suffix}] n={len(self)})"

    # -- membership ---------------------------------------------------------

    def contains(self, addrs) -> np.ndarray:
        """Vectorised membership test returning a bool array.

        A probe outside ``[0, 2**32 - 1]`` is never a member (it must
        not wrap onto an address).
        """
        arr = np.atleast_1d(np.asarray(addrs))
        in_range = None
        if arr.dtype != np.uint32:
            in_range = (arr >= 0) & (arr <= MAX_ADDRESS)
            arr = np.where(in_range, arr, 0).astype(np.uint32)
        if not len(self):
            return np.zeros(arr.shape, dtype=bool)
        idx = np.searchsorted(self._addrs, arr)
        idx_clipped = np.clip(idx, 0, len(self) - 1)
        found = self._addrs[idx_clipped] == arr
        return found if in_range is None else found & in_range

    def __contains__(self, addr: int) -> bool:
        return bool(self.contains(np.asarray([addr]))[0])

    # -- set algebra ----------------------------------------------------------

    def union(self, *others: "IPSet") -> "IPSet":
        """Union with any number of other sets in one pass."""
        arrays = [self._addrs] + [o._addrs for o in others]
        merged = unique_addresses(np.concatenate(arrays)) if others else arrays[0]
        return IPSet.from_sorted_unique(merged)

    def intersection(self, other: "IPSet") -> "IPSet":
        """Addresses present in both sets."""
        return IPSet.from_sorted_unique(
            np.intersect1d(self._addrs, other._addrs, assume_unique=True)
        )

    def difference(self, other: "IPSet") -> "IPSet":
        """Addresses of this set absent from ``other``."""
        return IPSet.from_sorted_unique(
            np.setdiff1d(self._addrs, other._addrs, assume_unique=True)
        )

    def __or__(self, other: "IPSet") -> "IPSet":
        return self.union(other)

    def __and__(self, other: "IPSet") -> "IPSet":
        return self.intersection(other)

    def __sub__(self, other: "IPSet") -> "IPSet":
        return self.difference(other)

    def overlap_count(self, other: "IPSet") -> int:
        """|self ∩ other| without materialising the intersection twice."""
        smaller, larger = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        return int(np.count_nonzero(larger.contains(smaller._addrs)))

    # -- restriction & projection -----------------------------------------------

    def restrict(self, space: IntervalSet) -> "IPSet":
        """Keep only addresses inside ``space`` (e.g. the routed space)."""
        if not len(self):
            return self
        return IPSet.from_sorted_unique(self._addrs[space.contains(self._addrs)])

    def exclude(self, space: IntervalSet) -> "IPSet":
        """Drop addresses inside ``space`` (e.g. special-use prefixes)."""
        if not len(self):
            return self
        return IPSet.from_sorted_unique(self._addrs[~space.contains(self._addrs)])

    def subnets24(self) -> "IPSet":
        """The paper's /24 dataset: last octet zeroed, duplicates removed."""
        return IPSet.from_sorted_unique(unique_addresses(subnet24_of(self._addrs)))

    def filter_mask(self, mask: np.ndarray) -> "IPSet":
        """Keep addresses where ``mask`` is true (aligned with ``addresses``)."""
        if mask.shape != self._addrs.shape:
            raise ValueError("mask shape does not match address array")
        return IPSet.from_sorted_unique(self._addrs[mask])

    def sample(self, n: int, rng: np.random.Generator) -> "IPSet":
        """A uniform random subset of ``n`` addresses (without replacement)."""
        if n >= len(self):
            return self
        chosen = rng.choice(self._addrs, size=n, replace=False)
        return IPSet(chosen)
