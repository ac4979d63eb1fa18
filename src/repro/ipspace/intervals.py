"""Sets of address ranges as sorted, disjoint half-open intervals.

:class:`IntervalSet` is the workhorse representation of *spaces* —
the routed space, the allocated space, the public (non-special-use)
space — as opposed to :class:`~repro.ipspace.ipset.IPSet`, which holds
individual addresses.  Intervals are stored as two parallel ``uint64``
arrays (starts, ends) so that membership tests over millions of
addresses are a pair of ``searchsorted`` calls.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.ipspace.addresses import ADDRESS_SPACE_SIZE
from repro.ipspace.prefixes import Prefix, summarize_range


class IntervalSet:
    """An immutable set of IPv4 addresses stored as disjoint ranges."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        pairs = [(int(s), int(e)) for s, e in intervals if int(s) < int(e)]
        for start, end in pairs:
            if not 0 <= start < end <= ADDRESS_SPACE_SIZE:
                raise ValueError(f"interval out of address space: [{start}, {end})")
        pairs.sort()
        starts: list[int] = []
        ends: list[int] = []
        for start, end in pairs:
            if starts and start <= ends[-1]:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        self._starts = np.asarray(starts, dtype=np.uint64)
        self._ends = np.asarray(ends, dtype=np.uint64)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_prefixes(cls, prefixes: Iterable[Prefix]) -> "IntervalSet":
        """Union of the given CIDR blocks."""
        return cls((p.base, p.end) for p in prefixes)

    @classmethod
    def everything(cls) -> "IntervalSet":
        """The full 2^32 address space."""
        return cls([(0, ADDRESS_SPACE_SIZE)])

    # -- basic queries -----------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self._starts)

    def __len__(self) -> int:
        return self.num_intervals

    def __bool__(self) -> bool:
        return self.num_intervals > 0

    def size(self) -> int:
        """Total number of addresses covered."""
        return int((self._ends - self._starts).sum())

    def intervals(self) -> Iterator[tuple[int, int]]:
        """Yield the disjoint ``(start, end)`` ranges in address order."""
        for start, end in zip(self._starts, self._ends):
            yield int(start), int(end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return np.array_equal(self._starts, other._starts) and np.array_equal(
            self._ends, other._ends
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._ends.tobytes()))

    def __repr__(self) -> str:
        return f"IntervalSet({self.num_intervals} ranges, {self.size()} addrs)"

    # -- membership --------------------------------------------------------

    def contains(self, addrs) -> np.ndarray:
        """Vectorised membership: bool array aligned with ``addrs``."""
        arr = np.atleast_1d(np.asarray(addrs)).astype(np.uint64)
        if not self.num_intervals:
            return np.zeros(arr.shape, dtype=bool)
        idx = np.searchsorted(self._starts, arr, side="right") - 1
        inside = idx >= 0
        clipped = np.clip(idx, 0, None)
        inside &= arr < self._ends[clipped]
        return inside

    def __contains__(self, addr: int) -> bool:
        return bool(self.contains(np.asarray([addr]))[0])

    def contains_interval(self, start: int, end: int) -> bool:
        """True if the whole half-open range lies inside this set."""
        if start >= end:
            return True
        idx = int(np.searchsorted(self._starts, np.uint64(start), side="right")) - 1
        if idx < 0:
            return False
        return int(self._ends[idx]) >= end and int(self._starts[idx]) <= start

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union of the two range sets."""
        merged = list(self.intervals()) + list(other.intervals())
        return IntervalSet(merged)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection via a linear two-pointer sweep."""
        result: list[tuple[int, int]] = []
        i = j = 0
        a_starts, a_ends = self._starts, self._ends
        b_starts, b_ends = other._starts, other._ends
        while i < len(a_starts) and j < len(b_starts):
            start = max(int(a_starts[i]), int(b_starts[j]))
            end = min(int(a_ends[i]), int(b_ends[j]))
            if start < end:
                result.append((start, end))
            if int(a_ends[i]) <= int(b_ends[j]):
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Ranges of this set not covered by ``other``."""
        return self.intersection(other.complement())

    def complement(self) -> "IntervalSet":
        """Complement within the full 2^32 space."""
        result: list[tuple[int, int]] = []
        cursor = 0
        for start, end in self.intervals():
            if cursor < start:
                result.append((cursor, start))
            cursor = end
        if cursor < ADDRESS_SPACE_SIZE:
            result.append((cursor, ADDRESS_SPACE_SIZE))
        return IntervalSet(result)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    # -- CIDR views ----------------------------------------------------------

    def to_prefixes(self) -> list[Prefix]:
        """Decompose into the unique minimal list of maximal CIDR blocks."""
        blocks: list[Prefix] = []
        for start, end in self.intervals():
            blocks.extend(summarize_range(start, end))
        return blocks

    def count_blocks(self, length: int) -> int:
        """Number of /``length`` blocks that intersect this set.

        Used to bound how many /``length`` blocks exist "in scope" when
        computing vacancy histograms.
        """
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        if not self.num_intervals:
            return 0
        shift = 32 - length
        first = self._starts >> np.uint64(shift)
        last = (self._ends - np.uint64(1)) >> np.uint64(shift)
        # Intervals are disjoint but may share a boundary block with the
        # neighbouring interval; de-duplicate at the seams.
        total = int((last - first + np.uint64(1)).sum())
        if len(first) > 1:
            total -= int(np.count_nonzero(first[1:] == last[:-1]))
        return total

    def subnet24_count(self) -> int:
        """Number of /24 blocks intersecting the set (paper's routed /24s)."""
        return self.count_blocks(24)
