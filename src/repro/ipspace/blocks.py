"""Occupied- and vacant-block accounting over the IPv4 space.

The Section 7 model of the paper reasons about *maximal vacant blocks*:
aligned CIDR blocks containing no used address whose enclosing block is
not itself fully vacant.  The free space left by a set of used
addresses within a universe (e.g. the public space) tiles uniquely into
such maximal blocks, and the paper's occupancy dynamics follow from
that tiling:

    adding one address to a maximal vacant /i removes that block
    (x_i -= 1) and leaves exactly one maximal vacant block of each
    longer length /i+1 .. /32 (x_j += 1 for j > i),

which is the linear map ``x' - x = A n`` of the paper's equation (2).

Everything here is numpy-vectorised: the histogram of maximal vacant
blocks for a million used addresses costs ~64 vector passes, not a
Python loop per free range.
"""

from __future__ import annotations

import numpy as np

from repro.ipspace.addresses import unique_addresses
from repro.ipspace.intervals import IntervalSet

#: Prefix lengths tracked by the vacancy model (0..32 inclusive).
NUM_LEVELS = 33


def count_occupied_blocks(addrs: np.ndarray, length: int) -> int:
    """Number of distinct /``length`` blocks containing >= 1 address."""
    if not 0 <= length <= 32:
        raise ValueError(f"prefix length out of range: {length}")
    arr = np.asarray(addrs, dtype=np.uint32)
    if arr.size == 0:
        return 0
    if length == 0:
        return 1
    return int(unique_addresses(arr >> np.uint32(32 - length)).size)


def occupied_block_histogram(addrs: np.ndarray) -> np.ndarray:
    """Occupied-block counts for every length 0..32 (index = length)."""
    counts = np.zeros(NUM_LEVELS, dtype=np.int64)
    arr = unique_addresses(np.asarray(addrs, dtype=np.uint32))
    if arr.size == 0:
        return counts
    counts[32] = arr.size
    blocks = arr
    for length in range(31, -1, -1):
        blocks = unique_addresses(blocks >> np.uint32(1))
        counts[length] = blocks.size
    return counts


def free_ranges(used: np.ndarray, universe: IntervalSet) -> tuple[np.ndarray, np.ndarray]:
    """Half-open free ranges of ``universe`` after removing ``used`` addresses.

    ``used`` must be sorted-unique ``uint32``; addresses outside the
    universe are ignored.  Returns parallel ``uint64`` arrays
    ``(starts, ends)`` of the non-empty free ranges.
    """
    uni_starts = universe._starts  # noqa: SLF001 - package-internal fast path
    uni_ends = universe._ends  # noqa: SLF001
    if len(uni_starts) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    used64 = np.asarray(used, dtype=np.uint64)
    if used64.size:
        inside = universe.contains(used64)
        used64 = used64[inside]
    # Candidate range starts: every universe interval start, plus the
    # address after each used address.
    piece_starts = np.concatenate([uni_starts, used64 + np.uint64(1)])
    piece_starts.sort(kind="stable")
    # Each piece belongs to the universe interval whose start is the
    # closest one at or before it.
    interval_idx = np.searchsorted(uni_starts, piece_starts, side="right") - 1
    interval_end = uni_ends[interval_idx]
    # Each piece ends at the next used address inside the interval, or
    # at the interval end if there is none.
    if used64.size:
        nxt = np.searchsorted(used64, piece_starts, side="left")
        next_used = np.full(
            piece_starts.shape, np.iinfo(np.uint64).max, dtype=np.uint64
        )
        has_next = nxt < used64.size
        next_used[has_next] = used64[nxt[has_next]]
        piece_ends = np.minimum(next_used, interval_end)
    else:
        piece_ends = interval_end
    keep = piece_starts < piece_ends
    return piece_starts[keep], piece_ends[keep]


def range_block_histogram(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Histogram (by prefix length) of the maximal-block tiling of ranges.

    Each half-open range ``[start, end)`` tiles uniquely into maximal
    aligned blocks; this computes, across all ranges at once, how many
    blocks of each length 0..32 that tiling contains.  The two-phase
    sweep mirrors the classic range-to-CIDR algorithm: first emit the
    low-alignment blocks rising from ``start``, then the descending
    blocks falling to ``end``.
    """
    counts = np.zeros(NUM_LEVELS, dtype=np.int64)
    a = np.asarray(starts, dtype=np.uint64).copy()
    b = np.asarray(ends, dtype=np.uint64)
    if a.size == 0:
        return counts
    # Phase 1 (rise): emit the block of size 2^k whenever bit k of the
    # cursor is set and the block fits; carries only propagate upward,
    # so one ascending pass suffices.
    for k in range(32):
        size = np.uint64(1 << k)
        mask = ((a >> np.uint64(k)) & np.uint64(1)).astype(bool) & (a + size <= b)
        counts[32 - k] += int(np.count_nonzero(mask))
        a[mask] += size
    # Phase 2 (fall): the cursor is now aligned beyond the remaining
    # length; emit blocks in descending size until the range closes.
    for k in range(32, -1, -1):
        size = np.uint64(1) << np.uint64(k)
        mask = (b - a) >= size
        counts[32 - k] += int(np.count_nonzero(mask))
        a[mask] += size
    return counts


def vacant_block_histogram(used: np.ndarray, universe: IntervalSet) -> np.ndarray:
    """Counts of maximal vacant /length blocks left by ``used`` in ``universe``.

    Index ``i`` of the result is the number of maximal vacant /i blocks
    — the ``x_i`` of the paper's Section 7 model.
    """
    starts, ends = free_ranges(used, universe)
    return range_block_histogram(starts, ends)


def vacant_address_totals(vacancy: np.ndarray) -> np.ndarray:
    """Addresses contained in the vacant blocks of each length.

    ``vacancy[i] * 2**(32 - i)`` per length; this is the quantity
    plotted in the paper's Figure 12.
    """
    vac = np.asarray(vacancy, dtype=np.float64)
    if vac.shape[0] != NUM_LEVELS:
        raise ValueError(f"expected {NUM_LEVELS} levels, got {vac.shape[0]}")
    sizes = np.array([float(1 << (32 - i)) for i in range(NUM_LEVELS)])
    return vac * sizes


def allocation_matrix(min_length: int = 1, max_length: int = 32) -> np.ndarray:
    """The paper's matrix ``A`` with ``x' - x = A n`` (equation 2).

    Rows and columns are indexed by prefix length ``min_length ..
    max_length`` in ascending order.  Allocating an address into a
    maximal vacant /j block decrements ``x_j`` and increments ``x_i``
    for every longer length ``i > j`` (smaller blocks), so ``A`` has
    -1 on the diagonal and +1 strictly below it.  (The paper prints the
    +1s above the diagonal, which corresponds to ordering lengths
    descending; the physics is identical.)
    """
    if not 0 <= min_length <= max_length <= 32:
        raise ValueError("invalid length range")
    n = max_length - min_length + 1
    mat = np.tril(np.ones((n, n)), k=-1) - np.eye(n)
    return mat


def apply_allocations(vacancy: np.ndarray, allocations: np.ndarray) -> np.ndarray:
    """Update a vacancy histogram after ``allocations[i]`` fills at length i.

    Implements ``x' = x + A n`` over the full 0..32 index range.
    """
    vac = np.asarray(vacancy, dtype=np.float64).copy()
    alloc = np.asarray(allocations, dtype=np.float64)
    if vac.shape != alloc.shape:
        raise ValueError("vacancy and allocation vectors must align")
    cumulative = np.concatenate([[0.0], np.cumsum(alloc)[:-1]])
    return vac - alloc + cumulative
