"""Capture histories and contingency tables.

A *capture history* records which of the ``t`` sources observed an
individual; it is a ``t``-bit string, stored here as an integer bitmask
with source ``i`` on bit ``i``.  The observed data reduces without loss
to the contingency table ``z_s`` counting individuals per history
(the paper's Table 1); everything downstream — L-P, Chao, the
log-linear models — consumes a :class:`ContingencyTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.ipspace.addresses import unique_addresses
from repro.ipspace.ipset import IPSet


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of individuals per capture history for ``t`` sources.

    ``counts`` has length ``2**t``; entry ``s`` is the number of
    individuals whose history bitmask is ``s``.  Entry 0 (never
    observed) is structurally zero — it is the unknown the models
    estimate.
    """

    num_sources: int
    counts: np.ndarray
    source_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2**self.num_sources,):
            raise ValueError(
                f"counts must have length 2^{self.num_sources}, got {counts.shape}"
            )
        if counts[0] != 0:
            raise ValueError("history 0 (unobserved) must have count 0")
        if (counts < 0).any():
            raise ValueError("negative history count")
        object.__setattr__(self, "counts", counts)
        if self.source_names and len(self.source_names) != self.num_sources:
            raise ValueError("source_names length does not match num_sources")

    # -- aggregate views --------------------------------------------------

    @cached_property
    def _history_index(self) -> np.ndarray:
        """``np.arange(2**t)``, built once — source_total/overlap sit on
        the stratified hot path and were rebuilding it per call."""
        return np.arange(2**self.num_sources)

    @property
    def num_observed(self) -> int:
        """Total observed individuals ``M`` (all histories except 0)."""
        return int(self.counts.sum())

    def source_total(self, index: int) -> int:
        """Individuals captured by source ``index`` (any history with its bit)."""
        self._check_index(index)
        mask = (self._history_index >> index) & 1 == 1
        return int(self.counts[mask].sum())

    def overlap(self, i: int, j: int) -> int:
        """Individuals captured by both sources ``i`` and ``j``."""
        self._check_index(i)
        self._check_index(j)
        histories = self._history_index
        mask = ((histories >> i) & 1 == 1) & ((histories >> j) & 1 == 1)
        return int(self.counts[mask].sum())

    @cached_property
    def capture_frequencies(self) -> np.ndarray:
        """``f_k`` = number of individuals captured by exactly k sources.

        Index ``k`` runs 0..t; ``f_0`` is structurally 0.  These are the
        sufficient statistics for Chao-type estimators, consulted by
        every closed-population model — cached (and read-only) because
        the table is immutable.
        """
        histories = np.arange(2**self.num_sources, dtype=np.uint64)
        popcounts = np.zeros(2**self.num_sources, dtype=np.int64)
        for bit in range(self.num_sources):
            popcounts += ((histories >> np.uint64(bit)) & np.uint64(1)).astype(
                np.int64
            )
        freqs = np.zeros(self.num_sources + 1, dtype=np.int64)
        np.add.at(freqs, popcounts, self.counts)
        freqs.setflags(write=False)
        return freqs

    def positive_minimum(self) -> int:
        """Smallest strictly positive cell count (drives the adaptive divisor)."""
        positive = self.counts[self.counts > 0]
        return int(positive.min()) if positive.size else 0

    # -- transforms --------------------------------------------------------

    def collapse(self, keep: Sequence[int]) -> "ContingencyTable":
        """Marginalise onto the sources in ``keep`` (in the given order).

        Individuals seen only by dropped sources land in history 0 of
        the reduced table and are therefore *removed* (they become
        unobserved), matching how cross-validation restricts the data.
        """
        keep = list(keep)
        for index in keep:
            self._check_index(index)
        histories = self._history_index
        reduced = np.zeros(len(histories), dtype=np.int64)
        for new_bit, old_bit in enumerate(keep):
            reduced |= (((histories >> old_bit) & 1) << new_bit).astype(np.int64)
        new_counts = np.zeros(2 ** len(keep), dtype=np.int64)
        np.add.at(new_counts, reduced, self.counts)
        new_counts[0] = 0
        names = (
            tuple(self.source_names[i] for i in keep) if self.source_names else ()
        )
        return ContingencyTable(len(keep), new_counts, names)

    def scaled(self, divisor: int) -> "ContingencyTable":
        """Counts integer-divided by ``divisor`` (the paper's d heuristic)."""
        if divisor < 1:
            raise ValueError(f"divisor must be >= 1, got {divisor}")
        return ContingencyTable(
            self.num_sources, self.counts // divisor, self.source_names
        )

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_sources:
            raise IndexError(f"source index {index} out of range")

    def __repr__(self) -> str:
        return (
            f"ContingencyTable(t={self.num_sources}, M={self.num_observed}, "
            f"cells={np.count_nonzero(self.counts)})"
        )


def history_masks(member_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Union of individuals and their history bitmask per individual.

    ``member_arrays`` holds one sorted-unique ``uint32`` array per
    source.  Returns ``(individuals, masks)`` where ``individuals`` is
    the sorted union and ``masks[i]`` is the capture-history bitmask of
    ``individuals[i]``.
    """
    arrays = [np.asarray(arr, dtype=np.uint32) for arr in member_arrays]
    if not arrays:
        raise ValueError("at least one source required")
    union = unique_addresses(np.concatenate(arrays))
    masks = np.zeros(union.shape, dtype=np.uint32)
    for bit, arr in enumerate(arrays):
        if arr.size == 0:
            continue  # empty sources contribute no bits (but keep their bit index)
        idx = np.searchsorted(union, arr)
        masks[idx] |= np.uint32(1 << bit)
    return union, masks


def tabulate_histories(
    sources: Sequence[IPSet] | dict[str, IPSet],
) -> ContingencyTable:
    """Build the contingency table for a collection of sources.

    Accepts either a sequence of :class:`IPSet` or a name -> IPSet
    mapping (names are preserved on the table).
    """
    if isinstance(sources, dict):
        names = tuple(sources.keys())
        sets = list(sources.values())
    else:
        sets = list(sources)
        names = ()
    if not sets:
        raise ValueError("at least one source required")
    arrays = [s.addresses for s in sets]
    _, masks = history_masks(arrays)
    counts = np.bincount(masks, minlength=2 ** len(sets)).astype(np.int64)
    counts[0] = 0
    return ContingencyTable(len(sets), counts, names)


def tabulate_within_universe(
    universe: IPSet, sources: Sequence[IPSet] | dict[str, IPSet]
) -> tuple[ContingencyTable, int]:
    """Table of sources restricted to ``universe`` plus the true unseen count.

    This is the cross-validation primitive: with ``universe`` playing
    the role of the total population, the second return value is the
    number of universe members no (restricted) source observed —
    the quantity CR must estimate.
    """
    if isinstance(sources, dict):
        restricted: Sequence[IPSet] | dict[str, IPSet] = {
            name: s.intersection(universe) for name, s in sources.items()
        }
        sets = list(restricted.values())
    else:
        restricted = [s.intersection(universe) for s in sources]
        sets = list(restricted)
    table = tabulate_histories(restricted)
    observed_union = IPSet.empty().union(*sets) if sets else IPSet.empty()
    unseen = len(universe) - len(observed_union)
    return table, unseen
