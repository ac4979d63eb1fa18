"""Routed-space model (the Route Views substitute).

The paper identifies routed space from weekly Route Views snapshots
aggregated per 12-month window, excluding unallocated-but-advertised
prefixes.  Here each allocation carries a ``routed_from`` year;
the aggregated window view is the union of allocations advertised at
any time during the window, plus short-lived "flapped" advertisements
that only an aggregation over snapshots would catch — reproducing why
window-aggregated routed space slightly exceeds any instantaneous
table.  Bogus advertisements of unallocated space are generated and
then excluded, mirroring the paper's filtering step.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.ipspace.intervals import IntervalSet
from repro.ipspace.prefixes import Prefix
from repro.ipspace.trie import PrefixTrie
from repro.registry.allocations import AllocationRegistry


class RoutedSpace:
    """Window-aggregated view of publicly routed space."""

    def __init__(
        self,
        registry: AllocationRegistry,
        rng: np.random.Generator,
        flap_fraction: float = 0.01,
        num_bogons: int = 3,
    ) -> None:
        self.registry = registry
        self._flap_fraction = flap_fraction
        # Pre-draw per-allocation flap activity deterministically so
        # different windows see consistent behaviour.
        n = len(registry)
        self._flap_scores = rng.random(n)
        self._bogons = self._draw_bogons(rng, num_bogons)
        self._cache: dict[tuple[float, float], IntervalSet] = {}

    def _draw_bogons(self, rng: np.random.Generator, count: int) -> list[Prefix]:
        """Unallocated-but-advertised prefixes (to be excluded)."""
        allocated = self.registry.allocated_space()
        from repro.ipspace.special import public_space

        free = public_space().difference(allocated)
        prefixes = [p for p in free.to_prefixes() if p.length <= 24]
        if not prefixes:
            return []
        picks = rng.choice(len(prefixes), size=min(count, len(prefixes)), replace=False)
        bogons = []
        for i in np.atleast_1d(picks):
            block = prefixes[int(i)]
            # Advertise a /24 inside the free block.
            bogons.append(Prefix(block.base, min(24, max(block.length, 24))))
        return bogons

    @property
    def bogon_prefixes(self) -> list[Prefix]:
        """The unallocated-but-advertised prefixes the model excludes."""
        return list(self._bogons)

    def routed_allocation_mask(self, start: float, end: float) -> np.ndarray:
        """Bool mask over allocations: advertised during [start, end)."""
        stable = self.registry.routed_from < end
        # A small fraction of not-yet-stable allocations flap into view
        # during a long window (aggregation over weekly snapshots).
        flapped = (
            (self.registry.routed_from >= end)
            & np.isfinite(self.registry.routed_from)
            & (self.registry.routed_from < end + 1.0)
            & (self._flap_scores < self._flap_fraction * max(end - start, 0.0))
        )
        return stable | flapped

    def window(self, start: float, end: float) -> IntervalSet:
        """Aggregated routed space for the window [start, end)."""
        key = (round(start, 4), round(end, 4))
        if key not in self._cache:
            mask = self.routed_allocation_mask(start, end)
            prefixes = [
                alloc.prefix
                for alloc, routed in zip(self.registry.allocations, mask)
                if routed
            ]
            self._cache[key] = IntervalSet.from_prefixes(prefixes)
        return self._cache[key]

    def size(self, start: float, end: float) -> int:
        """Routed addresses in the window."""
        return self.window(start, end).size()

    def subnet24_count(self, start: float, end: float) -> int:
        """Routed /24 blocks in the window."""
        return self.window(start, end).subnet24_count()

    def stratum_sizes(
        self, start: float, end: float, kind: str, subnets: bool = False
    ) -> dict[Hashable, float]:
        """Routed size per stratum label of a registry stratification.

        Sums the allocations advertised during [start, end) by their
        :meth:`~AllocationRegistry.stratum_values` label, in addresses
        or, with ``subnets``, in /24 blocks (at least one per
        allocation).
        """
        values = self.registry.stratum_values(kind)
        mask = self.routed_allocation_mask(start, end)
        sizes: dict[Hashable, float] = {}
        for alloc, routed, value in zip(self.registry.allocations, mask, values):
            if routed:
                size = alloc.prefix.size
                if subnets:
                    size = max(1, size // 256)
                label = value.item()
                sizes[label] = sizes.get(label, 0.0) + size
        return sizes

    def routing_table(self, start: float, end: float) -> PrefixTrie:
        """A longest-prefix-match table of the window's advertisements.

        Used for FIB-size accounting (Section 7.2.1) and by examples
        that want per-address origin lookups.
        """
        trie = PrefixTrie()
        mask = self.routed_allocation_mask(start, end)
        for alloc, routed in zip(self.registry.allocations, mask):
            if routed:
                trie.insert(alloc.prefix, alloc.index)
        return trie
