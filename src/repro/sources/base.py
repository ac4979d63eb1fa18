"""Measurement-source framework.

Sources observe the population in *quarters* (3-month blocks anchored
at 1 Jan 2011) and a window's dataset is the union of its quarters.
This mirrors how the paper's logs accumulate and guarantees that
overlapping 12-month windows agree on shared months.  Per-quarter
observations are cached and derived from a deterministic per-quarter
RNG, so any window can be recollected bit-identically.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod

import numpy as np

from repro.ipspace.addresses import unique_addresses
from repro.ipspace.ipset import IPSet
from repro.simnet.population import GroundTruthPopulation

#: Simulated time origin (1 Jan 2011) and horizon (30 Jun 2014).
TIME_ORIGIN = 2011.0
TIME_HORIZON = 2014.5


def quarter_of(year: float) -> int:
    """Quarter index of a fractional year (quarter 0 starts Jan 2011)."""
    return int(math.floor((year - TIME_ORIGIN) * 4.0 + 1e-9))


def quarter_bounds(index: int) -> tuple[float, float]:
    """(start, end) fractional years of a quarter."""
    start = TIME_ORIGIN + index / 4.0
    return start, start + 0.25


class MeasurementSource(ABC):
    """A dataset of observed IPv4 addresses accumulated over time."""

    def __init__(
        self,
        name: str,
        available_from: float,
        available_to: float = TIME_HORIZON,
    ) -> None:
        self.name = name
        self.available_from = available_from
        self.available_to = available_to

    def available_in(self, start: float, end: float) -> bool:
        """Whether the source produced any data during the window."""
        return self.available_from < min(end, self.available_to) and start < (
            self.available_to
        )

    @abstractmethod
    def collect(self, start: float, end: float) -> IPSet:
        """The raw dataset for the window (before any preprocessing)."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{self.available_from:.2f}-{self.available_to:.2f})"
        )


def union_of_quarters(source, start: float, end: float) -> IPSet:
    """A window's dataset: the union of its availability-clipped quarters.

    ``source`` is anything with ``available_from``/``available_to`` and a
    ``quarter_set(index)`` returning sorted-unique ``uint32`` addresses;
    every quarter-accumulating source collects through this one rule.
    """
    lo = max(start, source.available_from)
    hi = min(end, source.available_to)
    if lo >= hi:
        return IPSet.empty()
    first = quarter_of(lo)
    last = quarter_of(hi - 1e-9)
    chunks = [source.quarter_set(q) for q in range(first, last + 1)]
    chunks = [c for c in chunks if c.size]
    if not chunks:
        return IPSet.empty()
    if len(chunks) == 1:  # already sorted-unique
        return IPSet.from_sorted_unique(chunks[0])
    return IPSet.from_sorted_unique(unique_addresses(np.concatenate(chunks)))


def _derive_seed(*parts) -> int:
    """Stable 64-bit seed from heterogeneous parts."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class QuarterlySource(MeasurementSource):
    """Base class for sources that observe quarter by quarter."""

    def __init__(
        self,
        name: str,
        population: GroundTruthPopulation,
        seed: int,
        available_from: float,
        available_to: float = TIME_HORIZON,
    ) -> None:
        super().__init__(name, available_from, available_to)
        self.population = population
        self._seed = seed
        self._quarter_cache: dict[int, np.ndarray] = {}
        # Per-address arrays that every quarter's observation uses:
        # built at the first observation, dropped once every quarter
        # the source covers is cached.
        self._kept: dict[str, np.ndarray] = {}

    def _quarter_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(_derive_seed(self._seed, self.name, index))

    @abstractmethod
    def _observe_quarter(
        self, index: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Addresses observed during one quarter (uint32, any order)."""

    def quarter_set(self, index: int) -> np.ndarray:
        """Cached sorted-unique addresses for one quarter."""
        if index not in self._quarter_cache:
            rng = self._quarter_rng(index)
            self._quarter_cache[index] = unique_addresses(
                self._observe_quarter(index, rng)
            )
            first = quarter_of(self.available_from)
            last = quarter_of(self.available_to - 1e-9)
            if all(q in self._quarter_cache for q in range(first, last + 1)):
                self._kept.clear()
        return self._quarter_cache[index]

    def collect(self, start: float, end: float) -> IPSet:
        """Union of the window's (availability-clipped) quarters."""
        return union_of_quarters(self, start, end)

    # -- helpers for subclasses ---------------------------------------------

    def _active_mask(self, index: int) -> np.ndarray:
        """Population active at some point during the quarter."""
        _, q_end = quarter_bounds(index)
        return self.population.active_from < q_end
