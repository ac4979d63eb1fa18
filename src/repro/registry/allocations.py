"""Synthetic RIR allocation registry.

The generator produces a registry whose *shape* matches what the
paper's stratifications need: five RIRs with realistic space shares,
per-RIR country mixes, allocation years 1983-2014 with a legacy era and
per-RIR runout policies, a heavy-tailed prefix-size distribution, and
whois-style industry classes.

Scaling: the simulated Internet is a linearly scaled-down copy of the
real one.  ``scale`` multiplies the number of /24-blocks of allocated
space; allocation prefix *sizes* shrink by ``log2(1/scale)`` bits
(clamped so no allocation is smaller than a /24, preserving realistic
/24 interiors), while each allocation remembers its *real-equivalent*
prefix length (8-24) for stratification, so Figure 7's x-axis matches
the paper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from repro.ipspace.intervals import IntervalSet
from repro.ipspace.prefixes import Prefix
from repro.ipspace.special import public_space
from repro.registry.countries import country_weights
from repro.registry.rir import (
    INDUSTRY_ROUTED_PROB,
    INDUSTRY_WEIGHTS,
    RIR,
    Industry,
    RirProfile,
    rir_profiles,
)

#: Total allocated IPv4 space in /24 units (~3.55 B addresses / 256).
REAL_ALLOCATED_24S = 13_870_000

#: First and last years of the simulated allocation history.
FIRST_ALLOCATION_YEAR = 1983
LAST_ALLOCATION_YEAR = 2014


@dataclass(frozen=True)
class Allocation:
    """One RIR delegation."""

    index: int
    prefix: Prefix
    rir: RIR
    country: str
    year: int
    real_length: int
    industry: Industry
    routed_from: float  # fractional year; inf = never routed
    darknet: bool = False

    @property
    def is_routed_ever(self) -> bool:
        return math.isfinite(self.routed_from)


class AllocationRegistry:
    """Immutable set of non-overlapping allocations with fast lookup."""

    def __init__(
        self,
        allocations: Iterable[Allocation],
        rir_pools: dict[RIR, list[Prefix]] | None = None,
    ):
        #: Top-level space each RIR administers (used for Table 6's
        #: unallocated-supply accounting); may be empty for
        #: hand-constructed registries.
        self.rir_pools = rir_pools or {}
        ordered = sorted(allocations, key=lambda a: a.prefix.base)
        # Re-index in address order so ``allocations[i].index == i`` and
        # lookup positions line up with every attribute array.
        self.allocations = [
            replace(alloc, index=i) for i, alloc in enumerate(ordered)
        ]
        self._starts = np.array(
            [a.prefix.base for a in self.allocations], dtype=np.uint64
        )
        self._ends = np.array(
            [a.prefix.end for a in self.allocations], dtype=np.uint64
        )
        if np.any(self._starts[1:] < self._ends[:-1]):
            raise ValueError("allocations overlap")
        self.rir_codes = np.array([a.rir for a in self.allocations], dtype=np.int8)
        self.years = np.array([a.year for a in self.allocations], dtype=np.int16)
        self.real_lengths = np.array(
            [a.real_length for a in self.allocations], dtype=np.int8
        )
        self.industry_codes = np.array(
            [a.industry for a in self.allocations], dtype=np.int8
        )
        self.routed_from = np.array(
            [a.routed_from for a in self.allocations], dtype=np.float64
        )
        self.countries = np.array([a.country for a in self.allocations])

    def __len__(self) -> int:
        return len(self.allocations)

    def __iter__(self):
        return iter(self.allocations)

    def lookup(self, addrs) -> np.ndarray:
        """Allocation index per address (-1 where unallocated)."""
        arr = np.atleast_1d(np.asarray(addrs)).astype(np.uint64)
        if not len(self.allocations):
            return np.full(arr.shape, -1, dtype=np.int64)
        idx = np.searchsorted(self._starts, arr, side="right") - 1
        valid = idx >= 0
        clipped = np.clip(idx, 0, None)
        valid &= arr < self._ends[clipped]
        return np.where(valid, idx, -1)

    def allocated_space(self) -> IntervalSet:
        """Union of all allocations."""
        return IntervalSet.from_prefixes(a.prefix for a in self.allocations)

    def rir_space(self, rir: RIR) -> IntervalSet:
        """The top-level pool a RIR administers (empty if untracked)."""
        return IntervalSet.from_prefixes(self.rir_pools.get(rir, []))

    def unallocated_in_pool(self, rir: RIR) -> IntervalSet:
        """The RIR's remaining unallocated pool space."""
        return self.rir_space(rir).difference(self.allocated_space())

    def allocated_space_of(self, rir: RIR) -> IntervalSet:
        """Union of one RIR's allocations."""
        return IntervalSet.from_prefixes(
            a.prefix for a in self.allocations if a.rir == rir
        )

    # -- stratification labelers ------------------------------------------

    def stratum_values(self, kind: str) -> np.ndarray:
        """Per-allocation stratum label of a stratification ``kind``.

        ``kind`` is one of ``"rir"``, ``"country"``, ``"industry"``,
        ``"prefix"`` (real-equivalent allocation length) or ``"age"``
        (allocation year).
        """
        values = {
            "rir": self.rir_codes,
            "industry": self.industry_codes,
            "prefix": self.real_lengths,
            "age": self.years,
            "country": self.countries,
        }.get(kind)
        if values is None:
            raise ValueError(f"unknown stratification kind: {kind!r}")
        return values

    def labeler(self, kind: str) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorised address -> stratum-label function.

        Labels are :meth:`stratum_values` of the covering allocation.
        Unallocated addresses label as -1 (or ``"??"`` for country).
        """
        values = self.stratum_values(kind)
        if kind == "country":
            missing, dtype = "??", values.dtype
        else:
            missing, dtype = -1, np.int64

        def label(addrs: np.ndarray) -> np.ndarray:
            idx = self.lookup(addrs)
            out = np.full(idx.shape, missing, dtype=dtype)
            hit = idx >= 0
            out[hit] = values[idx[hit]]
            return out

        return label


class _FreePool:
    """Per-RIR pool of free CIDR blocks supporting random carve-outs."""

    def __init__(self, prefixes: Iterable[Prefix], rng: np.random.Generator):
        self._by_length: dict[int, list[Prefix]] = {}
        self._rng = rng
        for prefix in prefixes:
            self._by_length.setdefault(prefix.length, []).append(prefix)

    def carve(self, length: int) -> Prefix | None:
        """Remove and return a free /``length`` block, splitting as needed."""
        # Find the longest (smallest) available block that still fits,
        # which keeps large blocks intact for future large requests.
        candidates = [
            l for l, blocks in self._by_length.items() if blocks and l <= length
        ]
        if not candidates:
            return None
        source_length = max(candidates)
        blocks = self._by_length[source_length]
        block = blocks.pop(int(self._rng.integers(len(blocks))))
        while block.length < length:
            low, high = block.split()
            keep, give = (low, high) if self._rng.random() < 0.5 else (high, low)
            self._by_length.setdefault(give.length, []).append(give)
            block = keep
        return block


def _era_shares(profile: RirProfile) -> list[tuple[float, float, float]]:
    """(year_lo, year_hi, weight) eras for one RIR's allocation years."""
    legacy = profile.legacy_share
    boom_end = min(profile.runout_year, 2011.0)
    return [
        (FIRST_ALLOCATION_YEAR, 1998.0, legacy),
        (1998.0, 2004.0, (1.0 - legacy) * 0.3),
        (2004.0, boom_end, (1.0 - legacy) * 0.55),
        (boom_end, 2014.5, (1.0 - legacy) * 0.15),
    ]


#: Real-world prefix-length distribution by era: (length, weight).
_LEGACY_LENGTHS = ((8, 0.30), (12, 0.10), (16, 0.40), (20, 0.05), (24, 0.15))
_BOOM_LENGTHS = (
    (10, 0.08),
    (11, 0.08),
    (12, 0.10),
    (13, 0.10),
    (14, 0.12),
    (15, 0.10),
    (16, 0.14),
    (17, 0.06),
    (18, 0.06),
    (19, 0.06),
    (20, 0.04),
    (21, 0.03),
    (22, 0.03),
)
_RUNOUT_LENGTHS = ((21, 0.15), (22, 0.70), (23, 0.08), (24, 0.07))


def _draw_length(rng: np.random.Generator, year: float, runout: float) -> int:
    if year < 1998.0:
        table = _LEGACY_LENGTHS
    elif year >= runout:
        table = _RUNOUT_LENGTHS
    else:
        table = _BOOM_LENGTHS
    lengths = [l for l, _ in table]
    weights = np.array([w for _, w in table])
    return int(rng.choice(lengths, p=weights / weights.sum()))


def _split_public_space(
    rng: np.random.Generator, profiles: dict[RIR, RirProfile]
) -> dict[RIR, list[Prefix]]:
    """Assign top-level public-space blocks to RIRs by space share."""
    blocks = public_space().to_prefixes()
    # Work at /8 granularity like the real registry.
    units: list[Prefix] = []
    for block in blocks:
        if block.length < 8:
            units.extend(block.subnets(8))
        else:
            units.append(block)
    order = rng.permutation(len(units))
    total = sum(units[i].size for i in order)
    shares = {rir: profile.space_share for rir, profile in profiles.items()}
    pools: dict[RIR, list[Prefix]] = {rir: [] for rir in profiles}
    assigned = {rir: 0.0 for rir in profiles}
    for i in order:
        # Give the next unit to the RIR furthest below its target share.
        deficit = {
            rir: shares[rir] - assigned[rir] / total for rir in profiles
        }
        rir = max(deficit, key=deficit.get)
        pools[rir].append(units[i])
        assigned[rir] += units[i].size
    return pools


def generate_registry(
    rng: np.random.Generator,
    scale: float = 2.0**-10,
    num_darknets: int = 2,
) -> AllocationRegistry:
    """Generate a scaled synthetic allocation registry.

    ``scale`` shrinks the allocated space (in /24 units) linearly;
    ``num_darknets`` large routed-but-unused blocks are planted for the
    spoof filter's empty-block calibration (the paper's 53/8-style
    prefixes).
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    profiles = rir_profiles()
    shift = max(0, int(round(-math.log2(scale))))
    target_24s = max(64, int(REAL_ALLOCATED_24S * scale))
    pool_prefixes = _split_public_space(rng, profiles)
    pools = {
        rir: _FreePool(prefixes, rng) for rir, prefixes in pool_prefixes.items()
    }

    # Plant the darknets first: large, early-routed, essentially unused
    # military blocks (the analogue of 53/8 / 55/8) sized to ~3 % of
    # the allocated space each so the spoof filter's calibration sees
    # enough uniform hits at any simulation scale.
    allocations: list[Allocation] = []
    index = 0
    darknet_addresses = max(4096, (target_24s * 256) // 32)
    darknet_length = max(8, 32 - (int(darknet_addresses) - 1).bit_length())
    for _ in range(num_darknets):
        rir = RIR.ARIN if rng.random() < 0.6 else RIR.APNIC
        prefix = pools[rir].carve(darknet_length)
        if prefix is None:
            continue
        allocations.append(
            Allocation(
                index=index,
                prefix=prefix,
                rir=rir,
                country="US" if rir == RIR.ARIN else "AU",
                year=int(rng.integers(1988, 1995)),
                real_length=8,
                industry=Industry.MILITARY,
                routed_from=1998.0 + float(rng.uniform(0.0, 2.0)),
                darknet=True,
            )
        )
        index += 1

    rir_list = list(profiles)
    shares = {r: profiles[r].space_share for r in rir_list}
    carved_24s = {r: 0.0 for r in rir_list}

    capacity_24s = 0
    attempts = 0
    max_attempts = 500_000
    while capacity_24s < target_24s and attempts < max_attempts:
        attempts += 1
        # Deficit-driven RIR choice keeps realised space shares close
        # to the profile targets even though block sizes vary by era.
        deficits = {
            r: shares[r] - carved_24s[r] / max(target_24s, 1)
            for r in rir_list
        }
        rir = max(deficits, key=deficits.get)
        profile = profiles[rir]
        eras = _era_shares(profile)
        weights = np.array([w for _, _, w in eras])
        lo, hi, _ = eras[int(rng.choice(len(eras), p=weights / weights.sum()))]
        year = float(rng.uniform(lo, hi))
        real_length = _draw_length(rng, year, profile.runout_year)
        sim_length = min(24, real_length + shift)
        prefix = pools[rir].carve(sim_length)
        if prefix is None:
            continue
        codes, cweights = country_weights(rir)
        country = codes[int(rng.choice(len(codes), p=cweights))]
        industries = list(INDUSTRY_WEIGHTS)
        iweights = np.array([INDUSTRY_WEIGHTS[i] for i in industries])
        industry = industries[
            int(rng.choice(len(industries), p=iweights / iweights.sum()))
        ]
        if rng.random() < INDUSTRY_ROUTED_PROB[industry]:
            routed_from = max(year, 1995.0) + float(rng.exponential(1.5))
        else:
            routed_from = math.inf
        allocations.append(
            Allocation(
                index=index,
                prefix=prefix,
                rir=rir,
                country=country,
                year=int(year),
                real_length=real_length,
                industry=industry,
                routed_from=routed_from,
            )
        )
        block_24s = max(1, prefix.size // 256)
        capacity_24s += block_24s
        carved_24s[rir] += block_24s
        index += 1

    return AllocationRegistry(allocations, rir_pools=pool_prefixes)
