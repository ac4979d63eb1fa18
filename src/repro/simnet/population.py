"""Ground-truth population of used IPv4 addresses.

Every routed allocation receives a set of used addresses built from
the density models: a fraction of its /24s are used, each used /24
holds a heavy-tailed number of addresses with non-uniform last octets,
and each address carries a host type, a latent activity level (the
heterogeneity passive sources sample through), a dynamic-pool flag and
an activation year implementing linear growth.  The population is the
*truth* that measurement sources subsample and that validation
compares estimates against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ipspace.addresses import subnet24_of, unique_addresses
from repro.ipspace.ipset import IPSet
from repro.registry.allocations import Allocation, AllocationRegistry
from repro.registry.countries import country_growth_multiplier
from repro.registry.rir import INDUSTRY_UTILISATION, Industry, rir_profiles
from repro.simnet.density import draw_subnet_population, draw_subnet_sizes
from repro.simnet.hosts import HostType, draw_host_types

#: Baseline /24 utilisation multiplier tuned so used/routed /24s ≈ 0.6
#: by mid 2014 (the paper's headline subnet utilisation).
BASE_UTILISATION = 0.80

#: Global relative growth rate of used addresses at 2011 implied by the
#: paper's series (720 M at end 2011 -> 1.2 B at mid 2014).
BASE_GROWTH_RATE = 0.30

#: Darknet blocks keep a token, near-zero population.
DARKNET_UTILISATION = 0.004


@dataclass
class GroundTruthPopulation:
    """Column-oriented store of every used address and its attributes."""

    addresses: np.ndarray  # uint32, sorted
    alloc_index: np.ndarray  # int32 into the registry
    host_type: np.ndarray  # int8 HostType codes
    dynamic: np.ndarray  # bool: belongs to a dynamically assigned pool
    activity: np.ndarray  # float32 latent activity (mean ~1)
    active_from: np.ndarray  # float32 fractional year of first use
    registry: AllocationRegistry
    simultaneous_ratio: np.ndarray  # float32 per allocation

    def __len__(self) -> int:
        return int(self.addresses.size)

    # -- temporal views ---------------------------------------------------

    def active_mask(self, time: float) -> np.ndarray:
        """Addresses in use at the instant ``time``."""
        return self.active_from <= time

    def used_in_window(self, start: float, end: float) -> np.ndarray:
        """Bool mask: address used at some point during [start, end).

        Addresses never deactivate in the closed-with-growth model, so
        this is activation before the window's end.
        """
        return self.active_from < end

    def used_ipset(self, start: float, end: float) -> IPSet:
        """The ground-truth used set for a window."""
        return IPSet.from_sorted_unique(
            self.addresses[self.used_in_window(start, end)]
        )

    def used_count(self, start: float, end: float) -> int:
        """Ground-truth used addresses during the window."""
        return int(np.count_nonzero(self.used_in_window(start, end)))

    def used_subnet24_count(self, start: float, end: float) -> int:
        """Ground-truth used /24 blocks during the window."""
        mask = self.used_in_window(start, end)
        return int(unique_addresses(subnet24_of(self.addresses[mask])).size)

    # -- ground-truth network queries (Table 4) --------------------------------

    def peak_simultaneous_usage(self, alloc: Allocation, time: float) -> float:
        """High-watermark simultaneously used addresses in a block.

        Static addresses count fully; dynamic pool addresses are scaled
        by the allocation's peak simultaneous-assignment ratio — this is
        the 'truth' column of the paper's Table 4.
        """
        in_block = self.alloc_index == alloc.index
        active = in_block & self.active_mask(time)
        static_count = int(np.count_nonzero(active & ~self.dynamic))
        dynamic_count = int(np.count_nonzero(active & self.dynamic))
        ratio = float(self.simultaneous_ratio[alloc.index])
        return static_count + dynamic_count * ratio

    # -- stratification support ---------------------------------------------------

    def dynamic_labeler(self):
        """Address -> 0 (static) / 1 (dynamic) labeler for stratification."""
        addrs = self.addresses
        flags = self.dynamic

        def label(query: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(addrs, np.asarray(query, dtype=np.uint32))
            idx = np.clip(idx, 0, max(len(addrs) - 1, 0))
            hit = addrs[idx] == query
            out = np.zeros(len(query), dtype=np.int64)
            out[hit] = flags[idx[hit]].astype(np.int64)
            return out

        return label


def _allocation_growth_rate(alloc: Allocation) -> float:
    """Relative yearly growth for one allocation's population."""
    profile = rir_profiles()[alloc.rir]
    country_mult = country_growth_multiplier(alloc.rir, alloc.country)
    mean_growth = 0.16  # space-weighted mean of the RIR growth rates
    rate = BASE_GROWTH_RATE * (profile.growth_rate / mean_growth) * country_mult
    # Legacy giants are mature: the paper's Figures 7/8 show /8 and /9
    # allocations "have not grown much", with growth concentrated in
    # mid-size and recent blocks.
    if alloc.real_length <= 9:
        rate *= 0.2
    elif alloc.year < 1998:
        rate *= 0.6
    return rate


def _activation_times(
    rng: np.random.Generator, alloc: Allocation, count: int
) -> np.ndarray:
    """Activation years implementing linear growth per allocation."""
    rate = _allocation_growth_rate(alloc)
    if alloc.year >= 2011:
        start = max(2011.0, alloc.year + 0.1)
        return rng.uniform(start, 2014.5, size=count).astype(np.float32)
    pre_fraction = 1.0 / (1.0 + 3.5 * rate)
    pre = rng.random(count) < pre_fraction
    times = np.empty(count, dtype=np.float32)
    n_pre = int(pre.sum())
    times[pre] = rng.uniform(max(alloc.year, 1995.0), 2011.0, size=n_pre)
    times[~pre] = rng.uniform(2011.0, 2014.5, size=count - n_pre)
    return times


def generate_population(
    registry: AllocationRegistry,
    rng: np.random.Generator,
    activity_sigma: float = 1.3,
) -> GroundTruthPopulation:
    """Build the ground-truth population over a registry.

    Only ever-routed allocations receive addresses (the paper's CR
    estimates cover routed space only; unrouted-but-used hosts have
    zero sample probability and are out of scope by construction).
    """
    profiles = rir_profiles()
    addr_chunks: list[np.ndarray] = []
    alloc_chunks: list[np.ndarray] = []
    type_chunks: list[np.ndarray] = []
    dyn_chunks: list[np.ndarray] = []
    act_chunks: list[np.ndarray] = []
    from_chunks: list[np.ndarray] = []
    sim_ratio = np.full(len(registry), 0.65, dtype=np.float32)

    for alloc in registry:
        sim_ratio[alloc.index] = rng.uniform(0.55, 0.8)
        if not alloc.is_routed_ever:
            continue
        n24 = max(1, alloc.prefix.size // 256)
        if alloc.darknet:
            util = DARKNET_UTILISATION
        else:
            profile_util = profiles[alloc.rir].utilisation / 0.55
            noise = float(np.exp(rng.normal(0.0, 0.35)))
            util = (
                BASE_UTILISATION
                * INDUSTRY_UTILISATION[alloc.industry]
                * profile_util
                * noise
            )
        used24 = int(np.clip(round(util * n24), 0, n24))
        if used24 == 0 and not alloc.darknet and rng.random() < util * n24:
            used24 = 1  # tiny blocks: keep expected utilisation unbiased
        if used24 == 0:
            continue
        chosen24 = rng.choice(n24, size=used24, replace=False)
        bases = (alloc.prefix.base + chosen24.astype(np.uint64) * 256).astype(
            np.uint32
        )
        sizes = draw_subnet_sizes(rng, used24)
        if alloc.darknet:
            sizes = np.minimum(sizes, 2)
        addrs, owner = draw_subnet_population(rng, bases, sizes)
        count = len(addrs)
        if count == 0:
            continue
        types = draw_host_types(rng, alloc.industry, count)
        # Network-level popularity: whole /24s are quiet or busy
        # together (shared uplinks, shared user communities), which is
        # what keeps passive sources from trivially covering every
        # used /24.
        subnet_activity = rng.lognormal(-0.5, 1.0, size=used24).astype(np.float32)
        # Dense ISP client blocks are DHCP-style dynamic pools.
        dense_block = sizes >= 64
        pool_flag = dense_block[owner] & (alloc.industry == Industry.ISP)
        dynamic = pool_flag & (types == HostType.CLIENT)
        addr_chunks.append(addrs)
        alloc_chunks.append(np.full(count, alloc.index, dtype=np.int32))
        type_chunks.append(types)
        dyn_chunks.append(dynamic)
        host_activity = rng.lognormal(
            -0.5 * activity_sigma**2, activity_sigma, count
        ).astype(np.float32)
        act_chunks.append(host_activity * subnet_activity[owner])
        from_chunks.append(_activation_times(rng, alloc, count))

    if not addr_chunks:
        raise ValueError("registry produced an empty population")
    addresses = np.concatenate(addr_chunks)
    order = np.argsort(addresses, kind="stable")
    return GroundTruthPopulation(
        addresses=addresses[order],
        alloc_index=np.concatenate(alloc_chunks)[order],
        host_type=np.concatenate(type_chunks)[order],
        dynamic=np.concatenate(dyn_chunks)[order],
        activity=np.concatenate(act_chunks)[order],
        active_from=np.concatenate(from_chunks)[order],
        registry=registry,
        simultaneous_ratio=sim_ratio,
    )
