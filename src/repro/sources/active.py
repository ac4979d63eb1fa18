"""Active probing censuses (IPING, TPING).

The paper probed every allocated address once per six months (ICMP
from March 2011, TCP port 80 from March 2012).  The census model
responds by host type: servers and routers answer ICMP readily, many
clients are firewalled or behind NAT home routers, and specialised
devices mostly answer only on specific TCP ports — which is what makes
pinging alone under-count and gives TPING its ICMP-silent tail.

Responses are per-(host, census) Bernoulli draws with a persistent
per-host openness component: a firewalled host tends to stay
firewalled across censuses, so two censuses of the same window overlap
heavily rather than doubling coverage.
"""

from __future__ import annotations

import numpy as np

from repro.ipspace.addresses import unique_addresses
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import Prefix
from repro.simnet.hosts import HostType
from repro.simnet.population import GroundTruthPopulation
from repro.sources.base import (
    TIME_HORIZON,
    MeasurementSource,
    _derive_seed,
)

#: P(responds to ICMP echo | host type): ROUTER, SERVER, CLIENT, SPECIALISED.
ICMP_RESPONSE = np.array([0.78, 0.82, 0.36, 0.10])
#: P(responds with SYN/ACK on port 80 | host type).
TCP_RESPONSE = np.array([0.35, 0.55, 0.06, 0.30])

#: Census epochs: every six months starting at the source's first census.
CENSUS_INTERVAL = 0.5


class CensusSource(MeasurementSource):
    """An Internet-wide probing census run every six months."""

    def __init__(
        self,
        name: str,
        population: GroundTruthPopulation,
        seed: int,
        response_probs: np.ndarray,
        first_census: float,
        available_to: float = TIME_HORIZON,
        blocked_prefixes: tuple[Prefix, ...] = (),
        openness_weight: float = 0.75,
        subnet_block_prob: float = 0.20,
    ) -> None:
        super().__init__(name, first_census, available_to)
        self.population = population
        self.response_probs = np.asarray(response_probs, dtype=np.float64)
        if self.response_probs.shape != (len(HostType),):
            raise ValueError("response_probs must have one entry per host type")
        self.first_census = first_census
        self.blocked_prefixes = tuple(blocked_prefixes)
        self.openness_weight = openness_weight
        self.subnet_block_prob = subnet_block_prob
        self._seed = seed
        self._census_cache: dict[int, np.ndarray] = {}
        # Persistent per-host openness: the filtering fate of a host is
        # mostly a property of its network, not of the probe instant.
        openness_rng = np.random.default_rng(_derive_seed(seed, name, "openness"))
        self._openness = openness_rng.random(len(population))
        # Whole /24s sit behind probe-dropping firewalls: persistent
        # subnet-level blocking is what leaves some used /24s invisible
        # to a census (the paper: ~10 % of most sources' /24s never
        # appear in IPING).
        subnet_rng = np.random.default_rng(
            _derive_seed(seed, name, "subnet-filter")
        )
        sub24 = population.addresses >> np.uint32(8)
        unique24, inverse = np.unique(sub24, return_inverse=True)
        open24 = subnet_rng.random(len(unique24)) >= subnet_block_prob
        self._subnet_open = open24[inverse]

    def census_times(self, start: float, end: float) -> list[float]:
        """Census epochs that fall inside [start, end)."""
        times = []
        t = self.first_census
        while t < min(end, self.available_to):
            if t >= start:
                times.append(round(t, 4))
            t += CENSUS_INTERVAL
        return times

    def _census_index(self, time: float) -> int:
        return int(round((time - self.first_census) / CENSUS_INTERVAL))

    def _blocked_mask(self) -> np.ndarray:
        pop = self.population
        mask = np.zeros(len(pop), dtype=bool)
        for prefix in self.blocked_prefixes:
            mask |= (pop.addresses >= prefix.base) & (
                pop.addresses < prefix.end
            )
        return mask

    def _run_census(self, index: int) -> np.ndarray:
        if index in self._census_cache:
            return self._census_cache[index]
        pop = self.population
        time = self.first_census + index * CENSUS_INTERVAL
        rng = np.random.default_rng(_derive_seed(self._seed, self.name, index))
        base = self.response_probs[pop.host_type]
        active = pop.active_from <= time
        # Blend persistent openness with per-census noise: a host whose
        # openness draw is far above the threshold always answers, one
        # far below never does, the margin flips census to census.
        w = self.openness_weight
        score = w * self._openness + (1.0 - w) * rng.random(len(pop))
        responds = (
            active & (score < base) & self._subnet_open & ~self._blocked_mask()
        )
        result = pop.addresses[responds]
        self._census_cache[index] = result
        return result

    def collect(self, start: float, end: float) -> IPSet:
        """Union of all censuses run during the window."""
        times = self.census_times(start, end)
        if not times:
            return IPSet.empty()
        chunks = [self._run_census(self._census_index(t)) for t in times]
        return IPSet.from_sorted_unique(unique_addresses(np.concatenate(chunks)))


def icmp_census(
    population: GroundTruthPopulation,
    seed: int,
    blocked_prefixes: tuple[Prefix, ...] = (),
) -> CensusSource:
    """The IPING source: ICMP censuses every six months from March 2011."""
    return CensusSource(
        "IPING",
        population,
        seed,
        ICMP_RESPONSE,
        first_census=2011.17,
        blocked_prefixes=blocked_prefixes,
    )


def tcp_census(
    population: GroundTruthPopulation,
    seed: int,
    blocked_prefixes: tuple[Prefix, ...] = (),
) -> CensusSource:
    """The TPING source: TCP port-80 censuses from March 2012."""
    return CensusSource(
        "TPING",
        population,
        seed,
        TCP_RESPONSE,
        first_census=2012.17,
        blocked_prefixes=blocked_prefixes,
        subnet_block_prob=0.35,
    )
