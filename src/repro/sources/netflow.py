"""NetFlow sources (SWIN, CALT): broad legitimate sampling plus spoofing.

An access router's incoming NetFlow sees whichever remote addresses
exchange traffic with the site: clients, servers and routers alike,
weighted by activity.  Unlike the log sources, NetFlow also records
*spoofed* source addresses from DDoS floods and decoy scans —
uniformly random addresses that contaminate the dataset and that the
paper's two-stage heuristic (reimplemented in
:mod:`repro.filtering.spoof_filter`) must remove.
"""

from __future__ import annotations

import numpy as np

from repro.simnet.population import GroundTruthPopulation
from repro.ipspace.intervals import IntervalSet
from repro.sources.base import TIME_HORIZON, QuarterlySource, _derive_seed
from repro.sources.spoofing import draw_spoofed_addresses, draw_spoofed_in_space

#: NetFlow affinity: nearly type-blind, with specialised devices absent
#: (they rarely initiate wide-area traffic).
NETFLOW_AFFINITY = np.array([0.40, 0.80, 1.0, 0.02])


class NetFlowSource(QuarterlySource):
    """Access-router NetFlow with uniform spoof contamination."""

    def __init__(
        self,
        name: str,
        population: GroundTruthPopulation,
        seed: int,
        rate: float,
        available_from: float,
        available_to: float = TIME_HORIZON,
        spoof_per_quarter: int = 0,
        spoof_spike_quarter: int | None = None,
        spoof_spike_factor: float = 12.0,
        activity_exponent: float = 1.0,
        spoof_support: IntervalSet | None = None,
    ) -> None:
        super().__init__(name, population, seed, available_from, available_to)
        self.rate = rate
        self.spoof_per_quarter = spoof_per_quarter
        self.spoof_spike_quarter = spoof_spike_quarter
        self.spoof_spike_factor = spoof_spike_factor
        self.activity_exponent = activity_exponent
        # Restricting spoof generation to the allocated space is a pure
        # optimisation: addresses outside it are removed unseen by
        # preprocessing, and the in-support density is unchanged.
        self.spoof_support = spoof_support

    def _spoof_count(self, index: int, rng: np.random.Generator) -> int:
        count = int(rng.poisson(self.spoof_per_quarter))
        if index == self.spoof_spike_quarter:
            count = int(count * self.spoof_spike_factor)
        return count

    def _legitimate(self, index: int, rng: np.random.Generator) -> np.ndarray:
        pop = self.population
        kept = self._kept
        if "probability" not in kept:  # the rate is constant: kept across quarters
            aff = NETFLOW_AFFINITY[pop.host_type]
            weight = pop.activity.astype(np.float64) ** self.activity_exponent
            kept["probability"] = -np.expm1(-(self.rate / 4.0) * weight * aff)
        active = self._active_mask(index)
        return pop.addresses[active & (rng.random(len(pop)) < kept["probability"])]

    def _observe_quarter(self, index: int, rng: np.random.Generator) -> np.ndarray:
        legit = self._legitimate(index, rng)
        spoof_rng = np.random.default_rng(
            _derive_seed(self._seed, self.name, "spoof", index)
        )
        count = self._spoof_count(index, spoof_rng)
        if self.spoof_support is not None:
            spoofed = draw_spoofed_in_space(spoof_rng, count, self.spoof_support)
        else:
            spoofed = draw_spoofed_addresses(spoof_rng, count)
        return np.concatenate([legit, spoofed])

    def legitimate_quarter(self, index: int) -> np.ndarray:
        """The quarter's observation *without* spoofing (for validation).

        Uses the same RNG stream as :meth:`_observe_quarter`, so it is
        exactly the spoof-free part of the published dataset.
        """
        return self._legitimate(index, self._quarter_rng(index))
