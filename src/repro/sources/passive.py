"""Passive log sources (WIKI, SPAM, MLAB, WEB, GAME).

A log source captures a host in a quarter with probability

    p = 1 - exp(-(rate / 4) * growth(t) * activity^gamma * affinity(type))

where ``activity`` is the host's shared latent traffic level — the
heterogeneity that makes passive sources *apparently dependent* on one
another (hosts busy in one log tend to be busy in all), the central
statistical difficulty the paper's log-linear interaction terms exist
to absorb.  ``gamma`` varies per source so the sources are biased
samplers of the same latent activity rather than clones, and
``affinity`` encodes the client bias (servers appear rarely,
specialised devices never).
"""

from __future__ import annotations

import numpy as np

from repro.simnet.hosts import HostType
from repro.simnet.population import GroundTruthPopulation
from repro.sources.base import TIME_HORIZON, QuarterlySource, quarter_bounds

#: Default passive affinity: strongly client-biased, thin server/router
#: tails, blind to specialised devices (indexed by HostType).
CLIENT_AFFINITY = np.array([0.05, 0.15, 1.0, 0.0])


class LogSource(QuarterlySource):
    """A server-log style source sampling active clients."""

    def __init__(
        self,
        name: str,
        population: GroundTruthPopulation,
        seed: int,
        rate: float,
        available_from: float,
        available_to: float = TIME_HORIZON,
        affinity: np.ndarray | None = None,
        activity_exponent: float = 1.0,
        yearly_rate_growth: float = 0.0,
    ) -> None:
        super().__init__(name, population, seed, available_from, available_to)
        self.rate = rate
        self.affinity = (
            CLIENT_AFFINITY if affinity is None else np.asarray(affinity, float)
        )
        if self.affinity.shape != (len(HostType),):
            raise ValueError("affinity must have one entry per host type")
        self.activity_exponent = activity_exponent
        self.yearly_rate_growth = yearly_rate_growth

    def _rate_at(self, index: int) -> float:
        start, _ = quarter_bounds(index)
        years = max(0.0, start - 2011.0)
        return self.rate * (1.0 + self.yearly_rate_growth) ** years

    def _capture_probability(self, index: int) -> np.ndarray:
        """Each address's capture probability in quarter ``index``.

        ``activity ** gamma`` is the same every quarter, and so is the
        whole probability of a source without rate growth: whichever
        applies is kept across quarters.
        """
        kept = self._kept
        if "probability" in kept:
            return kept["probability"]
        pop = self.population
        weight = kept.get("weight")
        if weight is None:
            weight = pop.activity.astype(np.float64) ** self.activity_exponent
        aff = self.affinity[pop.host_type]
        prob = -np.expm1(-((self._rate_at(index) / 4.0) * weight * aff))
        if self.yearly_rate_growth:
            kept["weight"] = weight
        else:
            kept["probability"] = prob
        return prob

    def _observe_quarter(self, index: int, rng: np.random.Generator) -> np.ndarray:
        pop = self.population
        active = self._active_mask(index)
        seen = active & (rng.random(len(pop)) < self._capture_probability(index))
        return pop.addresses[seen]
