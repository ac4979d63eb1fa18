"""Internet-user-growth plausibility model (the paper's Section 6.9).

The paper sanity-checks its CR growth estimate against ITU user
statistics: with household size ``H``, employment ratio ``p_E`` and
``W`` workers per public work address, user growth ``g_U`` implies
address growth ``g_I = (1/H + p_E/W) g_U``.  With H in [2, 5] and W in
[2, 200] the expected band is roughly 50-205 million addresses per
year, and the paper's 170 M/yr estimate falls inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.growth import linear_growth_per_year
from repro.data.itu import internet_users_series


@dataclass(frozen=True)
class UserGrowthBand:
    """The implied address-growth band for a user-growth figure."""

    user_growth_per_year: float
    low: float
    high: float

    def contains(self, address_growth: float) -> bool:
        """Whether a growth figure falls inside the implied band."""
        return self.low <= address_growth <= self.high


def user_growth_per_year(start_year: int = 2007, end_year: int = 2012) -> float:
    """Average ITU user growth per year over [start_year, end_year]."""
    years, users = internet_users_series()
    mask = (years >= start_year) & (years <= end_year)
    if mask.sum() < 2:
        raise ValueError("not enough ITU data points in the requested range")
    return linear_growth_per_year(years[mask], users[mask])


def address_growth_from_users(
    user_growth: float,
    household_size: float,
    workers_per_address: float,
    employment_ratio: float = 0.65,
) -> float:
    """``g_I = (1/H + p_E / W) g_U`` for one parameter choice."""
    if household_size <= 0 or workers_per_address <= 0:
        raise ValueError("household size and workers per address must be positive")
    if not 0 <= employment_ratio <= 1:
        raise ValueError("employment ratio must be a probability")
    return (1.0 / household_size + employment_ratio / workers_per_address) * (
        user_growth
    )


def expected_growth_band(
    user_growth: float | None = None,
    household_range: tuple[float, float] = (2.0, 5.0),
    workers_range: tuple[float, float] = (2.0, 200.0),
    employment_ratio: float = 0.65,
) -> UserGrowthBand:
    """The paper's [50 M, 205 M]/yr style band from parameter ranges.

    The band's low end takes the largest households and the most
    address sharing at work; the high end the opposite.
    """
    if user_growth is None:
        user_growth = user_growth_per_year()
    low = address_growth_from_users(
        user_growth, household_range[1], workers_range[1], employment_ratio
    )
    high = address_growth_from_users(
        user_growth, household_range[0], workers_range[0], employment_ratio
    )
    return UserGrowthBand(user_growth_per_year=user_growth, low=low, high=high)
