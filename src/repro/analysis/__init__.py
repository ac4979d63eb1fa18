"""End-to-end analyses: everything between datasets and paper tables."""

from repro.analysis.fib import FibForecast, forecast_fib
from repro.analysis.market import MarketValuation, value_unused_space
from repro.analysis.crossval import (
    CrossValidationResult,
    SettingSweepRow,
    cross_validate_all,
    cross_validate_source,
    sweep_selection_settings,
)
from repro.analysis.growth import (
    GrowthSeries,
    linear_growth_per_year,
    normalized,
    stratified_yearly_growth,
)
from repro.analysis.supply import SupplyRow, supply_by_rir, world_supply
from repro.analysis.unused import (
    UnusedSpaceModel,
    estimate_occupancy_ratios,
    predict_allocation,
)
from repro.analysis.users import address_growth_from_users, user_growth_per_year
from repro.analysis.windows import TimeWindow, standard_windows

__all__ = [
    "CrossValidationResult",
    "FibForecast",
    "MarketValuation",
    "forecast_fib",
    "value_unused_space",
    "GrowthSeries",
    "SettingSweepRow",
    "SupplyRow",
    "TimeWindow",
    "UnusedSpaceModel",
    "address_growth_from_users",
    "cross_validate_all",
    "cross_validate_source",
    "estimate_occupancy_ratios",
    "linear_growth_per_year",
    "normalized",
    "predict_allocation",
    "standard_windows",
    "stratified_yearly_growth",
    "supply_by_rir",
    "sweep_selection_settings",
    "user_growth_per_year",
    "world_supply",
]
