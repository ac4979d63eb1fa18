"""Years-of-supply prediction per RIR (the paper's Table 6).

Available space = the RIR's unallocated pool + its routed-but-unused
space (routed size minus the CR estimate of used).  Dividing by the
RIR's current growth rate gives the year supply runs out, under the
paper's "very optimistic" assumption that every unused address can be
put to work; a utilisation-cap scenario (e.g. only 75 % of routed /24s
ever usable) tightens the runout accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import math

from repro.analysis.windows import TimeWindow
from repro.registry.rir import RIR, rir_profiles

if TYPE_CHECKING:
    from repro.engine.executor import Executor


@dataclass(frozen=True)
class SupplyRow:
    """One Table 6 row (either address- or /24-denominated)."""

    label: str
    available: float
    growth_per_year: float
    runout_year: float

    @staticmethod
    def runout(now: float, available: float, growth: float) -> float:
        if growth <= 0:
            return math.inf
        return now + available / growth


def _per_rir_quantities(
    executor: "Executor",
    first_window: TimeWindow,
    last_window: TimeWindow,
    level: str,
) -> dict[int, tuple[float, float, float]]:
    """(routed_size, estimate_last, growth_per_year) per RIR code."""
    first = executor.stratified(first_window, "rir", level)
    last = executor.stratified(last_window, "rir", level)
    years = last_window.end - first_window.end
    routed = executor.internet.routing.stratum_sizes(
        last_window.start, last_window.end, "rir", subnets=level == "subnets"
    )
    out = {}
    for code in routed:
        est_last = last.strata[code].population if code in last.strata else 0.0
        est_first = (
            first.strata[code].population if code in first.strata else 0.0
        )
        growth = (est_last - est_first) / years
        out[code] = (routed[code], est_last, growth)
    return out


def supply_by_rir(
    executor: "Executor",
    first_window: TimeWindow,
    last_window: TimeWindow,
    level: str = "addresses",
    utilisation_cap: float = 1.0,
) -> list[SupplyRow]:
    """Table 6 rows for each RIR.

    ``utilisation_cap`` below 1 models the paper's "only 75 % of routed
    /24s could ever be used" scenario: the usable routed space shrinks
    before the used estimate is subtracted.
    """
    if not 0 < utilisation_cap <= 1:
        raise ValueError("utilisation_cap must be in (0, 1]")
    profiles = rir_profiles()
    quantities = _per_rir_quantities(executor, first_window, last_window, level)
    registry = executor.internet.registry
    now = last_window.end
    rows = []
    for code in sorted(quantities):
        routed_size, est_last, growth = quantities[code]
        rir = RIR(code)
        allocated = registry.allocated_space_of(rir).size()
        if level == "subnets":
            allocated = allocated / 256.0
        unallocated = allocated * profiles[rir].unallocated_fraction
        routed_unused = max(0.0, routed_size * utilisation_cap - est_last)
        available = unallocated + routed_unused
        rows.append(
            SupplyRow(
                label=rir.name,
                available=available,
                growth_per_year=growth,
                runout_year=SupplyRow.runout(now, available, growth),
            )
        )
    return rows


def world_supply(rows: list[SupplyRow], now: float) -> SupplyRow:
    """Aggregate Table 6's World row from the per-RIR rows."""
    available = sum(r.available for r in rows)
    growth = sum(r.growth_per_year for r in rows)
    return SupplyRow(
        label="World",
        available=available,
        growth_per_year=growth,
        runout_year=SupplyRow.runout(now, available, growth),
    )
