#!/usr/bin/env python3
"""IPv4 exhaustion forecast (the paper's Section 7 and Table 6).

Runs the estimation pipeline on the first and last observation windows,
derives per-RIR growth rates, and prints the years-of-supply forecast —
including the paper's pessimistic "only 75 % of routed /24s can ever be
used" scenario.  Then fits the Section 7 vacancy model and shows how
the CR-predicted ghost addresses distribute over vacant prefixes.

Run:  python examples/exhaustion_forecast.py
"""

import math

import numpy as np

from repro import (
    Executor,
    SimulationConfig,
    SyntheticInternet,
    TimeWindow,
)
from repro.analysis.report import format_table
from repro.analysis.supply import supply_by_rir, world_supply
from repro.analysis.unused import build_unused_space_model


def fmt_year(year: float) -> str:
    return "never" if math.isinf(year) else f"{year:.0f}"


def main() -> None:
    internet = SyntheticInternet(SimulationConfig(scale=2.0**-12))
    executor = Executor(internet)
    first = TimeWindow(2011.0, 2012.0)
    last = TimeWindow(2013.5, 2014.5)

    print("running capture-recapture on the first and last windows ...")
    rows = []
    for cap, label in [(1.0, "optimistic (100 % usable)"),
                       (0.75, "pessimistic (75 % usable)")]:
        supply = supply_by_rir(executor, first, last, utilisation_cap=cap)
        world = world_supply(supply, now=last.end)
        for row in supply + [world]:
            rows.append([
                label,
                row.label,
                f"{row.available:.0f}",
                f"{row.growth_per_year:.0f}",
                fmt_year(row.runout_year),
            ])
    print()
    print(format_table(
        ["scenario", "RIR", "available addrs", "growth/yr", "runout"],
        rows,
        title="Table 6 — years of IPv4 supply per RIR (simulated units)",
    ))

    # --- Section 7: where do the ghosts live? --------------------------
    result = executor.window_result(last)
    datasets = executor.datasets(last)
    universe = internet.routing.window(last.start, last.end)
    model = build_unused_space_model(
        datasets, universe, result.estimate_addresses.unseen
    )
    print("\nSection 7 — addresses in unused prefixes by prefix length")
    obs = model.observed_unused_addresses
    est = model.estimated_unused_addresses
    vac_rows = []
    for length in range(8, 33, 2):
        vac_rows.append([
            f"/{length}",
            f"{obs[length]:.0f}",
            f"{est[length]:.0f}",
        ])
    print(format_table(
        ["prefix", "observed-unused", "after-ghosts"],
        vac_rows,
    ))
    print(
        f"\nSection 7 model: unseen addresses would newly occupy "
        f"{model.new_subnet24_equivalent():.0f} /24s; the independent "
        f"/24-level LLM estimated {result.estimate_subnets.unseen:.0f} "
        "unseen /24s (the paper's mutual-validation check)."
    )


if __name__ == "__main__":
    main()
