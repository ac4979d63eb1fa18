#!/usr/bin/env python3
"""A full measurement campaign over the simulated Internet.

Reproduces the paper's core workflow end to end: build a synthetic
Internet, run the nine measurement sources over the standard
overlapping 12-month windows, preprocess and spoof-filter the datasets,
and print the routed / pinged / observed / estimated / truth series —
the data behind the paper's Figures 4 and 5.

Run:  python examples/census_campaign.py  [--scale-log2 -12]
"""

import argparse
import time

from repro import Executor, SimulationConfig, SyntheticInternet
from repro.analysis.growth import series_from_results
from repro.analysis.report import format_table
from repro.analysis.windows import standard_windows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale-log2", type=int, default=-12,
        help="log2 of the simulation scale (default -12: ~1/4096 Internet)",
    )
    parser.add_argument("--seed", type=int, default=20140630)
    args = parser.parse_args()

    t0 = time.time()
    internet = SyntheticInternet(
        SimulationConfig(scale=2.0**args.scale_log2, seed=args.seed)
    )
    print(internet.describe())
    executor = Executor(internet)

    windows = standard_windows()[::2]  # every second window for speed
    results = executor.run_windows(windows)

    rows = []
    for r in results:
        rows.append([
            r.window.label(),
            r.routed_addresses,
            r.ping_addresses,
            r.observed_addresses,
            f"{r.estimated_addresses:.0f}",
            r.truth_addresses,
            f"{r.estimated_addresses / r.observed_addresses:.2f}",
        ])
    print()
    print(format_table(
        ["window", "routed", "ping", "observed", "estimated", "truth",
         "est/obs"],
        rows,
        title="Used IPv4 addresses per window (simulated units)",
    ))

    rows24 = []
    for r in results:
        rows24.append([
            r.window.label(),
            r.routed_subnets,
            r.observed_subnets,
            f"{r.estimated_subnets:.0f}",
            r.truth_subnets,
        ])
    print()
    print(format_table(
        ["window", "routed/24", "observed/24", "estimated/24", "truth/24"],
        rows24,
        title="Used /24 subnets per window",
    ))

    addr = series_from_results(results, "addresses")
    print(
        f"\nestimated growth: {addr.growth_per_year('estimated'):.0f} "
        f"addresses/year (truth {addr.growth_per_year('truth'):.0f})"
    )
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
