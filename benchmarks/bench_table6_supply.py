"""Table 6 — available space, growth and runout year per RIR.

Regenerates the supply table at both address and /24 granularity and
checks the regional pattern the paper emphasises: APNIC and LACNIC are
the pressure points, ARIN and RIPE have a decade or more, and a 75 %
utilisation cap pulls every runout year in.
"""

import math

from repro.analysis.report import fmt_real_millions, format_table
from repro.analysis.supply import supply_by_rir, world_supply
from benchmarks.conftest import BENCH_SCALE


def run_supply(executor, first, last):
    addr = supply_by_rir(executor, first, last, level="addresses")
    subs = supply_by_rir(executor, first, last, level="subnets")
    capped = supply_by_rir(
        executor, first, last, level="addresses", utilisation_cap=0.75
    )
    return addr, subs, capped


def fmt_year(year):
    return "never" if math.isinf(year) else f"{year:.0f}"


def test_table6_supply(benchmark, bench_executor, first_window, last_window):
    addr, subs, capped = benchmark.pedantic(
        run_supply,
        args=(bench_executor, first_window, last_window),
        rounds=1, iterations=1,
    )
    rows = []
    for a, s, c in zip(addr, subs, capped):
        rows.append([
            a.label,
            fmt_real_millions(a.available, BENCH_SCALE),
            fmt_real_millions(a.growth_per_year, BENCH_SCALE),
            fmt_year(a.runout_year),
            fmt_real_millions(s.available, BENCH_SCALE),
            fmt_year(s.runout_year),
            fmt_year(c.runout_year),
        ])
    world = world_supply(addr, now=last_window.end)
    world24 = world_supply(subs, now=last_window.end)
    rows.append([
        "World",
        fmt_real_millions(world.available, BENCH_SCALE),
        fmt_real_millions(world.growth_per_year, BENCH_SCALE),
        fmt_year(world.runout_year),
        fmt_real_millions(world24.available, BENCH_SCALE),
        fmt_year(world24.runout_year),
        "-",
    ])
    print()
    print(format_table(
        ["RIR", "avail IPs[M]", "growth[M/yr]", "runout IPs",
         "avail /24[M]", "runout /24", "runout@75%"],
        rows,
        title="Table 6 — IPv4 supply per RIR (real-equivalent millions)",
    ))

    by_label = {r.label: r for r in addr}
    capped_by = {r.label: r for r in capped}
    # The paper's pressure points run out before the comfortable RIRs.
    assert by_label["APNIC"].runout_year < by_label["ARIN"].runout_year
    assert by_label["LACNIC"].runout_year < by_label["ARIN"].runout_year
    # ARIN holds the largest available reserve (830 M in the paper).
    assert by_label["ARIN"].available == max(r.available for r in addr)
    # Capping utilisation tightens every region.
    for label, row in by_label.items():
        assert capped_by[label].runout_year <= row.runout_year
    # World runout lands within a plausible horizon of the paper's 2023.
    assert 2016 <= world.runout_year <= 2040
