"""Section 7.2.1 — router FIB capacity if all unused prefixes route.

The paper counts ~0.78 M unused prefixes of /24 or larger, adds the
existing >0.5 M routed prefixes, and concludes everything fits within
the ~2 M-route FIBs of 2007-era big iron (and comfortably within the
~10 M claimed feasible).  This bench recomputes the arithmetic from the
simulator's vacancy histogram (rescaling prefix counts to real
magnitude) plus the market valuation of the unused space (Section 8's
US$11 B figure).
"""

from repro.analysis.fib import FIB_CAPACITY_2007, forecast_fib
from repro.analysis.market import value_unused_subnets
from repro.analysis.report import format_table, to_real
from repro.ipspace.blocks import vacant_block_histogram
from repro.ipspace.ipset import IPSet
from benchmarks.conftest import BENCH_SCALE


def run(executor, internet, window):
    datasets = executor.datasets(window)
    universe = internet.routing.window(window.start, window.end)
    observed = IPSet.empty().union(*datasets.values())
    vacancy = vacant_block_histogram(observed.addresses, universe)
    table = internet.routing.routing_table(window.start, window.end)
    forecast = forecast_fib(vacancy, len(table))
    # The paper: "FIB compression techniques can reduce size of FIBs".
    from repro.ipspace.aggregation import compress_prefixes

    compression = compress_prefixes(table.prefixes())
    result = executor.window_result(window)
    unused_24s = result.routed_subnets - result.estimated_subnets
    valuation = value_unused_subnets(
        to_real(max(unused_24s, 0.0), BENCH_SCALE)
    )
    return forecast, valuation, compression


def test_sec721_fib_and_market(benchmark, bench_executor, bench_internet,
                               last_window):
    forecast, valuation, compression = benchmark.pedantic(
        run, args=(bench_executor, bench_internet, last_window),
        rounds=1, iterations=1,
    )
    # Prefix *counts* do not rescale linearly with the address scale
    # (the simulator shrinks block sizes, not just block counts), so
    # the FIB comparison is made in relative terms: the paper's 2 M
    # capacity is 4x its >0.5 M current table, and its fully advertised
    # total is ~2.6x the current table.
    growth_factor = forecast.total_routes / max(forecast.current_routes, 1)
    print()
    print(format_table(
        ["quantity", "simulated", "relative to current table"],
        [
            ["current routed prefixes", forecast.current_routes, "1.0x"],
            ["unused routable prefixes", forecast.unused_routable_prefixes,
             f"{forecast.unused_routable_prefixes / forecast.current_routes:.2f}x"],
            ["total if all advertised", forecast.total_routes,
             f"{growth_factor:.2f}x (paper: ~2.6x)"],
            ["2007 FIB capacity", "-",
             f"{FIB_CAPACITY_2007 / 500_000:.0f}x (paper basis)"],
        ],
        title="Section 7.2.1 — FIB capacity forecast",
    ))
    print(f"\nFIB compression: {compression.original_count} routes "
          f"aggregate losslessly to {compression.compressed_count} "
          f"({compression.ratio:.2f}x)")
    print(f"Section 8 — unused routed space valuation: "
          f"{valuation.describe()} (paper: ~US$11 B)")

    # Lossless aggregation helps but is no magic wand (the paper treats
    # it as headroom, not a solution).
    assert 1.0 <= compression.ratio < 3.0

    # The paper's conclusion in relative form: advertising every unused
    # prefix grows the table by well under the 4x headroom of 2007-era
    # FIBs.
    assert 1.0 < growth_factor < 4.0
    assert forecast.unused_routable_prefixes > 0
    # Valuation lands within the right order of the paper's US$11 B
    # (the /24-level supply rescales linearly, unlike prefix counts).
    assert 1e9 < valuation.mid < 40e9
