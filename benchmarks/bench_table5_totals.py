"""Table 5 — used-space totals at end-June 2014 by stratification.

Reproduces the paper's headline table: pingable, observed, estimated
and unseen addresses and /24s, with the estimated total recomputed
under every stratification (none / RIR / country / age / prefix /
industry / static-dynamic).  The paper's key observations checked:
totals are consistent across stratifications, estimates stay below the
routed space, and the est/ping quotient exceeds Heidemann's 1.86.
"""

from repro.analysis.report import fmt_real_millions, format_table
from benchmarks.conftest import BENCH_SCALE

STRATIFICATIONS = ["rir", "country", "age", "prefix", "industry", "dynamic"]


def run_totals(executor, window):
    result = executor.window_result(window)
    addr_totals = {"none": result.estimated_addresses}
    sub_totals = {"none": result.estimated_subnets}
    for kind in STRATIFICATIONS:
        addr_totals[kind] = executor.stratified(window, kind).population
        sub_totals[kind] = executor.stratified(
            window, kind, "subnets"
        ).population
    return result, addr_totals, sub_totals


def test_table5_totals(benchmark, bench_executor, last_window):
    result, addr_totals, sub_totals = benchmark.pedantic(
        run_totals, args=(bench_executor, last_window), rounds=1, iterations=1
    )

    def row(label, totals, ping, observed, routed, truth):
        cells = [label]
        cells.extend(
            fmt_real_millions(totals[k], BENCH_SCALE)
            for k in ["none"] + STRATIFICATIONS
        )
        cells.append(fmt_real_millions(ping, BENCH_SCALE))
        cells.append(fmt_real_millions(observed, BENCH_SCALE))
        cells.append(fmt_real_millions(totals["none"] - observed, BENCH_SCALE))
        cells.append(fmt_real_millions(routed, BENCH_SCALE))
        cells.append(fmt_real_millions(truth, BENCH_SCALE))
        return cells

    print()
    print(format_table(
        ["level", "est none", "rir", "country", "age", "prefix", "industry",
         "stat/dyn", "ping", "obs", "unseen", "routed", "truth"],
        [
            row("IPs [M]", addr_totals, result.ping_addresses,
                result.observed_addresses, result.routed_addresses,
                result.truth_addresses),
            row("/24 [M]", sub_totals, result.ping_subnets,
                result.observed_subnets, result.routed_subnets,
                result.truth_subnets),
        ],
        title="Table 5 — estimated used IPv4 space at end-June 2014 "
              "(real-equivalent millions)",
    ))

    base = addr_totals["none"]
    for kind, total in addr_totals.items():
        # Paper: estimates "fairly consistent across stratifications"
        # (1.08-1.17 B, a ~8 % spread).
        assert abs(total - base) < 0.15 * base, kind
        # Always plausible: below the routed space.
        assert total <= result.routed_addresses, kind
    for kind, total in sub_totals.items():
        assert abs(total - sub_totals["none"]) < 0.15 * sub_totals["none"]
        assert total <= result.routed_subnets
    # est/ping quotient larger than Heidemann's 1.86 correction factor.
    assert base / result.ping_addresses > 1.86
    # Observed fraction of routed below estimated fraction (27 % -> 45 %).
    assert result.observed_addresses / result.routed_addresses < base / (
        result.routed_addresses
    )
