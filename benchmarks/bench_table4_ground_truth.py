"""Table 4 — per-network estimates vs ground truth.

For six validation networks (the last of which blocks active probing,
like the paper's network F), compares pingable, observed, Poisson-LLM
and truncated-Poisson-LLM estimates with the true peak usage, all as
percentages of the network size.  The paper's pattern: observation
under-counts badly, CR lands near the truth, and the right-truncated
Poisson beats the plain Poisson.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.selection import select_model
from repro.core.histories import tabulate_histories
from repro.core.loglinear import LoglinearModel
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet


def evaluate_networks(executor, internet, window):
    datasets = executor.datasets(window)
    rows = []
    for network in internet.ground_truth_networks():
        prefix = network.allocation.prefix
        block = IntervalSet([(prefix.base, prefix.end)])
        local = {
            name: d.restrict(block) for name, d in datasets.items()
        }
        local = {name: d for name, d in local.items() if len(d)}
        if len(local) < 3:
            continue
        size = prefix.size
        ping = len(local.get("IPING", IPSet.empty()))
        observed = len(IPSet.empty().union(*local.values()))
        table = tabulate_histories(local)
        selection = select_model(table, criterion="bic", divisor="adaptive1000")
        poisson = selection.fit.estimate().population
        truncated = (
            LoglinearModel(table.num_sources, selection.fit.terms)
            .fit(table, "truncated", limit=float(size))
            .estimate()
            .population
        )
        truth_peak = internet.population.peak_simultaneous_usage(
            network.allocation, window.midpoint
        )
        in_block = internet.population.alloc_index == network.allocation.index
        truth_window = int(
            (in_block & internet.population.used_in_window(
                window.start, window.end
            )).sum()
        )
        rows.append({
            "label": network.label,
            "blocked": network.blocks_pings,
            "size": size,
            "ping": 100 * ping / size,
            "observed": 100 * observed / size,
            "poisson": 100 * poisson / size,
            "truncated": 100 * truncated / size,
            "truth": 100 * truth_peak / size,
            "truth_window": 100 * truth_window / size,
        })
    return rows


def test_table4_ground_truth(benchmark, bench_executor, bench_internet,
                             last_window):
    rows = benchmark.pedantic(
        evaluate_networks,
        args=(bench_executor, bench_internet, last_window),
        rounds=1, iterations=1,
    )
    printable = [
        [
            r["label"],
            f"{r['ping']:.1f}",
            f"{r['observed']:.1f}",
            f"{r['poisson']:.1f}({r['poisson'] - r['truth']:+.1f})",
            f"{r['truncated']:.1f}({r['truncated'] - r['truth']:+.1f})",
            f"{r['truth']:.1f}",
            f"{r['truth_window']:.1f}",
        ]
        for r in rows
    ]
    print()
    print(format_table(
        ["network", "ping %", "obs %", "poisson(err) %", "truncpois(err) %",
         "truth(peak) %", "truth(window) %"],
        printable,
        title="Table 4 — network estimates vs ground truth (peak "
              "watermark and window usage)",
    ))

    assert len(rows) >= 5
    # Network F (ping-blocked) shows ~0 pingable addresses.
    blocked = [r for r in rows if r["blocked"]]
    assert blocked and blocked[0]["ping"] < 0.5
    # Pinging badly under-counts every network (paper's first column).
    assert all(r["ping"] < 0.75 * r["truth"] for r in rows)
    # Against the window-usage truth (what a 12-month CR run actually
    # estimates), CR is closer than raw observation for most networks.
    wins = sum(
        1
        for r in rows
        if abs(r["truncated"] - r["truth_window"])
        < abs(r["observed"] - r["truth_window"])
    )
    assert wins >= len(rows) - 2
    # The paper's churn signature: truncated estimates tend to sit at
    # or above the peak watermark ("higher than the truth... the cause
    # may be dynamic addresses") — except the ping-blocked network,
    # which under-estimates (the paper's network F is the one negative
    # error in Table 4).
    open_rows = [r for r in rows if not r["blocked"]]
    at_or_above = sum(1 for r in open_rows if r["truncated"] > 0.9 * r["truth"])
    assert at_or_above >= len(open_rows) - 1
    assert blocked[0]["truncated"] < blocked[0]["truth_window"]
    # The truncated estimates never exceed the network size.
    assert all(r["truncated"] <= 100.0 + 1e-6 for r in rows)
    # Truncation is no worse than plain Poisson on average against the
    # window truth (Table 4's column comparison).
    pois_err = np.mean(
        [abs(r["poisson"] - r["truth_window"]) for r in rows]
    )
    trunc_err = np.mean(
        [abs(r["truncated"] - r["truth_window"]) for r in rows]
    )
    assert trunc_err <= pois_err * 1.05
