"""Table 2 — data sources and observed unique IPs / /24s per year.

Regenerates the per-source, per-year unique-address and unique-/24
counts (after preprocessing and spoof filtering, as in the paper's
table) and checks the qualitative size relations the paper reports.
"""

from repro.analysis.report import fmt_real_millions, format_table
from repro.analysis.windows import TimeWindow
from benchmarks.conftest import BENCH_SCALE

YEARS = [2011, 2012, 2013]


def collect_yearly(executor):
    per_year = {}
    for year in YEARS:
        window = TimeWindow(float(year), float(year) + 1.0)
        per_year[year] = executor.datasets(window)
    return per_year


def test_table2_source_inventory(benchmark, bench_executor):
    per_year = benchmark.pedantic(
        collect_yearly, args=(bench_executor,), rounds=1, iterations=1
    )
    names = sorted(
        {name for datasets in per_year.values() for name in datasets},
        key=lambda n: ("WIKI SPAM MLAB WEB GAME SWIN CALT IPING "
                       "TPING").split().index(n),
    )
    rows = []
    for name in names:
        row = [name]
        for year in YEARS:
            dataset = per_year[year].get(name)
            if dataset is None:
                row.extend(["-", "-"])
            else:
                row.append(fmt_real_millions(len(dataset), BENCH_SCALE))
                row.append(
                    fmt_real_millions(len(dataset.subnets24()), BENCH_SCALE)
                )
        rows.append(row)
    print()
    print(format_table(
        ["source", "2011 IPs[M]", "/24[M]", "2012 IPs[M]", "/24[M]",
         "2013 IPs[M]", "/24[M]"],
        rows,
        title="Table 2 — observed unique IPv4 addresses and /24s per year "
              "(real-equivalent millions)",
    ))

    d2013 = per_year[2013]
    # Availability pattern: SPAM/TPING start 2012, CALT mid-2013.
    assert "SPAM" not in per_year[2011]
    assert "TPING" not in per_year[2011]
    assert "CALT" not in per_year[2012]
    assert "CALT" in d2013
    # Size relations: the censuses and NetFlow giants dominate the logs.
    assert len(d2013["IPING"]) > len(d2013["WEB"]) > len(d2013["WIKI"])
    assert len(d2013["CALT"]) > len(d2013["SWIN"])
    assert len(d2013["IPING"]) > len(d2013["TPING"])
    # /24 coverage is much flatter than address coverage (Table 2).
    ip_spread = len(d2013["IPING"]) / len(d2013["WIKI"])
    sub_spread = len(d2013["IPING"].subnets24()) / len(
        d2013["WIKI"].subnets24()
    )
    assert sub_spread < ip_spread
