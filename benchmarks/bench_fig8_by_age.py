"""Figure 8 — yearly address growth by allocation age.

Stratifies by allocation year (bucketed into eras for stable cells at
simulation scale) and checks the paper's correlation: recent
allocations grow the most, both absolutely and relatively, while old
legacy space still shows some growth.
"""

from repro.analysis.growth import stratified_yearly_growth
from repro.analysis.report import fmt_real_millions, format_table
from benchmarks.conftest import BENCH_SCALE

ERAS = [(1983, 1998), (1998, 2004), (2004, 2008), (2008, 2011), (2011, 2015)]


def era_of(year: int) -> str:
    for lo, hi in ERAS:
        if lo <= year < hi:
            return f"{lo}-{hi - 1}"
    return "other"


def run(executor, first_window, last_window):
    rows = stratified_yearly_growth(
        executor, "age", first_window, last_window
    )
    buckets: dict[str, dict[str, float]] = {}
    for row in rows:
        if int(row.label) < 0:
            continue
        era = era_of(int(row.label))
        bucket = buckets.setdefault(
            era, {"obs": 0.0, "est": 0.0, "est_first": 0.0}
        )
        bucket["obs"] += row.observed_per_year
        bucket["est"] += row.estimated_per_year
        bucket["est_first"] += row.estimated_first
    return buckets


def test_fig8_by_allocation_age(benchmark, bench_executor, first_window,
                                last_window):
    buckets = benchmark.pedantic(
        run, args=(bench_executor, first_window, last_window),
        rounds=1, iterations=1,
    )
    printable = []
    for era in sorted(buckets):
        b = buckets[era]
        rel = 100 * b["est"] / b["est_first"] if b["est_first"] else float(
            "nan"
        )
        printable.append([
            era,
            fmt_real_millions(b["obs"], BENCH_SCALE),
            fmt_real_millions(b["est"], BENCH_SCALE),
            f"{rel:.0f}%",
        ])
    print()
    print(format_table(
        ["allocation era", "obs growth[M/yr]", "est growth[M/yr]",
         "rel growth/yr"],
        printable,
        title="Figure 8 — yearly growth by allocation age "
              "(real-equivalent millions)",
    ))

    assert len(buckets) >= 4
    recent = buckets["2011-2014"]
    legacy = buckets["1983-1997"]
    # Recent allocations show the strongest relative growth (they start
    # from nothing and fill fast).
    recent_rel = recent["est"] / max(recent["est_first"], 1e-9)
    legacy_rel = legacy["est"] / max(legacy["est_first"], 1e-9)
    assert recent_rel > legacy_rel
    # Old space still grows a little (the paper sees 20 %+ in places).
    assert legacy["est"] > 0
    # Positive correlation between recency and relative growth across
    # all eras (Spearman-style: eras sorted by start year).
    eras_sorted = sorted(buckets)
    rels = [
        buckets[e]["est"] / max(buckets[e]["est_first"], 1e-9)
        for e in eras_sorted
    ]
    assert rels[-1] == max(rels)
