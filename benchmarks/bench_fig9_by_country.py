"""Figure 9 — yearly address growth by country (largest countries).

Stratifies by country, keeps the countries with enough observed
addresses (the paper's >= 1.5 M cut, rescaled), and checks the shape:
US and CN lead in absolute growth and the configured fast growers
(BR, RO, VN, ...) beat the mature markets in relative growth.
"""

import numpy as np

from repro.analysis.growth import stratified_yearly_growth
from repro.analysis.report import fmt_real_millions, format_table
from benchmarks.conftest import BENCH_SCALE

#: The paper's 1.5 M-observed cut, at simulation scale.
MIN_OBSERVED = 1.5e6 * BENCH_SCALE


def test_fig9_by_country(benchmark, bench_executor, first_window,
                         last_window):
    rows = benchmark.pedantic(
        stratified_yearly_growth,
        args=(bench_executor, "country", first_window, last_window),
        kwargs={"min_observed": MIN_OBSERVED},
        rounds=1, iterations=1,
    )
    rows = [r for r in rows if r.label != "??"]
    rows.sort(key=lambda r: -r.estimated_per_year)
    printable = [
        [
            r.label,
            fmt_real_millions(r.estimated_last, BENCH_SCALE),
            fmt_real_millions(r.estimated_per_year, BENCH_SCALE),
            f"{r.estimated_relative:.0f}%",
        ]
        for r in rows[:20]
    ]
    print()
    print(format_table(
        ["country", "est Jun'14[M]", "growth[M/yr]", "rel growth/yr"],
        printable,
        title="Figure 9 — yearly growth by country, top 20 by absolute "
              "growth (real-equivalent millions)",
    ))

    by_code = {r.label: r for r in rows}
    assert len(rows) >= 10
    # US and CN lead absolute growth (the two largest holdings).
    top4 = [r.label for r in rows[:4]]
    assert "US" in top4 and "CN" in top4
    # Fast growers beat mature markets in relative terms where present.
    fast = [c for c in ("BR", "RO", "VN", "ID", "CO") if c in by_code]
    slow = [c for c in ("DE", "JP", "SE", "NL") if c in by_code]
    assert fast and slow
    fast_rel = np.nanmedian([by_code[c].estimated_relative for c in fast])
    slow_rel = np.nanmedian([by_code[c].estimated_relative for c in slow])
    assert fast_rel > slow_rel
