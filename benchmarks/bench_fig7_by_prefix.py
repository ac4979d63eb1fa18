"""Figure 7 — yearly address growth by allocation prefix size.

Stratifies by the real-equivalent allocation prefix length (/8-/24) and
checks the paper's shape: absolute growth concentrates in the mid-size
allocations (/10-/16), legacy /8s barely grow, and the post-runout
final-policy small blocks (/21-/22) show strong *relative* growth.
"""

import numpy as np

from repro.analysis.growth import stratified_yearly_growth
from repro.analysis.report import fmt_real_millions, format_table
from benchmarks.conftest import BENCH_SCALE


def test_fig7_by_prefix_size(benchmark, bench_executor, first_window,
                             last_window):
    rows = benchmark.pedantic(
        stratified_yearly_growth,
        args=(bench_executor, "prefix", first_window, last_window),
        rounds=1, iterations=1,
    )
    by_len = {int(r.label): r for r in rows if int(r.label) >= 8}
    printable = [
        [
            f"/{length}",
            fmt_real_millions(row.observed_per_year, BENCH_SCALE),
            fmt_real_millions(row.estimated_per_year, BENCH_SCALE),
            f"{row.estimated_relative:.0f}%",
        ]
        for length, row in sorted(by_len.items())
    ]
    print()
    print(format_table(
        ["alloc prefix", "obs growth[M/yr]", "est growth[M/yr]",
         "rel growth/yr"],
        printable,
        title="Figure 7 — yearly growth by allocation prefix size "
              "(real-equivalent millions)",
    ))

    lengths = sorted(by_len)
    assert lengths[0] == 8 and lengths[-1] >= 22
    # Absolute growth concentrates in the mid sizes: the top grower is
    # between /10 and /17.
    top = max(by_len, key=lambda l: by_len[l].estimated_per_year)
    assert 9 <= top <= 17
    # Legacy /8s grow less than the mid sizes in absolute terms.
    mid_growth = max(
        by_len[l].estimated_per_year for l in lengths if 10 <= l <= 16
    )
    assert by_len[8].estimated_per_year < mid_growth
    # Relative growth of the post-runout /21-/22 blocks is strong:
    # above the /8s' relative growth.
    small_rel = np.nanmax([
        by_len[l].estimated_relative for l in lengths if l in (21, 22)
    ])
    assert small_rel > by_len[8].estimated_relative
