"""Figure 6 — estimated IPv4 addresses per RIR, absolute and relative.

Stratifies the estimate by RIR on the first and last windows and
checks the paper's regional story: APNIC/ARIN/RIPE hold the most used
addresses, while AfriNIC (and LACNIC) grow fastest in relative terms
and RIPE slowest among the big three.
"""

from repro.analysis.growth import stratified_yearly_growth
from repro.analysis.report import fmt_real_millions, format_table
from repro.registry.rir import RIR
from benchmarks.conftest import BENCH_SCALE


def test_fig6_by_rir(benchmark, bench_executor, first_window, last_window):
    rows = benchmark.pedantic(
        stratified_yearly_growth,
        args=(bench_executor, "rir", first_window, last_window),
        rounds=1, iterations=1,
    )
    by_rir = {RIR(int(r.label)).name: r for r in rows if int(r.label) >= 0}
    printable = [
        [
            name,
            fmt_real_millions(row.estimated_first, BENCH_SCALE),
            fmt_real_millions(row.estimated_last, BENCH_SCALE),
            fmt_real_millions(row.estimated_per_year, BENCH_SCALE),
            f"{row.estimated_relative:.0f}%",
        ]
        for name, row in sorted(by_rir.items())
    ]
    print()
    print(format_table(
        ["RIR", "est Dec'11[M]", "est Jun'14[M]", "growth[M/yr]",
         "rel growth/yr"],
        printable,
        title="Figure 6 — estimated addresses by RIR "
              "(real-equivalent millions)",
    ))

    assert set(by_rir) == {"AFRINIC", "APNIC", "ARIN", "LACNIC", "RIPE"}
    # Absolute holdings: the big three dwarf AfriNIC and LACNIC.
    for small in ("AFRINIC", "LACNIC"):
        for big in ("APNIC", "ARIN", "RIPE"):
            assert by_rir[small].estimated_last < by_rir[big].estimated_last
    # Relative growth: AfriNIC and LACNIC lead (the paper's order is
    # AfriNIC then LACNIC; at simulation scale the two can swap);
    # RIPE slowest of the big three.
    rel = {name: row.estimated_relative for name, row in by_rir.items()}
    top_two = sorted(rel, key=rel.get)[-2:]
    assert set(top_two) == {"AFRINIC", "LACNIC"}
    assert rel["RIPE"] <= rel["APNIC"] + 5
    assert rel["RIPE"] <= rel["ARIN"] + 5
    # Everyone grew.
    assert all(row.estimated_per_year > 0 for row in by_rir.values())
