"""Figure 5 — growth of routed, observed and estimated IPv4 addresses.

The address-level companion to Figure 4: estimated sits 25-60 % above
observed (vs a few percent for /24s), growth is roughly linear at a
rate comparable to the paper's 170 M addresses/year once rescaled, and
relative growth outpaces the routed space.
"""

import numpy as np

from repro.analysis.growth import series_from_results
from repro.analysis.report import fmt_real_millions, format_table, to_real
from repro.core.profile_ci import profile_likelihood_interval
from benchmarks.conftest import BENCH_SCALE


def test_fig5_address_growth(benchmark, all_window_results, bench_executor):
    series = benchmark.pedantic(
        series_from_results, args=(all_window_results, "addresses"),
        rounds=1, iterations=1,
    )
    # The paper: the address estimate range is within ±3 % of the point
    # estimates.  Check the final window's profile range.
    window = all_window_results[-1].window
    interval = profile_likelihood_interval(
        bench_executor.run("tabulate", window, level="addresses"),
        bench_executor.run("fit", window, level="addresses").fit.terms,
        alpha=1e-7,
    )
    half_width = 0.5 * (interval.population_high - interval.population_low)
    assert half_width / series.estimated[-1] < 0.06
    est_norm = series.normalized("estimated")
    routed_norm = series.normalized("routed")
    rows = []
    for i, label in enumerate(series.labels):
        rows.append([
            label,
            fmt_real_millions(series.routed[i], BENCH_SCALE),
            fmt_real_millions(series.observed[i], BENCH_SCALE),
            fmt_real_millions(series.estimated[i], BENCH_SCALE),
            fmt_real_millions(series.truth[i], BENCH_SCALE),
            f"{est_norm[i]:.3f}",
        ])
    print()
    print(format_table(
        ["window", "routed[M]", "obs[M]", "est[M]", "truth[M]", "est rel"],
        rows,
        title="Figure 5 — IPv4 addresses over time "
              "(real-equivalent millions)",
    ))
    growth = to_real(series.growth_per_year("estimated"), BENCH_SCALE)
    print(f"\nestimated growth: {growth / 1e6:.0f} M addresses/year "
          "(paper: ~170 M)")

    # Address correction is large (paper: estimated 50-60 % above
    # observed; our sources are a bit more complete, so accept >= 25 %).
    ratio = series.estimated / series.observed
    assert (ratio > 1.25).all()
    # Estimated grows faster than routed in relative terms.
    assert est_norm[-1] > routed_norm[-1]
    # Roughly linear growth.
    t = series.window_ends
    fit = np.polyval(np.polyfit(t, series.estimated, 1), t)
    assert (np.abs(fit - series.estimated) / series.estimated).max() < 0.10
    # Growth magnitude lands in the right order (paper: 170 M/yr; the
    # simulator's truth slope is the target, give-or-take estimator
    # noise).
    truth_growth = series.growth_per_year("truth")
    est_growth = series.growth_per_year("estimated")
    assert 0.5 * truth_growth < est_growth < 2.0 * truth_growth
    # Tracks the truth in every window.
    assert (np.abs(series.estimated - series.truth) < 0.25 * series.truth).all()
