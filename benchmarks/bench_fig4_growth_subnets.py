"""Figure 4 — growth of routed, observed and estimated /24 subnets.

Regenerates both panels (absolute counts and series normalised on the
first window) over the 11 standard windows and checks the paper's
shape: estimated sits a few percent above observed, both grow
substantially faster than the routed space, and growth is roughly
linear.
"""

import numpy as np

from repro.analysis.growth import series_from_results
from repro.analysis.report import fmt_real_millions, format_table
from repro.core.profile_ci import profile_likelihood_interval
from benchmarks.conftest import BENCH_SCALE


def test_fig4_subnet_growth(benchmark, all_window_results, bench_executor):
    series = benchmark.pedantic(
        series_from_results, args=(all_window_results, "subnets"),
        rounds=1, iterations=1,
    )
    # The paper: the /24 estimate range is within ±1 % of the point
    # estimates.  Check the final window's profile range.
    window = all_window_results[-1].window
    interval = profile_likelihood_interval(
        bench_executor.run("tabulate", window, level="subnets"),
        bench_executor.run("fit", window, level="subnets").fit.terms,
        alpha=1e-7,
    )
    point = series.estimated[-1]
    half_width = 0.5 * (interval.population_high - interval.population_low)
    assert half_width / point < 0.03
    rows = []
    obs_norm = series.normalized("observed")
    est_norm = series.normalized("estimated")
    routed_norm = series.normalized("routed")
    for i, label in enumerate(series.labels):
        rows.append([
            label,
            fmt_real_millions(series.routed[i], BENCH_SCALE),
            fmt_real_millions(series.observed[i], BENCH_SCALE),
            fmt_real_millions(series.estimated[i], BENCH_SCALE),
            fmt_real_millions(series.truth[i], BENCH_SCALE),
            f"{routed_norm[i]:.3f}",
            f"{obs_norm[i]:.3f}",
            f"{est_norm[i]:.3f}",
        ])
    print()
    print(format_table(
        ["window", "routed[M]", "obs[M]", "est[M]", "truth[M]",
         "routed rel", "obs rel", "est rel"],
        rows,
        title="Figure 4 — /24 subnets over time (real-equivalent millions)",
    ))

    # Estimated stays a modest correction above observed (paper: 5-10 %).
    ratio = series.estimated / series.observed
    assert (ratio >= 1.0).all()
    assert ratio.max() < 1.25
    # Observed and estimated grow faster than the routed space
    # (paper: 22 % vs 7 % over the period).
    assert est_norm[-1] > routed_norm[-1]
    assert obs_norm[-1] > routed_norm[-1]
    assert est_norm[-1] > 1.05
    # Roughly linear growth: a linear fit explains nearly everything.
    t = series.window_ends
    fit = np.polyval(np.polyfit(t, series.estimated, 1), t)
    residual = np.abs(fit - series.estimated) / series.estimated
    assert residual.max() < 0.08
    # Tracks the true /24 usage throughout.
    assert (np.abs(series.estimated - series.truth) < 0.2 * series.truth).all()
