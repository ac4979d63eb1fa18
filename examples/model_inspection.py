#!/usr/bin/env python3
"""Model criticism: is the capture-recapture estimate trustworthy?

The paper selects "the least complex model with adequate fit" — this
example shows the library's full inspection toolkit on one window of
the simulated Internet: the stepwise selection path, residual
diagnostics (which capture histories the model mispredicts), bootstrap
standard errors, and leave-one-source-out leverage.

Run:  python examples/model_inspection.py
"""

from repro import (
    CaptureRecapture,
    EstimatorOptions,
    Executor,
    SimulationConfig,
    SyntheticInternet,
    TimeWindow,
)
from repro.analysis.report import format_table
from repro.analysis.sensitivity import leave_one_out_sensitivity
from repro.core.design import describe_terms


def main() -> None:
    internet = SyntheticInternet(SimulationConfig(scale=2.0**-13))
    executor = Executor(internet)
    window = TimeWindow(2013.5, 2014.5)
    # The set-level toolkit over the window's analysis datasets (filtered,
    # quarantined sources dropped), truncated at the routed space.
    datasets = executor.analysis_datasets(window)
    routed = internet.routing.size(window.start, window.end)
    estimator = CaptureRecapture(datasets, EstimatorOptions(limit=routed))

    # --- 1. the selection path -----------------------------------------
    selection = estimator.selection()
    print("stepwise selection path (IC on divided counts, divisor "
          f"{selection.divisor}):")
    for step in selection.path[:6]:
        print(f"  {step.num_params:3d} params  IC {step.ic:10.1f}")
    if len(selection.path) > 6:
        print(f"  ... {len(selection.path) - 6} more steps")
    names = estimator.table().source_names
    print(f"chosen model: {describe_terms(selection.fit.terms, names)}\n")

    # --- 2. the estimate and its uncertainty ----------------------------
    estimate = estimator.estimate()
    boot = estimator.bootstrap(num_replicates=80, seed=11)
    truth = internet.truth_used_addresses(window.start, window.end)
    lo, hi = boot.interval
    print(f"estimate: {estimate.population:,.0f} "
          f"(bootstrap SE {boot.standard_error:,.0f}, "
          f"95% [{lo:,.0f}, {hi:,.0f}])")
    print(f"truth:    {truth:,} "
          f"({100 * (estimate.population - truth) / truth:+.1f}% error)\n")

    # --- 3. residual diagnostics ----------------------------------------
    diag = estimator.diagnostics()
    print(f"goodness of fit: Pearson X2 = {diag.pearson_chi2:.0f} "
          f"on {diag.dof} dof")
    rows = []
    for cell in diag.worst_cells(5):
        rows.append([
            cell.history_string(len(names)),
            f"{cell.observed:.0f}",
            f"{cell.fitted:.1f}",
            f"{cell.pearson:+.1f}",
        ])
    print(format_table(
        [f"history ({'/'.join(names)})", "observed", "fitted", "pearson"],
        rows,
        title="worst-fitting capture histories",
    ))

    # --- 4. source leverage ----------------------------------------------
    report = leave_one_out_sensitivity(datasets, estimator.options)
    rows = [
        [row.source, f"{row.estimate_without:,.0f}", f"{row.shift:+.1%}"]
        for row in sorted(report.rows, key=lambda r: -abs(r.shift))
    ]
    print()
    print(format_table(
        ["dropped source", "estimate without it", "shift"],
        rows,
        title=f"leave-one-out leverage (robust: {report.is_robust()})",
    ))


if __name__ == "__main__":
    main()
