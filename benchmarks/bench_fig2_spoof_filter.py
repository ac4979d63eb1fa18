"""Figure 2 — spoof filtering's effect on /24 observations and estimates.

Compares three configurations over a late window (where CALT's March
2014 spoof spike hits): unfiltered NetFlow, filtered NetFlow, and no
NetFlow at all.  The paper's pattern: unfiltered estimates blow up
(beyond plausibility), while filtered estimates agree with the
no-NetFlow estimates.
"""

from repro.engine.executor import Executor
from repro.analysis.report import format_table
from repro.analysis.windows import TimeWindow
from repro.core.estimator import CaptureRecapture, EstimatorOptions
from repro.ipspace.ipset import IPSet

WINDOW = TimeWindow(2013.5, 2014.5)


def subnet_estimate(datasets, routed24):
    projected = {n: d.subnets24() for n, d in datasets.items()}
    cr = CaptureRecapture(
        projected, EstimatorOptions(limit=float(routed24))
    )
    observed = len(IPSet.empty().union(*projected.values()))
    return observed, cr.estimate().population


def run_configurations(internet, sources):
    routed24 = internet.routing.subnet24_count(WINDOW.start, WINDOW.end)
    executor = Executor(internet, sources)
    configs = {}
    unfiltered = executor.datasets(WINDOW, spoof_filtering=False)
    filtered = executor.datasets(WINDOW, spoof_filtering=True)
    no_netflow = {
        n: d for n, d in filtered.items() if n not in ("SWIN", "CALT")
    }
    configs["unfiltered"] = subnet_estimate(unfiltered, routed24)
    configs["filtered"] = subnet_estimate(filtered, routed24)
    configs["no_SWIN/CALT"] = subnet_estimate(no_netflow, routed24)
    truth = internet.truth_used_subnets(WINDOW.start, WINDOW.end)
    return configs, routed24, truth


def test_fig2_spoof_filtering(benchmark, bench_internet, bench_sources):
    configs, routed24, truth = benchmark.pedantic(
        run_configurations,
        args=(bench_internet, bench_sources),
        rounds=1, iterations=1,
    )
    rows = [
        [name, obs, f"{est:.0f}"]
        for name, (obs, est) in configs.items()
    ]
    rows.append(["(routed /24s)", routed24, "-"])
    rows.append(["(truth /24s)", truth, "-"])
    print()
    print(format_table(
        ["configuration", "observed /24s", "estimated /24s"],
        rows,
        title=f"Figure 2 — /24 subnets with/without spoof filtering "
              f"({WINDOW.label()})",
    ))

    unf_obs, unf_est = configs["unfiltered"]
    fil_obs, fil_est = configs["filtered"]
    ref_obs, ref_est = configs["no_SWIN/CALT"]
    # Unfiltered observations inflate well past the truth.
    assert unf_obs > 1.15 * truth
    # Filtering brings the observed count back near (or below) truth.
    assert fil_obs < unf_obs
    assert abs(fil_obs - truth) < abs(unf_obs - truth)
    # Filtered and no-NetFlow estimates agree (paper: "quite
    # consistent"); unfiltered disagrees by much more.
    assert abs(fil_est - ref_est) < 0.15 * ref_est
    assert abs(unf_est - ref_est) > abs(fil_est - ref_est)
