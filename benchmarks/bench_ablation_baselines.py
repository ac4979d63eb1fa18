"""Ablation — log-linear models vs the classical baselines.

The paper argues Lincoln-Petersen's assumptions fail for IPv4 sources
and uses log-linear models instead.  With simulation ground truth we
can quantify that argument: on the full nine-source window, compare the
observed union, the best/worst two-source L-P estimates, Chao's lower
bound and the selected LLM against the truth.
"""

from itertools import combinations

import numpy as np

from repro.analysis.report import fmt_real_millions, format_table
from repro.core.chao import chao_estimate
from repro.core.histories import tabulate_histories
from repro.core.lincoln_petersen import (
    CaptureRecaptureError,
    lincoln_petersen_from_sets,
)
from repro.ipspace.ipset import IPSet
from benchmarks.conftest import BENCH_SCALE


def run(executor, window, truth):
    datasets = executor.datasets(window)
    union = len(IPSet.empty().union(*datasets.values()))
    lp_estimates = {}
    for a, b in combinations(datasets, 2):
        try:
            lp = lincoln_petersen_from_sets(datasets[a], datasets[b])
        except CaptureRecaptureError:
            continue
        lp_estimates[(a, b)] = lp.population
    table = tabulate_histories(datasets)
    chao = chao_estimate(table).population
    llm = executor.window_result(window).estimated_addresses
    return union, lp_estimates, chao, llm


def test_ablation_baselines(benchmark, bench_executor, bench_internet,
                            last_window):
    truth = bench_internet.truth_used_addresses(
        last_window.start, last_window.end
    )
    union, lp_estimates, chao, llm = benchmark.pedantic(
        run, args=(bench_executor, last_window, truth), rounds=1, iterations=1
    )
    lp_values = np.array(list(lp_estimates.values()))
    best_pair = min(lp_estimates, key=lambda k: abs(lp_estimates[k] - truth))
    rows = [
        ["observed union", fmt_real_millions(union, BENCH_SCALE),
         f"{100 * (union - truth) / truth:+.0f}%"],
        ["L-P median (36 pairs)",
         fmt_real_millions(float(np.median(lp_values)), BENCH_SCALE),
         f"{100 * (np.median(lp_values) - truth) / truth:+.0f}%"],
        [f"L-P best pair {best_pair}",
         fmt_real_millions(lp_estimates[best_pair], BENCH_SCALE),
         f"{100 * (lp_estimates[best_pair] - truth) / truth:+.0f}%"],
        ["Chao lower bound", fmt_real_millions(chao, BENCH_SCALE),
         f"{100 * (chao - truth) / truth:+.0f}%"],
        ["log-linear (paper)", fmt_real_millions(llm, BENCH_SCALE),
         f"{100 * (llm - truth) / truth:+.0f}%"],
        ["truth", fmt_real_millions(truth, BENCH_SCALE), ""],
    ]
    print()
    print(format_table(
        ["estimator", "estimate [M]", "error"],
        rows,
        title="Ablation — estimator baselines vs ground truth "
              "(real-equivalent millions)",
    ))

    # The LLM beats the observed union, the typical L-P pair and Chao.
    assert abs(llm - truth) < abs(union - truth)
    assert abs(llm - truth) < abs(float(np.median(lp_values)) - truth)
    assert abs(llm - truth) < abs(chao - truth)
    # Typical L-P underestimates (positive apparent dependence).
    assert np.median(lp_values) < truth
