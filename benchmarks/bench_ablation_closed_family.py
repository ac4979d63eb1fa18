"""Ablation — classical closed-population family vs the paper's LLMs.

Fits M0 / Mt / Mb / Mh-jackknife (the Otis-et-al. family behind the
paper's references [9, 21]) on the full nine-source window and compares
them with the selected log-linear model against the simulation truth.
Expected shape: Mt == independence-LLM and undershoots under
heterogeneity; the jackknife corrects upward; the dependence-aware LLM
is the most accurate.
"""

from repro.analysis.report import fmt_real_millions, format_table
from repro.core.closed_models import fit_all_closed_models
from repro.core.histories import tabulate_histories
from benchmarks.conftest import BENCH_SCALE


def run(executor, window):
    table = tabulate_histories(executor.datasets(window))
    family = fit_all_closed_models(table)
    llm = executor.window_result(window).estimated_addresses
    return table, family, llm


def test_ablation_closed_family(benchmark, bench_executor, bench_internet,
                                last_window):
    table, family, llm = benchmark.pedantic(
        run, args=(bench_executor, last_window), rounds=1, iterations=1
    )
    truth = bench_internet.truth_used_addresses(
        last_window.start, last_window.end
    )
    import math

    rows = [
        [
            est.model,
            "unbounded" if math.isinf(est.population)
            else fmt_real_millions(est.population, BENCH_SCALE),
            "(degenerate)" if math.isinf(est.population)
            else f"{100 * (est.population - truth) / truth:+.1f}%",
        ]
        for est in family
    ]
    rows.append([
        "log-linear (paper)",
        fmt_real_millions(llm, BENCH_SCALE),
        f"{100 * (llm - truth) / truth:+.1f}%",
    ])
    rows.append(["truth", fmt_real_millions(truth, BENCH_SCALE), ""])
    print()
    print(format_table(
        ["model", "estimate [M]", "error"],
        rows,
        title="Ablation — classical closed-population models vs the LLM",
    ))

    by_model = {est.model[:2]: est for est in family}
    # Mt (homogeneous individuals) undershoots under heterogeneity.
    assert by_model["Mt"].population < truth
    # The heterogeneity-aware jackknife sits above Mt.
    assert by_model["Mh"].population > by_model["Mt"].population
    # The paper's LLM is the most accurate of the lot.
    llm_err = abs(llm - truth)
    for est in family:
        assert llm_err <= abs(est.population - truth) * 1.05, est.model
