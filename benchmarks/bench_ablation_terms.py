"""Ablation — model complexity: independence vs pairwise vs 3-way terms.

DESIGN.md calls out the stepwise-search scope as a design choice.  This
bench fits the last window's table with (a) the independence model,
(b) stepwise pairwise selection (the default), and (c) stepwise search
allowed three-way terms, and compares estimates against the truth —
quantifying the paper's claim that source dependence must be modelled,
and that ever-higher-order terms stop paying off (over-fitting).
"""

from repro.analysis.report import fmt_real_millions, format_table
from repro.core.design import main_effect_terms
from repro.core.histories import tabulate_histories
from repro.core.loglinear import LoglinearModel
from repro.core.selection import select_model
from benchmarks.conftest import BENCH_SCALE


def run(executor, window):
    table = tabulate_histories(executor.datasets(window))
    independence = (
        LoglinearModel(table.num_sources, main_effect_terms(table.num_sources))
        .fit(table)
        .estimate()
    )
    pairwise = select_model(table, criterion="bic", max_order=2)
    threeway = select_model(table, criterion="bic", max_order=3)
    return table, independence, pairwise, threeway


def test_ablation_term_order(benchmark, bench_executor, bench_internet,
                             last_window):
    table, independence, pairwise, threeway = benchmark.pedantic(
        run, args=(bench_executor, last_window), rounds=1, iterations=1
    )
    truth = bench_internet.truth_used_addresses(
        last_window.start, last_window.end
    )
    rows = []
    for label, est, num_terms in [
        ("independence", independence, table.num_sources),
        ("stepwise pairwise", pairwise.fit.estimate(),
         len(pairwise.fit.terms)),
        ("stepwise + 3-way", threeway.fit.estimate(),
         len(threeway.fit.terms)),
    ]:
        rows.append([
            label,
            num_terms,
            fmt_real_millions(est.population, BENCH_SCALE),
            f"{100 * (est.population - truth) / truth:+.1f}%",
        ])
    rows.append(["truth", "-", fmt_real_millions(truth, BENCH_SCALE), ""])
    print()
    print(format_table(
        ["model", "terms", "estimate [M]", "error"],
        rows,
        title="Ablation — model complexity vs estimate quality",
    ))

    pw_est = pairwise.fit.estimate().population
    tw_est = threeway.fit.estimate().population
    ind_est = independence.population
    # Interaction terms matter: the selected model beats independence.
    assert abs(pw_est - truth) < abs(ind_est - truth)
    # Pairwise terms were actually selected.
    assert len(pairwise.fit.terms) > table.num_sources
    # Adding three-way terms does not blow the estimate up: it stays
    # within a modest factor of the pairwise answer (over-fitting is
    # contained by the IC + divisor heuristics).
    assert 0.6 * pw_est < tw_est < 1.6 * pw_est
