"""Figure 12 — addresses in unused prefixes by routed prefix length.

Fits the Section 7 occupancy model (f_i ratios estimated by merging
IPING/GAME/WEB/WIKI one at a time into the rest, SWIN/CALT excluded),
distributes the CR-predicted unseen addresses over the vacant blocks,
and prints the observed-vs-estimated unused-address histogram.  Checks:
ghost placement strictly shrinks the unused space by exactly the unseen
mass, most vacancy sits in long prefixes, and the Section 7 /24-count
cross-check against the /24 LLM lands within an order of magnitude
(the paper's mutual-validation).
"""

import numpy as np

from repro.analysis.report import fmt_real_millions, format_table
from repro.analysis.unused import build_unused_space_model
from benchmarks.conftest import BENCH_SCALE


def run(executor, internet, window):
    result = executor.window_result(window)
    datasets = executor.datasets(window)
    universe = internet.routing.window(window.start, window.end)
    model = build_unused_space_model(
        datasets, universe, result.estimate_addresses.unseen
    )
    return result, model


def test_fig12_unused_prefixes(benchmark, bench_executor, bench_internet,
                               last_window):
    result, model = benchmark.pedantic(
        run, args=(bench_executor, bench_internet, last_window),
        rounds=1, iterations=1,
    )
    obs = model.observed_unused_addresses
    est = model.estimated_unused_addresses
    rows = []
    for length in range(8, 33):
        if obs[length] == 0 and est[length] < 1:
            continue
        rows.append([
            f"/{length}",
            f"{model.vacancy_observed[length]:.0f}",
            fmt_real_millions(obs[length], BENCH_SCALE),
            fmt_real_millions(est[length], BENCH_SCALE),
        ])
    print()
    print(format_table(
        ["unused prefix", "vacant blocks", "obs addrs[M]", "est addrs[M]"],
        rows,
        title="Figure 12 — addresses in unused prefixes "
              "(real-equivalent millions)",
    ))
    check_24s = model.new_subnet24_equivalent()
    llm_24s = result.estimate_subnets.unseen
    print(f"\nSection 7 new-/24 equivalent: {check_24s:.0f}; "
          f"independent /24 LLM unseen: {llm_24s:.0f}")

    # Ghost placement removes exactly the unseen mass from free space.
    np.testing.assert_allclose(obs.sum() - est.sum(), model.unseen, rtol=0.05)
    # Majority of *blocks* are long prefixes (paper: most empty
    # prefixes are longer than /20).
    vac = model.vacancy_observed
    assert vac[21:].sum() > vac[:21].sum()
    # Estimated vacancy never exceeds observed at any length by more
    # than numerical noise (ghosts only consume space).
    assert (est <= obs + 1e-6 * (1 + obs)).all()
    # Mutual-validation with the /24-level LLM: same order of magnitude
    # when the /24 model reports a meaningful unseen count.
    if llm_24s > 20:
        assert 0.1 < check_24s / llm_24s < 10.0
