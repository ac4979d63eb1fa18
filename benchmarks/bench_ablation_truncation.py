"""Ablation — right-truncated vs plain Poisson across stratum sizes.

The paper notes truncation "improves estimates substantially for small
strata, where the counters are relatively close to the limit, but
otherwise makes little difference".  This bench sweeps network size:
for large blocks the two estimates coincide; for small, sparsely
overlapping blocks the Poisson estimate can explode past the block size
while the truncated one stays plausible.
"""

from repro.analysis.report import format_table
from repro.core.histories import tabulate_histories
from repro.core.loglinear import LoglinearModel
from repro.core.selection import select_model
from repro.ipspace.intervals import IntervalSet


def run(executor, internet, window):
    datasets = executor.datasets(window)
    candidates = [
        a
        for a in internet.registry
        if a.is_routed_ever and not a.darknet and a.routed_from <= 2011.0
    ]
    candidates.sort(key=lambda a: a.prefix.size)
    rows = []
    for alloc in candidates[:: max(1, len(candidates) // 40)]:
        prefix = alloc.prefix
        block = IntervalSet([(prefix.base, prefix.end)])
        local = {
            name: d.restrict(block) for name, d in datasets.items()
        }
        local = {n: d for n, d in local.items() if len(d) > 2}
        if len(local) < 3:
            continue
        table = tabulate_histories(local)
        selection = select_model(table, divisor=1, criterion="bic")
        poisson = selection.fit.estimate().population
        truncated = (
            LoglinearModel(table.num_sources, selection.fit.terms)
            .fit(table, "truncated", limit=float(prefix.size))
            .estimate()
            .population
        )
        rows.append({
            "size": prefix.size,
            "observed": table.num_observed,
            "poisson": poisson,
            "truncated": truncated,
        })
    return rows


def test_ablation_truncation(benchmark, bench_executor, bench_internet,
                             last_window):
    rows = benchmark.pedantic(
        run, args=(bench_executor, bench_internet, last_window),
        rounds=1, iterations=1,
    )
    printable = [
        [
            r["size"],
            r["observed"],
            f"{r['poisson']:.0f}",
            f"{r['truncated']:.0f}",
        ]
        for r in rows[:25]
    ]
    print()
    print(format_table(
        ["block size", "observed", "poisson est", "truncated est"],
        printable,
        title="Ablation — truncation effect by block size (sample)",
    ))

    assert len(rows) >= 10
    # Truncated estimates never exceed the block size.
    assert all(r["truncated"] <= r["size"] * (1 + 1e-9) for r in rows)
    # For blocks where Poisson stays well under the limit, the two
    # agree closely (truncation 'makes little difference').
    comfortable = [
        r for r in rows if r["poisson"] < 0.5 * r["size"]
    ]
    assert comfortable
    for r in comfortable:
        assert abs(r["truncated"] - r["poisson"]) < 0.05 * r["poisson"] + 1
    # Implausible Poisson estimates (above the block size) exist in the
    # sweep and are repaired by truncation.
    exploded = [r for r in rows if r["poisson"] > r["size"]]
    for r in exploded:
        assert r["truncated"] <= r["size"]
