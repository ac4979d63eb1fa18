"""Table 3 — cross-validation errors per model-selection setting.

Sweeps the paper's seven (IC, divisor) combinations through
leave-one-source-out cross-validation and reports RMSE/MAE, checking
the paper's conclusion: the adaptive divisor is competitive on both
address- and /24-level data, where fixed divisors trade one off against
the other.
"""

import numpy as np

from repro.analysis.crossval import TABLE3_SETTINGS, sweep_selection_settings
from repro.analysis.report import format_table, to_real
from repro.analysis.windows import TimeWindow
from benchmarks.conftest import BENCH_SCALE

#: Two representative windows (the paper uses all but the first).
WINDOWS = [TimeWindow(2012.5, 2013.5), TimeWindow(2013.5, 2014.5)]


def run_sweep(executor):
    address_sets = [executor.datasets(w) for w in WINDOWS]
    subnet_sets = [
        {name: d.subnets24() for name, d in datasets.items()}
        for datasets in address_sets
    ]
    return (
        sweep_selection_settings(address_sets, TABLE3_SETTINGS),
        sweep_selection_settings(subnet_sets, TABLE3_SETTINGS),
    )


def test_table3_selection_settings(benchmark, bench_executor):
    addr_rows, sub_rows = benchmark.pedantic(
        run_sweep, args=(bench_executor,), rounds=1, iterations=1
    )
    table = []
    for a, s in zip(addr_rows, sub_rows):
        table.append([
            a.setting,
            f"{to_real(a.rmse, BENCH_SCALE) / 1e6:.1f}",
            f"{to_real(a.mae, BENCH_SCALE) / 1e6:.1f}",
            f"{to_real(s.rmse, BENCH_SCALE) / 1e3:.1f}",
            f"{to_real(s.mae, BENCH_SCALE) / 1e3:.1f}",
        ])
    print()
    print(format_table(
        ["setting", "IP RMSE[M]", "IP MAE[M]", "/24 RMSE[k]", "/24 MAE[k]"],
        table,
        title="Table 3 — cross-validation error by selection setting "
              "(real-equivalent units)",
    ))

    by_name = {row.setting: row for row in addr_rows}
    sub_by_name = {row.setting: row for row in sub_rows}
    adaptive = by_name["BIC-adaptive1000"]
    # The adaptive divisor must be competitive on addresses: not much
    # worse than the best fixed setting (paper: "errors not much larger
    # than the minimum errors").
    best_rmse = min(row.rmse for row in addr_rows)
    assert adaptive.rmse <= 2.5 * best_rmse
    # And on /24s the adaptive settings stay near the best too.
    best_sub = min(row.rmse for row in sub_rows)
    assert sub_by_name["BIC-adaptive1000"].rmse <= 2.5 * best_sub
    # Every setting produced finite errors.
    for row in addr_rows + sub_rows:
        assert np.isfinite(row.rmse) and np.isfinite(row.mae)
