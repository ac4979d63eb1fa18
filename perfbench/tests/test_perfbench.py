"""Self-tests of the benchmark (slow: they run every workload).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

They show that a traced run repeats exactly for one seed (outputs and
every count), that a second seed also runs clean, that
``BENCHMARK.json`` matches the metric tables the code reports, and that
a directory without the program fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import DEFAULT_SEED  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)

#: A seed no figure in this benchmark was tuned on.
SECOND_SEED = 7

#: Layer metrics that are counts of work (or ratios of counts) and must
#: repeat exactly.  The ledger's size is left out: it embeds a creation
#: timestamp and a wall time.
EXACT = sorted(
    name
    for name, (unit, _, _) in LAYERS.items()
    if unit in ("count", "bytes") and name != "service.queryledger.ledger_bytes"
) + [
    "core.fit.iters_per_fit",
    "engine.store.hit_ratio",
    "analysis.windows.rel_err_max",
    "stream.estimator.batch_gap",
]


def _run(workload: str, seed: int, trace: int, seconds: float = 1,
         cwd: Path = ROOT) -> tuple[int, dict | None, dict[str, str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2 and not line.startswith("#"):
            table[parts[0]] = parts[1]
    return proc.returncode, result, table


def _clean(code: int, result: dict | None) -> None:
    assert code == 0
    assert result is not None
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOAD_NAMES)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == {name: spec[:2] for name, spec in LAYERS.items()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_repeats_exactly(workload):
    code_a, first, table_a = _run(workload, DEFAULT_SEED, trace=1)
    code_b, second, table_b = _run(workload, DEFAULT_SEED, trace=1)
    _clean(code_a, first)
    _clean(code_b, second)
    assert table_a["outputs_sha256"] == table_b["outputs_sha256"]
    assert first["attempted"] == second["attempted"]
    assert set(first["metrics"]) == set(LAYERS)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_warm_requests_run_no_fits():
    code, result, _ = _run("serve_warm", DEFAULT_SEED, trace=1)
    _clean(code, result)
    assert result["metrics"]["core.fit.fits"]["value"] == 0
    assert result["metrics"]["engine.store.hit_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_second_seed_runs_clean(workload, trace):
    code, result, _ = _run(workload, SECOND_SEED, trace=trace)
    _clean(code, result)
    expected = set(LAYERS) if trace else set(END_TO_END)
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        if not trace:
            assert metric["value"] > 0, name
            assert metric["unit"] == END_TO_END[name][0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, result, _ = _run("sweep_cold", DEFAULT_SEED, trace=0, cwd=tmp_path)
    assert code != 0
    assert result is None
