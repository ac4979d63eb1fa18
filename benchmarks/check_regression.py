#!/usr/bin/env python
"""Performance regression gate for the committed benchmark baselines.

Compares a candidate ``pytest-benchmark`` JSON export against the
committed baselines (``BENCH_perf_fit.json`` for
``bench_perf_core.py``, ``BENCH_perf_stream.json`` for
``bench_perf_stream.py``) and fails when any benchmark's median slows
down by more than the threshold.

CI usage (the ``perf-baseline`` job)::

    pytest benchmarks/bench_perf_core.py benchmarks/bench_perf_stream.py \
        --benchmark-json=candidate.json
    python benchmarks/check_regression.py candidate.json

Thresholds are generous (default +30% on the median) because shared CI
runners are noisy; the gate exists to catch step-change regressions
(an accidental O(n^2), a dropped cache), not 5% drift.  Benchmarks
present only on one side are reported but never fail the gate, so
adding a benchmark does not require regenerating every baseline.

``--self-test`` runs the gate against a synthetic candidate derived
from the baselines with one benchmark slowed 2x, and exits 0 iff the
gate (a) fails the slowed candidate and (b) passes an identical one —
CI runs it first so a broken gate cannot silently wave regressions
through.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Committed baselines, one per benchmark file; were two ever to cover
#: a benchmark, the later file would win.
BASELINE_FILES = (
    "BENCH_perf_fit.json",
    "BENCH_perf_stream.json",
)

#: Allowed slowdown of the median before the gate fails.
DEFAULT_THRESHOLD = 0.30

#: Benchmarks the candidate run must contain.  Ordinary benchmarks
#: missing on one side are reported but never fail (adding one does not
#: force regenerating every baseline); these are load-bearing evidence
#: — the batched sweep median proves the batched kernel still pays on
#: the full staged path — so a candidate that silently drops one fails.
REQUIRED_BENCHMARKS = (
    "test_perf_sweep_batched",
    "test_perf_stream_warm_advance",
)

#: Committed metrics export of the reference observability sweep.
#: Schema 2 nests a cold and a warm (second run against a shared
#: artifact store) export under ``{"schema": 2, "cold": ..., "warm":
#: ...}``; schema 1 was a single flat ``--metrics-out`` export and is
#: still accepted (treated as cold-only).
METRICS_BASELINE = "BENCH_metrics.json"

#: Allowed drop in cache hit rate (absolute) before the gate fails.
METRICS_HIT_RATE_SLACK = 0.05

#: Floor on the warm-run (second run, shared store) cache hit rate.
DEFAULT_MIN_WARM_HIT_RATE = 0.90


def load_medians(path: Path) -> dict[str, float]:
    """``{benchmark name: median seconds}`` from one pytest-benchmark JSON."""
    with open(path) as fh:
        data = json.load(fh)
    return {
        bench["name"]: float(bench["stats"]["median"])
        for bench in data.get("benchmarks", [])
    }


def load_baselines(files=BASELINE_FILES) -> dict[str, float]:
    """Merge the committed baselines (later files override earlier)."""
    merged: dict[str, float] = {}
    for name in files:
        path = HERE / name
        if path.exists():
            merged.update(load_medians(path))
    if not merged:
        raise FileNotFoundError(
            f"no baseline files found in {HERE} (expected {files})"
        )
    return merged


def compare(
    baseline: dict[str, float],
    candidate: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Human-readable comparison rows; regressions are marked ``FAIL``."""
    rows = []
    for name in sorted(set(baseline) | set(candidate) | set(REQUIRED_BENCHMARKS)):
        required = name in REQUIRED_BENCHMARKS
        if name not in candidate:
            verdict = "FAIL" if required else "SKIP"
            rows.append(f"{verdict} {name}: not in candidate run")
            continue
        if name not in baseline:
            verdict = "FAIL" if required else "SKIP"
            rows.append(f"{verdict} {name}: no committed baseline")
            continue
        base, cand = baseline[name], candidate[name]
        ratio = cand / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > 1.0 + threshold else "ok"
        rows.append(
            f"{verdict:4s} {name}: {cand * 1e3:.3f} ms vs baseline "
            f"{base * 1e3:.3f} ms ({ratio:.2f}x baseline)"
        )
    return rows


def gate(candidate_path: Path, threshold: float) -> int:
    baseline = load_baselines()
    candidate = load_medians(candidate_path)
    rows = compare(baseline, candidate, threshold)
    for row in rows:
        print(row)
    failures = [row for row in rows if row.startswith("FAIL")]
    if failures:
        print(
            f"\n{len(failures)} benchmark(s) slowed down more than "
            f"{threshold:.0%} past baseline",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(candidate)} benchmark(s) within {threshold:.0%} of baseline")
    return 0


def self_test(threshold: float) -> int:
    """Prove the gate can both fail a 2x slowdown and pass a clean run."""
    baseline = load_baselines()
    slowed_name = sorted(baseline)[0]

    clean = dict(baseline)
    slowed = copy.deepcopy(baseline)
    slowed[slowed_name] *= 2.0

    clean_rows = compare(baseline, clean, threshold)
    slowed_rows = compare(baseline, slowed, threshold)
    clean_fails = [r for r in clean_rows if r.startswith("FAIL")]
    slowed_fails = [r for r in slowed_rows if r.startswith("FAIL")]

    ok = not clean_fails and len(slowed_fails) == 1
    print(f"self-test: synthetic 2x slowdown of {slowed_name}")
    for row in slowed_fails or slowed_rows:
        print(f"  {row}")
    if not ok:
        print(
            "self-test FAILED: gate did not flag exactly the slowed "
            f"benchmark (clean fails: {len(clean_fails)}, slowed fails: "
            f"{len(slowed_fails)})",
            file=sys.stderr,
        )
        return 1
    print("self-test passed: gate flags the slowdown and only the slowdown")

    # The required-benchmark gate: a candidate that silently drops a
    # required benchmark must fail even though every present median is
    # clean.
    for required in REQUIRED_BENCHMARKS:
        if required not in baseline:
            continue
        dropped = dict(baseline)
        dropped.pop(required)
        dropped_rows = compare(baseline, dropped, threshold)
        dropped_fails = [r for r in dropped_rows if r.startswith("FAIL")]
        if len(dropped_fails) != 1 or required not in dropped_fails[0]:
            print(
                "self-test FAILED: gate did not flag the dropped required "
                f"benchmark {required} (fails: {dropped_fails})",
                file=sys.stderr,
            )
            return 1
        print(f"self-test passed: gate flags a dropped {required}")

    # Same drill for the cache-efficiency gate: a synthetic candidate
    # with half the baseline's hits must fail, an identical one pass.
    metrics_path = HERE / METRICS_BASELINE
    if metrics_path.exists():
        cold, _ = load_metrics_baseline(metrics_path)
        degraded = dict(cold)
        degraded["cache_hits_total"] = cold.get("cache_hits_total", 0.0) / 2
        degraded["cache_misses_total"] = (
            cold.get("cache_misses_total", 0.0)
            + cold.get("cache_hits_total", 0.0) / 2
        )
        _, clean_failed = compare_metrics(cold, dict(cold))
        _, degraded_failed = compare_metrics(cold, degraded)
        if clean_failed or not degraded_failed:
            print(
                "self-test FAILED: metrics gate did not flag a synthetic "
                f"hit-rate halving (clean: {clean_failed}, degraded: "
                f"{degraded_failed})",
                file=sys.stderr,
            )
            return 1
        print("self-test passed: metrics gate flags a synthetic hit-rate drop")
    return 0


def _counters_of(data: dict) -> dict[str, float]:
    """Unlabelled counter totals from one loaded metrics export."""
    return {
        c["name"]: float(c["value"])
        for c in data.get("counters", [])
        if not c.get("labels")
    }


def _counter_totals(path: Path) -> dict[str, float]:
    """Unlabelled counter totals from a ``--metrics-out`` JSON export."""
    with open(path) as fh:
        data = json.load(fh)
    return _counters_of(data)


def load_metrics_baseline(
    path: Path,
) -> tuple[dict[str, float], dict[str, float] | None]:
    """``(cold counters, warm counters or None)`` from the committed baseline.

    Accepts both the schema-2 nested ``{"schema": 2, "cold": ...,
    "warm": ...}`` layout and the historical flat export (cold-only).
    """
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema", 1) >= 2:
        warm = data.get("warm")
        return _counters_of(data["cold"]), (
            _counters_of(warm) if warm is not None else None
        )
    return _counters_of(data), None


def _hit_rate(counters: dict[str, float]) -> float | None:
    hits = counters.get("cache_hits_total", 0.0)
    misses = counters.get("cache_misses_total", 0.0)
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def compare_metrics(
    baseline: dict[str, float], candidate: dict[str, float]
) -> tuple[list[str], bool]:
    """Comparison rows plus whether the hit-rate gate failed."""
    rows: list[str] = []
    base_rate = _hit_rate(baseline)
    cand_rate = _hit_rate(candidate)
    if base_rate is None or cand_rate is None:
        rows.append("metrics: no cache counters on one side, skipping")
        return rows, False
    drop = base_rate - cand_rate
    failed = drop > METRICS_HIT_RATE_SLACK
    verdict = "FAIL" if failed else "ok"
    rows.append(
        f"{verdict:4s} cache hit rate: {cand_rate:.1%} vs baseline "
        f"{base_rate:.1%} ({drop:+.1%} drop)"
    )
    for name in (
        "cache_evictions_total",
        "cache_persistent_corrupt_entries_total",
    ):
        base_v, cand_v = baseline.get(name, 0.0), candidate.get(name, 0.0)
        if cand_v > base_v:
            rows.append(f"WARN {name}: {cand_v:.0f} vs baseline {base_v:.0f}")
    return rows, failed


def metrics_diff(candidate_path: Path, baseline_path: Path | None = None) -> int:
    """Cache-efficiency gate between a candidate export and the baseline.

    A hit-rate drop beyond ``METRICS_HIT_RATE_SLACK`` fails the build:
    with content-addressed keys the reference sweep's hit rate is
    deterministic, so a drop means a changed artifact key or a stage
    that silently stopped caching.  Eviction and corrupt-entry counter
    increases remain warn-only (they vary with runner memory pressure).
    """
    baseline_path = baseline_path or HERE / METRICS_BASELINE
    if not baseline_path.exists():
        print(f"metrics: no committed baseline at {baseline_path}, skipping")
        return 0
    baseline, _ = load_metrics_baseline(baseline_path)
    candidate = _counter_totals(candidate_path)
    rows, failed = compare_metrics(baseline, candidate)
    for row in rows:
        print(row)
    if failed:
        print(
            "cache hit rate dropped past the slack: look for a changed "
            "artifact key or a stage no longer caching",
            file=sys.stderr,
        )
        return 1
    return 0


def warm_gate(
    warm_path: Path,
    min_rate: float = DEFAULT_MIN_WARM_HIT_RATE,
    baseline_path: Path | None = None,
) -> int:
    """Fail unless the warm run (second run, shared store) mostly hit.

    The warm sweep reruns the reference pipeline against a store already
    populated by the cold run, so nearly every stage lookup should hit
    the persistent tier; a rate under ``min_rate`` means the store keys
    drifted between identical runs or persistence silently broke.
    """
    candidate = _counter_totals(warm_path)
    rate = _hit_rate(candidate)
    if rate is None:
        print("FAIL warm run: no cache counters in export", file=sys.stderr)
        return 1
    verdict = "FAIL" if rate < min_rate else "ok"
    print(f"{verdict:4s} warm-store hit rate: {rate:.1%} (floor {min_rate:.0%})")
    if "cache_persistent_hits_total" in candidate:
        print(
            "     persistent_hits_total="
            f"{candidate['cache_persistent_hits_total']:.0f}"
        )
    baseline_path = baseline_path or HERE / METRICS_BASELINE
    if baseline_path.exists():
        _, warm_baseline = load_metrics_baseline(baseline_path)
        if warm_baseline is not None:
            base_rate = _hit_rate(warm_baseline)
            if base_rate is not None:
                print(f"     committed warm baseline: {base_rate:.1%}")
    if verdict == "FAIL":
        print(
            f"warm-store hit rate {rate:.1%} is below the {min_rate:.0%} "
            "floor: identical reruns stopped hitting the persistent store "
            "(key drift or broken persistence)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "candidate",
        nargs="?",
        type=Path,
        help="pytest-benchmark JSON export of the candidate run",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed median slowdown fraction (default %(default)s)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate detects a synthetic 2x slowdown, then exit",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        help="metrics JSON export (repro --metrics-out) of the cold run; "
        "fails on a cache hit-rate drop past the slack vs the committed "
        "BENCH_metrics.json",
    )
    parser.add_argument(
        "--warm-metrics",
        type=Path,
        help="metrics JSON export of the warm rerun against a shared "
        "--store directory; fails if its hit rate is under "
        "--min-warm-hit-rate",
    )
    parser.add_argument(
        "--min-warm-hit-rate",
        type=float,
        default=DEFAULT_MIN_WARM_HIT_RATE,
        help="warm-run cache hit-rate floor (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args.threshold)
    code = 0
    if args.metrics is not None:
        code |= metrics_diff(args.metrics)
    if args.warm_metrics is not None:
        code |= warm_gate(args.warm_metrics, args.min_warm_hit_rate)
    if args.candidate is None:
        if args.metrics is None and args.warm_metrics is None:
            parser.error(
                "candidate JSON required unless --self-test/--metrics/"
                "--warm-metrics"
            )
        return code
    return code | gate(args.candidate, args.threshold)


if __name__ == "__main__":
    raise SystemExit(main())
