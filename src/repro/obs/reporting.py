"""Render a persisted run ledger as a human-readable report.

``python -m repro report <run-dir>`` lands here.  The renderer reads
only the ledger files (`run.json`, `metrics.json`, `trace.jsonl`,
`events.jsonl`) — it never needs the original process — and prints
provenance, per-stage timings, the top-N slowest spans, cache
efficiency, fit-kernel counters and the retry/degradation account.
"""

from __future__ import annotations

import json
from pathlib import Path


def _load_json(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _load_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _counters(metrics: dict) -> dict[str, float]:
    """Unlabelled counters from a metrics.json payload, by name."""
    return {
        c["name"]: c["value"]
        for c in metrics.get("counters", [])
        if not c.get("labels")
    }


def _labelled(metrics: dict, name: str, label: str) -> dict[str, float]:
    """``{label-value: value}`` for one labelled counter family."""
    return {
        c["labels"][label]: c["value"]
        for c in metrics.get("counters", [])
        if c["name"] == name and label in c.get("labels", {})
    }


def _multi_labelled(
    metrics: dict, name: str, *labels: str
) -> dict[tuple[str, ...], float]:
    """``{(label-values...): value}`` for a multi-label counter family."""
    return {
        tuple(c["labels"][label] for label in labels): c["value"]
        for c in metrics.get("counters", [])
        if c["name"] == name
        and all(label in c.get("labels", {}) for label in labels)
    }


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Minimal right-padded text table (first column left-aligned)."""
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cells[i].rjust(widths[i]) for i in range(1, len(cells))]
        return "  ".join(parts)

    return [fmt(headers), "-" * len(fmt(headers))] + [fmt(r) for r in rows]


def _describe_store(store: dict) -> str:
    """One-line rendering of a run's store provenance block."""
    backend = store.get("backend", "?")
    if backend == "tiered":
        persistent = store.get("persistent", {})
        return f"tiered (persistent: {persistent.get('path', '?')})"
    if backend == "local":
        return f"local ({store.get('path', '?')})"
    return str(backend)


def render_run_report(run_dir: str | Path, top: int = 10) -> str:
    """The full textual report for one run directory."""
    run_dir = Path(run_dir)
    run = _load_json(run_dir / "run.json")
    metrics = _load_json(run_dir / "metrics.json")
    spans = _load_jsonl(run_dir / "trace.jsonl")
    events = _load_jsonl(run_dir / "events.jsonl")
    counters = _counters(metrics)

    lines: list[str] = [f"run ledger: {run_dir}"]

    # provenance
    if run:
        command = " ".join(run.get("command", []))
        lines.append(f"  command : {command}")
        if run.get("seed") is not None:
            lines.append(f"  seed    : {run['seed']}")
        if run.get("git_revision"):
            lines.append(f"  git     : {run['git_revision'][:12]}")
        if run.get("wall_seconds") is not None:
            lines.append(f"  wall    : {run['wall_seconds']:.2f}s  "
                         f"(python {run.get('python', '?')})")
        store = run.get("store")
        if isinstance(store, dict):
            lines.append(f"  store   : {_describe_store(store)}")

    # per-stage timings, ranked by exclusive seconds: the inclusive
    # column counts a nested stage again in every stage around it
    stage_seconds = _labelled(metrics, "stage_seconds_total", "stage")
    stage_self = _labelled(metrics, "stage_self_seconds_total", "stage")
    stage_calls = _labelled(metrics, "stage_calls_total", "stage")
    stage_hits = _labelled(metrics, "stage_cache_hits_total", "stage")
    if stage_seconds:
        lines += ["", "per-stage timings"]
        rows = [
            [
                stage,
                f"{int(stage_calls.get(stage, 0))}",
                f"{int(stage_hits.get(stage, 0))}",
                f"{stage_self.get(stage, 0.0):.3f}",
                f"{stage_seconds[stage]:.3f}",
            ]
            for stage in sorted(
                stage_seconds, key=lambda s: stage_self.get(s, 0.0), reverse=True
            )
        ]
        lines += _table(["stage", "calls", "hits", "self[s]", "seconds"], rows)

    # cache efficiency
    hits = counters.get("cache_hits_total", 0.0)
    misses = counters.get("cache_misses_total", 0.0)
    if hits or misses:
        rate = hits / (hits + misses) if hits + misses else 0.0
        lines += [
            "",
            f"cache: {int(hits)} hits / {int(misses)} misses "
            f"({rate:.1%} hit rate), "
            f"{int(counters.get('cache_evictions_total', 0))} evictions",
        ]

    # persistent store tiers
    tier_hits = _labelled(metrics, "cache_tier_hits_total", "tier")
    if tier_hits:
        lines.append(
            "  tiers: " + ", ".join(
                f"{int(count)} from {tier}"
                for tier, count in sorted(tier_hits.items())
            )
        )
    store_hits = counters.get("cache_persistent_hits_total", 0.0)
    store_misses = counters.get("cache_persistent_misses_total", 0.0)
    if store_hits or store_misses or counters.get("cache_persistent_puts_total"):
        lines.append(
            f"  persistent store: {int(store_hits)} hits / "
            f"{int(store_misses)} misses, "
            f"{int(counters.get('cache_persistent_puts_total', 0))} puts "
            f"({int(counters.get('cache_persistent_bytes_written_total', 0))} B "
            f"written, "
            f"{int(counters.get('cache_persistent_bytes_read_total', 0))} B "
            f"read), "
            f"{int(counters.get('cache_persistent_corrupt_entries_total', 0))} "
            f"corrupt"
        )

    # fit-kernel counters
    fit = {
        name[len("fit_"):-len("_total")]: value
        for name, value in counters.items()
        if name.startswith("fit_") and name.endswith("_total")
    }
    if fit:
        lines += [
            "",
            "fit kernel: " + ", ".join(
                f"{int(v)} {k}" for k, v in sorted(fit.items()) if v
            ),
        ]

    # source integrity
    verdicts = _multi_labelled(
        metrics, "source_health_verdicts_total", "source", "verdict"
    )
    health_dropped = _multi_labelled(
        metrics, "source_dropped_total", "source", "reason"
    )
    if verdicts or health_dropped:
        lines += ["", "source integrity (source-windows per verdict)"]
        names = sorted(
            {s for s, _ in verdicts} | {s for s, _ in health_dropped}
        )
        rows = [
            [
                name,
                f"{int(verdicts.get((name, 'ok'), 0))}",
                f"{int(verdicts.get((name, 'suspect'), 0))}",
                f"{int(verdicts.get((name, 'quarantined'), 0))}",
                f"{int(sum(v for (s, _), v in health_dropped.items() if s == name))}",
            ]
            for name in names
        ]
        lines += _table(["source", "ok", "suspect", "quarantined", "dropped"], rows)

    # retry / degradation table
    retried = counters.get("tasks_retried_total", 0.0)
    degraded = counters.get("tasks_degraded_total", 0.0)
    failed = _labelled(metrics, "stage_failures_total", "stage")
    if retried or degraded or failed:
        lines += [
            "",
            f"fault tolerance: {int(retried)} retried attempt(s), "
            f"{int(degraded)} degraded task(s)",
        ]
        lines += [
            f"  failed stage {stage}: {int(count)} resolution(s)"
            for stage, count in sorted(failed.items())
        ]
    warn_events = [e for e in events if e.get("level") in ("warning", "error")]
    for event in warn_events:
        detail = " ".join(
            f"{k}={v}" for k, v in event.items()
            if k not in ("time", "name", "level")
        )
        lines.append(f"  [{event.get('level')}] {event.get('name')} {detail}".rstrip())

    # slowest spans
    if spans:
        lines += ["", f"slowest spans (top {top} of {len(spans)})"]
        slowest = sorted(spans, key=lambda s: s.get("duration", 0.0), reverse=True)
        rows = []
        for span in slowest[:top]:
            attrs = span.get("attributes", {})
            detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            rows.append(
                [
                    span.get("name", "?"),
                    f"{span.get('duration', 0.0):.3f}",
                    f"{span.get('cpu_seconds', 0.0):.3f}",
                    span.get("status", "?"),
                    detail[:48],
                ]
            )
        lines += _table(["span", "wall[s]", "cpu[s]", "status", "attributes"], rows)

    return "\n".join(lines)


def _hit_rate_of(counters: dict[str, float]) -> float | None:
    hits = counters.get("cache_hits_total", 0.0)
    misses = counters.get("cache_misses_total", 0.0)
    total = hits + misses
    return hits / total if total else None


def render_run_diff(run_dir: str | Path, other_dir: str | Path) -> str:
    """What changed between two persisted run ledgers.

    ``python -m repro report RUN --diff OTHER`` lands here: the
    cross-run view over stored ledgers that answers "what changed since
    the last sweep" — provenance drift (command, seed, options, git,
    store), per-stage exclusive seconds and call-count deltas, cache/store
    efficiency movement, and fit-kernel totals.  ``other_dir`` is the
    baseline; signs read as *this run minus baseline*.
    """
    a_dir, b_dir = Path(run_dir), Path(other_dir)
    for missing in (d for d in (a_dir, b_dir) if not (d / "run.json").exists()):
        return f"run ledger: no run directory at {missing}"
    run_a, run_b = _load_json(a_dir / "run.json"), _load_json(b_dir / "run.json")
    met_a = _load_json(a_dir / "metrics.json")
    met_b = _load_json(b_dir / "metrics.json")
    ctr_a, ctr_b = _counters(met_a), _counters(met_b)

    lines = [f"run diff: {a_dir}  vs baseline  {b_dir}"]

    # provenance drift
    drift: list[str] = []
    for field, label in (
        ("command", "command"),
        ("seed", "seed"),
        ("options", "options"),
        ("git_revision", "git"),
        ("store", "store"),
        ("python", "python"),
    ):
        va, vb = run_a.get(field), run_b.get(field)
        if va != vb:
            if field == "command":
                va, vb = " ".join(va or []), " ".join(vb or [])
            if field == "store":
                va = _describe_store(va) if isinstance(va, dict) else va
                vb = _describe_store(vb) if isinstance(vb, dict) else vb
            drift.append(f"  {label}: {vb!r} -> {va!r}")
    if drift:
        lines += ["", "provenance changes"] + drift
    else:
        lines.append("  identical provenance (command, seed, options, git, store)")

    wall_a, wall_b = run_a.get("wall_seconds"), run_b.get("wall_seconds")
    if wall_a is not None and wall_b is not None:
        lines.append(
            f"  wall: {wall_b:.2f}s -> {wall_a:.2f}s  ({wall_a - wall_b:+.2f}s)"
        )

    # per-stage deltas, in exclusive seconds so that a stage's change
    # shows once, not again in every stage around it
    sec_a = _labelled(met_a, "stage_self_seconds_total", "stage")
    sec_b = _labelled(met_b, "stage_self_seconds_total", "stage")
    calls_a = _labelled(met_a, "stage_calls_total", "stage")
    calls_b = _labelled(met_b, "stage_calls_total", "stage")
    hits_a = _labelled(met_a, "stage_cache_hits_total", "stage")
    hits_b = _labelled(met_b, "stage_cache_hits_total", "stage")
    stages = sorted(
        set(sec_a) | set(sec_b),
        key=lambda s: sec_a.get(s, 0.0) + sec_b.get(s, 0.0),
        reverse=True,
    )
    if stages:
        rows = [
            [
                stage,
                f"{int(calls_b.get(stage, 0))}->{int(calls_a.get(stage, 0))}",
                f"{int(hits_b.get(stage, 0))}->{int(hits_a.get(stage, 0))}",
                f"{sec_b.get(stage, 0.0):.3f}",
                f"{sec_a.get(stage, 0.0):.3f}",
                f"{sec_a.get(stage, 0.0) - sec_b.get(stage, 0.0):+.3f}",
            ]
            for stage in stages
        ]
        lines += ["", "per-stage deltas (baseline -> this run)"]
        lines += _table(
            ["stage", "calls", "hits", "base self[s]", "this self[s]", "delta[s]"],
            rows,
        )

    # cache / store efficiency
    rate_a, rate_b = _hit_rate_of(ctr_a), _hit_rate_of(ctr_b)
    if rate_a is not None or rate_b is not None:
        fmt = lambda r: f"{r:.1%}" if r is not None else "n/a"  # noqa: E731
        lines += [
            "",
            f"cache hit rate: {fmt(rate_b)} -> {fmt(rate_a)}",
        ]
    for name, label in (
        ("cache_persistent_hits_total", "store hits"),
        ("cache_persistent_puts_total", "store puts"),
        ("tasks_retried_total", "retried attempts"),
        ("tasks_degraded_total", "degraded tasks"),
    ):
        va, vb = ctr_a.get(name, 0.0), ctr_b.get(name, 0.0)
        if va or vb:
            lines.append(f"  {label}: {int(vb)} -> {int(va)}")
    for name, label in (
        ("source_quarantined_total", "quarantined source-windows"),
        ("source_dropped_total", "dropped source-windows"),
    ):
        va = sum(_labelled(met_a, name, "source").values())
        vb = sum(_labelled(met_b, name, "source").values())
        if va or vb:
            lines.append(f"  {label}: {int(vb)} -> {int(va)}")

    # fit-kernel totals
    fit_names = sorted(
        name
        for name in set(ctr_a) | set(ctr_b)
        if name.startswith("fit_") and name.endswith("_total")
    )
    fit_rows = [
        [
            name[len("fit_"):-len("_total")],
            f"{int(ctr_b.get(name, 0.0))}",
            f"{int(ctr_a.get(name, 0.0))}",
            f"{int(ctr_a.get(name, 0.0) - ctr_b.get(name, 0.0)):+d}",
        ]
        for name in fit_names
        if ctr_a.get(name, 0.0) or ctr_b.get(name, 0.0)
    ]
    if fit_rows:
        lines += ["", "fit kernel (baseline -> this run)"]
        lines += _table(["counter", "base", "this", "delta"], fit_rows)

    return "\n".join(lines)
