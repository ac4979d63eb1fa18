"""RunLedger: provenance, engine-accounting absorption, rendering."""

import json

import pytest

from repro.analysis.windows import TimeWindow
from repro.engine import Executor
from repro.obs.ledger import RunLedger, absorb_engine_accounting
from repro.obs.observer import Observer
from repro.obs.reporting import render_run_report

WINDOW = TimeWindow(2013.5, 2014.5)


def table_after(text, title):
    """The header line and the split rows of the table titled ``title``."""
    lines = text.splitlines()
    start = lines.index(title)
    rows = []
    for line in lines[start + 3:]:
        if not line.strip():
            break
        rows.append(line.split())
    return lines[start + 1], rows


def labelled(run_dir, name):
    """``{stage: value}`` of one stage-labelled counter in a run ledger."""
    metrics = json.loads((run_dir / "metrics.json").read_text())
    return {
        c["labels"]["stage"]: c["value"]
        for c in metrics["counters"]
        if c["name"] == name
    }


def run_once(tiny_internet, tiny_sources, run_dir, cache=None):
    """One observed window through the engine, finalized to a ledger."""
    obs = Observer()
    kwargs = {} if cache is None else {"cache": cache}
    engine = Executor(tiny_internet, tiny_sources, observer=obs, **kwargs)
    with obs.span("run"):
        engine.window_result(WINDOW)
    ledger = RunLedger(run_dir, command=["repro", "test"], seed=7)
    ledger.finalize(obs, report=engine.report, cache=engine.cache)
    return engine


class TestLedgerFiles:
    def test_writes_complete_run_directory(self, tiny_internet, tiny_sources, tmp_path):
        run_dir = tmp_path / "run"
        run_once(tiny_internet, tiny_sources, run_dir)
        names = {p.name for p in run_dir.iterdir()}
        assert names == {
            "run.json", "trace.jsonl", "metrics.json",
            "metrics.prom", "events.jsonl", "report.json",
        }

    def test_run_json_provenance(self, tiny_internet, tiny_sources, tmp_path):
        run_dir = tmp_path / "run"
        run_once(tiny_internet, tiny_sources, run_dir)
        run = json.loads((run_dir / "run.json").read_text())
        assert run["command"] == ["repro", "test"]
        assert run["seed"] == 7
        assert run["wall_seconds"] >= 0.0
        assert run["python"]

    def test_trace_covers_every_stage(self, tiny_internet, tiny_sources, tmp_path):
        run_dir = tmp_path / "run"
        run_once(tiny_internet, tiny_sources, run_dir)
        spans = [
            json.loads(line)
            for line in (run_dir / "trace.jsonl").read_text().splitlines()
        ]
        names = {s["name"] for s in spans}
        for stage in ("collect", "preprocess", "tabulate", "fit", "estimate"):
            assert f"stage:{stage}" in names

    def test_metrics_match_report(self, tiny_internet, tiny_sources, tmp_path):
        run_dir = tmp_path / "run"
        engine = run_once(tiny_internet, tiny_sources, run_dir)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        counters = {
            c["name"]: c["value"]
            for c in metrics["counters"]
            if not c["labels"]
        }
        assert counters["cache_hits_total"] == engine.report.cache_hits
        assert counters["cache_misses_total"] == engine.report.cache_misses
        assert counters["tasks_retried_total"] == engine.report.retry_count
        fit = engine.report.fit_totals()
        assert counters["fit_fits_total"] == fit.fits


class TestAbsorbEngineAccounting:
    class FakeCache:
        observer = None

        def stats(self):
            return {
                "entries": 3, "bytes": 100, "hits": 4, "misses": 6,
                "evictions": 1,
            }

    def test_cache_only(self):
        obs = Observer()
        absorb_engine_accounting(obs, cache=self.FakeCache())
        assert obs.metrics.value("cache_hits_total") == 4.0
        assert obs.metrics.value("cache_evictions_total") == 1.0
        assert obs.metrics.gauge("cache_entries") == 3.0
        assert obs.metrics.gauge("cache_bytes") == 100.0

    def test_report_hit_counts_win_over_parent_cache(
        self, tiny_internet, tiny_sources
    ):
        # Under a process pool the parent cache never sees the workers'
        # lookups; the report's shipped-back records are the run truth.
        obs = Observer()
        engine = Executor(tiny_internet, tiny_sources)
        engine.window_result(WINDOW)
        absorb_engine_accounting(
            obs, report=engine.report, cache=self.FakeCache()
        )
        assert obs.metrics.value("cache_hits_total") == engine.report.cache_hits
        assert (
            obs.metrics.value("cache_misses_total") == engine.report.cache_misses
        )

    def test_stage_breakdown_is_labelled(self, tiny_internet, tiny_sources):
        obs = Observer()
        engine = Executor(tiny_internet, tiny_sources)
        engine.window_result(WINDOW)
        absorb_engine_accounting(obs, report=engine.report)
        by_stage = engine.report.by_stage()
        for stage, stats in by_stage.items():
            assert obs.metrics.value("stage_calls_total", stage=stage) == stats.calls
            assert obs.metrics.value(
                "stage_self_seconds_total", stage=stage
            ) == stats.self_seconds


class TestStoreAccounting:
    """Tier-labelled hit metrics and store provenance in the ledger."""

    def warm_run(self, tiny_internet, tiny_sources, tmp_path):
        from repro.engine.store import open_store

        store_dir = tmp_path / "store"
        Executor(
            tiny_internet, tiny_sources, cache=open_store(store_dir)
        ).window_result(WINDOW)
        return run_once(
            tiny_internet,
            tiny_sources,
            tmp_path / "run",
            cache=open_store(store_dir),
        )

    def test_tier_hits_are_labelled_counters(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        engine = self.warm_run(tiny_internet, tiny_sources, tmp_path)
        assert engine.report.hit_tiers() == {"persistent": 1}
        metrics = json.loads(
            (tmp_path / "run" / "metrics.json").read_text()
        )
        tiers = {
            c["labels"]["tier"]: c["value"]
            for c in metrics["counters"]
            if c["name"] == "cache_tier_hits_total"
        }
        assert tiers == {"persistent": 1.0}

    def test_run_json_records_store_provenance(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        self.warm_run(tiny_internet, tiny_sources, tmp_path)
        run = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run["store"]["backend"] == "tiered"
        assert run["store"]["persistent"]["path"] == str(tmp_path / "store")

    def test_memory_only_run_records_memory_backend(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        run_once(tiny_internet, tiny_sources, tmp_path / "run")
        run = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run["store"]["backend"] == "memory"

    def test_persistent_counters_absorbed(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        self.warm_run(tiny_internet, tiny_sources, tmp_path)
        metrics = json.loads(
            (tmp_path / "run" / "metrics.json").read_text()
        )
        counters = {
            c["name"]: c["value"]
            for c in metrics["counters"]
            if not c["labels"]
        }
        assert counters["cache_persistent_hits_total"] >= 1.0


class TestRendering:
    def test_report_renders_all_sections(self, tiny_internet, tiny_sources, tmp_path):
        run_dir = tmp_path / "run"
        engine = run_once(tiny_internet, tiny_sources, run_dir)
        text = render_run_report(run_dir, top=5)
        assert "per-stage timings" in text
        assert "cache:" in text
        assert "fit kernel:" in text
        assert "slowest spans" in text
        assert "seed    : 7" in text
        header, rows = table_after(text, "per-stage timings")
        assert header.split() == ["stage", "calls", "hits", "self[s]", "seconds"]
        # Ranked by exclusive seconds, which the inclusive column keeps.
        own = [float(row[3]) for row in rows]
        assert own == sorted(own, reverse=True)
        stats = engine.report.by_stage()
        for stage, _, _, self_s, seconds in rows:
            assert float(self_s) == pytest.approx(stats[stage].self_seconds, abs=5e-4)
            assert float(seconds) == pytest.approx(stats[stage].seconds, abs=5e-4)

    def test_renders_missing_directory_gracefully(self, tmp_path):
        text = render_run_report(tmp_path / "nothing")
        assert text.startswith("run ledger:")

    def test_warning_events_surface(self, tmp_path):
        obs = Observer()
        obs.event("cache.corrupt_spill", level="warning", key="k1")
        RunLedger(tmp_path / "run").finalize(obs)
        text = render_run_report(tmp_path / "run")
        assert "[warning] cache.corrupt_spill" in text
        assert "key=k1" in text

    def test_store_provenance_and_tier_hits_render(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        from repro.engine.store import open_store

        store_dir = tmp_path / "store"
        Executor(
            tiny_internet, tiny_sources, cache=open_store(store_dir)
        ).window_result(WINDOW)
        run_once(
            tiny_internet,
            tiny_sources,
            tmp_path / "run",
            cache=open_store(store_dir),
        )
        text = render_run_report(tmp_path / "run")
        assert "store   : tiered" in text
        assert str(store_dir) in text
        assert "1 from persistent" in text
        assert "persistent store:" in text

    def test_diff_between_cold_and_warm_runs(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        from repro.engine.store import open_store
        from repro.obs.reporting import render_run_diff

        store_dir = tmp_path / "store"
        run_once(
            tiny_internet,
            tiny_sources,
            tmp_path / "cold",
            cache=open_store(store_dir),
        )
        run_once(
            tiny_internet,
            tiny_sources,
            tmp_path / "warm",
            cache=open_store(store_dir),
        )
        text = render_run_diff(tmp_path / "warm", tmp_path / "cold")
        assert "run diff" in text
        assert "cache hit rate" in text
        assert "wall:" in text
        # Stage deltas are in exclusive seconds: the cold run's
        # window_result contains its stages, yet claims only its own.
        header, rows = table_after(text, "per-stage deltas (baseline -> this run)")
        assert "base self[s]" in header and "this self[s]" in header
        cold, warm = (
            labelled(tmp_path / run, "stage_self_seconds_total")
            for run in ("cold", "warm")
        )
        assert {row[0] for row in rows} == set(cold) | set(warm)
        for stage, _, _, base, this, delta in rows:
            assert float(base) == pytest.approx(cold.get(stage, 0.0), abs=5e-4)
            assert float(this) == pytest.approx(warm.get(stage, 0.0), abs=5e-4)
            assert float(delta) == pytest.approx(
                float(this) - float(base), abs=1.5e-3
            )

    def test_diff_on_missing_directory_fails_cleanly(self, tmp_path):
        from repro.obs.reporting import render_run_diff

        text = render_run_diff(tmp_path / "a", tmp_path / "b")
        assert text.startswith("run ledger:")
