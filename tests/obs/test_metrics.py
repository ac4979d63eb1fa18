"""MetricsRegistry: counters, gauges, histograms, deltas and export."""

import json
import pickle
import threading

from repro.obs.metrics import MetricsRegistry


class TestCounters:
    def test_inc_accumulates(self):
        m = MetricsRegistry()
        m.inc("hits_total")
        m.inc("hits_total", 2.0)
        assert m.value("hits_total") == 3.0

    def test_unset_counter_reads_zero(self):
        assert MetricsRegistry().value("never_total") == 0.0

    def test_labels_are_part_of_identity(self):
        m = MetricsRegistry()
        m.inc("stage_seconds_total", 1.0, stage="fit")
        m.inc("stage_seconds_total", 2.0, stage="tabulate")
        assert m.value("stage_seconds_total", stage="fit") == 1.0
        assert m.value("stage_seconds_total", stage="tabulate") == 2.0
        assert m.value("stage_seconds_total") == 0.0

    def test_label_order_does_not_matter(self):
        m = MetricsRegistry()
        m.inc("x_total", 1.0, a="1", b="2")
        m.inc("x_total", 1.0, b="2", a="1")
        assert m.value("x_total", a="1", b="2") == 2.0

    def test_inc_many_single_shot(self):
        m = MetricsRegistry()
        m.inc_many({"fit_fits": 3.0, "fit_irls_iterations": 12.0})
        m.inc_many({"fit_fits": 1.0})
        assert m.value("fit_fits") == 4.0
        assert m.value("fit_irls_iterations") == 12.0

    def test_thread_safety_no_lost_updates(self):
        m = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                m.inc("n_total")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.value("n_total") == 4000.0


class TestGaugesAndHistograms:
    def test_gauge_is_point_in_time(self):
        m = MetricsRegistry()
        m.set_gauge("cache_bytes", 10.0)
        m.set_gauge("cache_bytes", 7.0)
        assert m.gauge("cache_bytes") == 7.0
        assert m.gauge("unset") is None

    def test_histogram_summarises(self):
        m = MetricsRegistry()
        for v in (1.0, 5.0, 3.0):
            m.observe("task_seconds", v)
        blob = m.to_json()["histograms"][0]
        assert blob["count"] == 3
        assert blob["sum"] == 9.0
        assert blob["min"] == 1.0
        assert blob["max"] == 5.0


class TestDeltaShipping:
    def test_subtract_yields_only_changes(self):
        m = MetricsRegistry()
        m.inc("a_total")
        before = m.collect()
        m.inc("a_total", 2.0)
        m.inc("b_total", 5.0, stage="fit")
        delta = MetricsRegistry.subtract(m.collect(), before)
        assert delta == {"a_total": 2.0, 'b_total{stage="fit"}': 5.0}

    def test_merge_counters_round_trips_labels(self):
        worker = MetricsRegistry()
        worker.inc("b_total", 5.0, stage="fit")
        parent = MetricsRegistry()
        parent.inc("b_total", 1.0, stage="fit")
        parent.merge_counters(worker.collect())
        assert parent.value("b_total", stage="fit") == 6.0

    def test_collect_snapshot_pickles(self):
        m = MetricsRegistry()
        m.inc("a_total", 1.0, stage="fit", worker="3")
        snapshot = pickle.loads(pickle.dumps(m.collect()))
        other = MetricsRegistry()
        other.merge_counters(snapshot)
        assert other.value("a_total", stage="fit", worker="3") == 1.0

    def test_parallel_merge_matches_serial_totals(self):
        parent = MetricsRegistry()
        for _ in range(3):
            w = MetricsRegistry()
            mark = w.collect()
            w.inc("n_total", 2.0)
            parent.merge_counters(MetricsRegistry.subtract(w.collect(), mark))
        assert parent.value("n_total") == 6.0


class TestMaintenanceAndExport:
    def test_bool_and_iter(self):
        m = MetricsRegistry()
        assert not m
        m.inc("a_total")
        assert m
        assert dict(m) == {"a_total": 1.0}

    def test_json_text_parses(self):
        m = MetricsRegistry()
        m.inc("a_total", 2.0, stage="fit")
        m.set_gauge("g", 1.5)
        payload = json.loads(m.to_json_text())
        assert payload["counters"] == [
            {"name": "a_total", "labels": {"stage": "fit"}, "value": 2.0}
        ]
        assert payload["gauges"][0]["value"] == 1.5

    def test_prometheus_exposition(self):
        m = MetricsRegistry()
        m.inc("a_total", 2.0, stage="fit")
        m.set_gauge("cache_bytes", 1.5)
        m.observe("task_seconds", 3.0)
        text = m.to_prometheus()
        assert '# TYPE a_total counter' in text
        assert 'a_total{stage="fit"} 2' in text
        assert "cache_bytes 1.5" in text
        assert "task_seconds_count 1" in text
        assert "task_seconds_sum 3" in text
        assert text.endswith("\n")

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

