"""Executor behaviour: cache keys, determinism and parallel fan-out."""

import copy
import io
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.analysis.crossval import cross_validate_window
from repro.analysis.sensitivity import source_leverage_window
from repro.analysis.windows import TimeWindow
from repro.engine import (
    ArtifactCache,
    Executor,
    PipelineOptions,
    spoof_filter_seed,
)
from repro.engine import artifacts as artifacts_module
from repro.engine import store as store_module
from repro.engine.executor import ExecutionPolicy, _ExecutorPayload
from repro.engine.store import LocalStore, open_store
from repro.ipspace.ipset import IPSet
from repro.obs.observer import Observer
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from tests.conftest import assert_stored_datasets_match

WINDOWS = [TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5)]


@pytest.fixture(scope="module")
def small_internet():
    """A very small Internet for whole-sweep tests (scale 2^-14)."""
    return SyntheticInternet(SimulationConfig(scale=2.0**-14, seed=99))


class TestCacheKeys:
    def test_identical_request_hits(self, tiny_internet, tiny_sources):
        engine = Executor(tiny_internet, tiny_sources)
        window = WINDOWS[0]
        first = engine.run("collect", window)
        second = engine.run("collect", window)
        assert second is first  # identity: served from cache
        assert engine.report.cache_hits == 1
        assert engine.report.cache_misses == 1

    def test_changed_options_miss(self, tiny_internet, tiny_sources):
        cache = ArtifactCache()
        window = WINDOWS[0]
        a = Executor(tiny_internet, tiny_sources, PipelineOptions(), cache=cache)
        b = Executor(
            tiny_internet,
            tiny_sources,
            PipelineOptions(criterion="aic"),
            cache=cache,
        )
        a.run("collect", window)
        b.run("collect", window)
        assert cache.stats()["misses"] == 2  # no cross-options sharing
        assert a.key_for("collect", window) != b.key_for("collect", window)

    def test_stage_params_participate_in_key(self, tiny_internet, tiny_sources):
        engine = Executor(tiny_internet, tiny_sources)
        window = WINDOWS[0]
        addr = engine.key_for("tabulate", window, level="addresses")
        subnet = engine.key_for("tabulate", window, level="subnets")
        assert addr != subnet
        assert addr == engine.key_for("tabulate", window, level="addresses")

    def test_windows_do_not_collide(self, tiny_internet, tiny_sources):
        engine = Executor(tiny_internet, tiny_sources)
        assert engine.key_for("collect", WINDOWS[0]) != engine.key_for(
            "collect", WINDOWS[1]
        )


class TestStageInputs:
    """``input_bytes`` comes from the resolutions a stage made, never
    from extra store lookups (which would bump hit counters and promote
    entries out of the persistent tier)."""

    def test_input_bytes_sum_direct_dependency_outputs(
        self, tiny_internet, tiny_sources
    ):
        engine = Executor(tiny_internet, tiny_sources)
        resolve = engine.run
        open_calls = [[]]  # per open resolution: its direct children
        finished = []

        def traced(stage, window=None, **params):
            open_calls.append([])
            value = resolve(stage, window, **params)
            direct = open_calls.pop()
            record = engine.report.records[-1]
            open_calls[-1].append(record)
            finished.append((record, direct))
            return value

        engine.run = traced
        engine.window_result(WINDOWS[1])
        assert len(finished) == len(engine.report.records)
        for record, direct in finished:
            expected = 0 if record.cache_hit else sum(
                child.output_bytes for child in direct
            )
            assert record.input_bytes == expected, record.stage
        # The level-keyed tabulations feeding the fit plan are sized too.
        (plan, direct), = [
            f for f in finished if f[0].stage == "fit_batch" and not f[0].cache_hit
        ]
        assert {child.stage for child in direct} == {"tabulate"}
        assert plan.input_bytes > 0

    def test_cold_window_looks_up_only_its_own_keys(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        store = open_store(tmp_path / "store")
        engine = Executor(tiny_internet, tiny_sources, cache=store)
        looked_up = []
        memory_get = store.memory.get

        def counting_get(key):
            looked_up.append(key.token())
            return memory_get(key)

        # Every lookup, tiered or memory-only, goes through this tier.
        store.memory.get = counting_get
        engine.window_result(WINDOWS[1])
        assert sorted(looked_up) == sorted(r.key for r in engine.report.records)

    def test_dropped_executor_is_freed_at_once(self, tiny_internet, tiny_sources):
        """Nothing an executor owns refers back to it, so dropping it
        frees its memory-tier artifacts without waiting for a cyclic
        collection."""
        import gc
        import weakref

        engine = Executor(tiny_internet, tiny_sources)
        engine.run("collect", WINDOWS[0])
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()


class TestSpoofFilterDeterminism:
    def test_seed_is_hash_randomization_free(self):
        # crc32, not hash(): stable across interpreters / PYTHONHASHSEED.
        assert spoof_filter_seed(77, "SWIN") == 77 + 894
        assert spoof_filter_seed(77, "CALT") == 77 + 372
        assert spoof_filter_seed(0, "SWIN") == spoof_filter_seed(0, "SWIN")

    def test_fresh_pipelines_agree(self, tiny_internet, tiny_sources, last_window):
        first = Executor(tiny_internet, tiny_sources)
        second = Executor(tiny_internet, tiny_sources)
        datasets_a = first.datasets(last_window)
        datasets_b = second.datasets(last_window)
        assert set(datasets_a) == set(datasets_b)
        for name in datasets_a:
            assert np.array_equal(
                datasets_a[name].addresses, datasets_b[name].addresses
            ), name


class TestParallelWindows:
    def test_parallel_bit_identical_to_serial(self, small_internet, tmp_path):
        serial = Executor(small_internet)
        parallel = Executor(small_internet, cache=open_store(tmp_path))
        serial_results = serial.run_windows(WINDOWS, workers=1)
        parallel_results = parallel.run_windows(WINDOWS, workers=2)
        assert len(serial_results) == len(parallel_results) == len(WINDOWS)
        for s, p in zip(serial_results, parallel_results):
            assert s.window == p.window
            assert s.observed_addresses == p.observed_addresses
            assert s.estimate_addresses.population == p.estimate_addresses.population
            assert s.estimate_subnets.population == p.estimate_subnets.population
        # The workers wrote their spoof-filtered datasets to the store.
        assert_stored_datasets_match(tmp_path, serial, WINDOWS)

    def test_parallel_run_leaves_parent_queryable(self, small_internet):
        engine = Executor(small_internet)
        results = engine.run_windows(WINDOWS, workers=2)
        # Window results were inserted into the parent cache ...
        again = engine.run_windows(WINDOWS, workers=2)
        for first, second in zip(results, again):
            assert second is first
        # ... and the workers' stage records were merged back.
        stages = {r.stage for r in engine.report.records}
        assert {"collect", "fit", "estimate", "window_result"} <= stages
        assert engine.report.cache_misses > 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only a forked worker inherits its payload without a pickle",
    )
    def test_forked_workers_inherit_the_payload(self, small_internet, monkeypatch):
        def refuse(self, protocol):
            raise AssertionError("the worker payload was pickled")

        monkeypatch.setattr(_ExecutorPayload, "__reduce_ex__", refuse)
        engine = Executor(small_internet)
        results = engine.run_windows(WINDOWS, workers=2)
        assert [r.window for r in results] == WINDOWS
        assert engine.report.degraded_count == engine.report.retry_count == 0

    def test_payload_survives_a_pickle(self, small_internet):
        # Under spawn or forkserver every worker unpickles its payload.
        parent = Executor(small_internet)
        payload = pickle.loads(pickle.dumps(_ExecutorPayload.of(parent)))
        worker = payload.build(Observer.disabled())
        window = WINDOWS[0]
        got, want = worker.window_result(window), parent.window_result(window)
        assert got.estimated_addresses == want.estimated_addresses
        assert got.estimated_subnets == want.estimated_subnets
        assert got.observed_addresses == want.observed_addresses
        assert got.truth_addresses == want.truth_addresses


class TestSlimResults:
    """A window result carries what the sweep reports, not its datasets."""

    def test_window_result_pickles_no_ipset(self, last_window_result):
        class NoSets(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, IPSet):
                    raise AssertionError("a WindowResult pickles an IPSet")
                return None

        NoSets(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(
            last_window_result
        )

    def test_warm_sweep_digests_and_reads_once_per_window(
        self, small_internet, tmp_path, monkeypatch
    ):
        Executor(small_internet, cache=open_store(tmp_path)).run_windows(WINDOWS)
        digests = []
        digest = artifacts_module.canonical_digest

        def counted_digest(obj):
            digests.append(obj)
            return digest(obj)

        reads = []

        def counted_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            reads.append(path)
            return handle

        monkeypatch.setattr(artifacts_module, "canonical_digest", counted_digest)
        monkeypatch.setattr(store_module, "open", counted_open, raising=False)
        warm = Executor(small_internet, cache=open_store(tmp_path))
        results = warm.run_windows(WINDOWS)
        assert [r.window for r in results] == WINDOWS
        assert len(digests) == len(WINDOWS)
        assert len(reads) == len(set(reads)) == len(WINDOWS)
        assert all(str(path).endswith(".pkl") for path in reads)
        assert warm.report.hit_tiers() == {"persistent": len(WINDOWS)}
        assert warm.report.cache_misses == 0

    def test_entry_with_datasets_still_loads(self, small_internet, tmp_path):
        # A window_result entry written before results shed their
        # datasets: same key schema, an extra attribute in the pickle.
        window = WINDOWS[0]
        engine = Executor(small_internet)
        [result] = engine.run_windows([window])
        old = copy.copy(result)
        old.__dict__["datasets"] = engine.datasets(window)
        LocalStore(tmp_path).put(engine.key_for("window_result", window), old)

        warm = Executor(small_internet, cache=open_store(tmp_path))
        [loaded] = warm.run_windows([window])
        assert warm.report.hit_tiers() == {"persistent": 1}
        assert loaded.estimated_addresses == result.estimated_addresses
        assert loaded.estimated_subnets == result.estimated_subnets
        assert loaded.observed_addresses == result.observed_addresses
        assert loaded.truth_addresses == result.truth_addresses


class TestSelfSeconds:
    def test_exclusive_seconds_partition_a_cold_sweep(self, small_internet):
        engine = Executor(small_internet)
        engine.run_windows(WINDOWS)
        records = engine.report.records
        assert all(r.self_seconds >= -1e-9 for r in records)
        # Serially, window_result is resolved only at the top level.
        top = sum(r.seconds for r in records if r.stage == "window_result")
        assert sum(r.self_seconds for r in records) == pytest.approx(
            top, rel=0, abs=1e-6
        )
        stages = engine.report.to_dict()["stages"]
        assert stages["fit_batch"]["self_seconds"] < stages["fit_batch"]["seconds"]
        assert "self s" in engine.report.summary()

    def test_wall_time_counts_each_second_once(self, small_internet):
        engine = Executor(small_internet)
        engine.run_windows(WINDOWS)
        report = engine.report
        top = sum(r.seconds for r in report.records if r.stage == "window_result")
        assert report.wall_time() == pytest.approx(top, rel=0, abs=1e-6)
        assert report.to_dict()["wall_time"] == report.wall_time()
        # The summary's total is the sum of its "self s" column.
        lines = report.summary().splitlines()
        end = next(i for i, line in enumerate(lines) if line.startswith("total:"))
        column = sum(float(line.split()[5]) for line in lines[2:end])
        total = float(lines[end].split()[1].rstrip("s,"))
        assert total == pytest.approx(column, abs=5e-4 * (end - 2))


def _triple(executor, item, observer):
    return 3 * item


class TestFanOut:
    def test_parallel_matches_serial_in_order(self, tiny_executor):
        items = list(range(8))

        def run(workers):
            engine = Executor(
                tiny_executor.internet, tiny_executor.sources,
                policy=ExecutionPolicy(), observer=Observer.disabled(),
            )
            outcomes = engine.run_tasks(
                items, _triple,
                stage="demo", keys=[repr(i) for i in items], workers=workers,
            )
            return [o.value for o in outcomes]

        assert run(1) == run(2) == [3 * i for i in items]


def _reference_stratification(internet, window, kind, subnets):
    """Labeler and per-stratum truncation limits of a stratification,
    written out without the registry and routing helpers: the reference
    ``Executor.stratified`` must match exactly."""
    routing = internet.routing
    if kind == "dynamic":
        routed = (
            routing.subnet24_count(window.start, window.end)
            if subnets
            else routing.size(window.start, window.end)
        )
        return internet.population.dynamic_labeler(), lambda label: routed
    registry = internet.registry
    values = {"rir": registry.rir_codes}[kind]

    def labeler(addrs):
        idx = registry.lookup(addrs)
        out = np.full(idx.shape, -1, dtype=np.int64)
        hit = idx >= 0
        out[hit] = values[idx[hit]]
        return out

    mask = routing.routed_allocation_mask(window.start, window.end)
    sizes = {}
    for alloc, routed_flag, value in zip(registry.allocations, mask, values):
        if routed_flag:
            size = alloc.prefix.size
            if subnets:
                size = max(1, size // 256)
            sizes[value.item()] = sizes.get(value.item(), 0.0) + size
    total = sum(sizes.values())
    return labeler, lambda label: sizes.get(label, total)


class TestStratified:
    @pytest.mark.parametrize("level", ["addresses", "subnets"])
    @pytest.mark.parametrize("kind", ["rir", "dynamic"])
    def test_matches_direct_stratified_estimate(
        self, tiny_executor, tiny_internet, last_window, kind, level
    ):
        from repro.core.stratified import stratified_estimate

        subnets = level == "subnets"
        datasets = tiny_executor.datasets(last_window)
        if subnets:
            datasets = {name: d.subnets24() for name, d in datasets.items()}
        labeler, limits = _reference_stratification(
            tiny_internet, last_window, kind, subnets
        )
        opts = tiny_executor.options
        expected = stratified_estimate(
            datasets,
            labeler,
            min_observed=opts.min_stratum_observed,
            criterion=opts.criterion,
            divisor=opts.divisor,
            distribution="truncated",
            limit_per_stratum=limits,
            max_order=opts.max_order,
        )
        result = tiny_executor.stratified(last_window, kind, level)

        def summary(strat):
            return strat.population, strat.observed, {
                label: (s.population, s.observed)
                for label, s in strat.strata.items()
            }

        assert summary(result) == summary(expected)

    def test_unknown_kind_or_level_rejected(self, tiny_executor, last_window):
        with pytest.raises(ValueError, match="unknown stratification kind"):
            tiny_executor.stratified(last_window, "species")
        with pytest.raises(ValueError, match="level must be"):
            tiny_executor.stratified(last_window, "rir", "hosts")


class TestStratifiedStage:
    """Strata resolve as a stage: keyed, memoised and persisted."""

    def test_strata_are_cached_and_stored(
        self, tiny_internet, tiny_sources, first_window, tmp_path
    ):
        from repro.core import fitkernel

        engine = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        first = engine.stratified(first_window, "rir", "subnets")
        records = [r for r in engine.report.records if r.stage == "stratified"]
        assert [r.cache_hit for r in records] == [False]
        assert records[0].fit is not None and records[0].fit.fits > 0

        again = engine.stratified(first_window, "rir", "subnets")
        hit = engine.report.records[-1]
        assert (hit.stage, hit.cache_hit, hit.tier) == ("stratified", True, "memory")
        assert again.population == first.population

        fresh = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        before = fitkernel.snapshot()
        stored = fresh.stratified(first_window, "rir", "subnets")
        assert not fitkernel.snapshot() - before
        (record,) = fresh.report.records
        assert (record.stage, record.cache_hit, record.tier) == (
            "stratified", True, "persistent"
        )
        assert stored.population == first.population
        assert stored.observed == first.observed

    def test_bad_input_resolves_no_stage(
        self, tiny_internet, tiny_sources, last_window
    ):
        # Inside the stage a bad kind or level would be retried and
        # recorded as a failed stage.
        engine = Executor(tiny_internet, tiny_sources)
        for kind, level in (("species", "addresses"), ("rir", "hosts")):
            with pytest.raises(ValueError):
                engine.stratified(last_window, kind, level)
        assert engine.report.records == []


#: The leave-one-out analyses and the stage each resolves.
LEAVE_ONE_OUT = (
    ("crossval", cross_validate_window),
    ("sensitivity", source_leverage_window),
)
STAGE_IDS = [stage for stage, _ in LEAVE_ONE_OUT]


class TestLeaveOneOutStages:
    """Folds and drops resolve as stages, like the strata."""

    @pytest.mark.parametrize("stage, analyse", LEAVE_ONE_OUT, ids=STAGE_IDS)
    def test_cached_and_stored(
        self, tiny_internet, tiny_sources, first_window, tmp_path, stage, analyse
    ):
        from repro.core import fitkernel

        engine = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        first = analyse(engine, first_window)
        records = [r for r in engine.report.records if r.stage == stage]
        assert [r.cache_hit for r in records] == [False]
        assert records[0].fit is not None and records[0].fit.fits > 0

        again = analyse(engine, first_window)
        hit = engine.report.records[-1]
        assert (hit.stage, hit.cache_hit, hit.tier) == (stage, True, "memory")
        assert again == first

        fresh = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        before = fitkernel.snapshot()
        stored = analyse(fresh, first_window)
        assert not fitkernel.snapshot() - before
        (record,) = [r for r in fresh.report.records if r.stage == stage]
        assert (record.cache_hit, record.tier) == (True, "persistent")
        assert stored == first

    @pytest.mark.parametrize("stage, analyse", LEAVE_ONE_OUT, ids=STAGE_IDS)
    def test_too_few_sources_resolve_no_stage(
        self, tiny_internet, tiny_sources, last_window, stage, analyse
    ):
        # Inside the stage the error would be retried and recorded as a
        # failed stage.
        two = {name: tiny_sources[name] for name in ("WIKI", "WEB")}
        engine = Executor(tiny_internet, two)
        with pytest.raises(ValueError, match="three sources"):
            analyse(engine, last_window)
        assert not [
            r for r in engine.report.records
            if r.stage in ("crossval", "sensitivity")
        ]


class TestBatchedMatchesSolo:
    """Each batched fold and drop picks the terms, and reaches the
    estimate, of a stepwise search on its table alone."""

    @pytest.fixture(scope="class")
    def reference(self):
        return Executor(
            SyntheticInternet(SimulationConfig(scale=2.0**-14, seed=20140630))
        )

    @pytest.mark.parametrize(
        "window", [TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5)],
        ids=["Dec2011", "Jun2014"],
    )
    def test_folds_and_drops(self, reference, window):
        from repro.core.histories import (
            tabulate_histories,
            tabulate_within_universe,
        )
        from repro.core.selection import select_model, select_models_batched

        opts = reference.options
        search = dict(
            criterion=opts.criterion, divisor=opts.divisor, max_order=opts.max_order
        )
        datasets = reference.analysis_datasets(window)

        def without(name):
            return {n: d for n, d in datasets.items() if n != name}

        folds = reference.run("crossval", window)
        tables = [
            tabulate_within_universe(datasets[fold.source], without(fold.source))[0]
            for fold in folds
        ]
        batched = select_models_batched(tables, **search)
        assert [fold.source for fold in folds] == list(datasets)
        for fold, table, selection in zip(folds, tables, batched):
            solo = select_model(table, **search)
            assert selection.fit.terms == solo.fit.terms, fold.source
            assert selection.fit.estimate().unseen == fold.estimated_unseen
            assert fold.estimated_unseen == pytest.approx(
                solo.fit.estimate().unseen, rel=1e-12
            ), fold.source

        limit = float(reference.internet.routing.size(window.start, window.end))
        drops = reference.run("sensitivity", window)
        assert list(drops) == list(datasets)
        for name, estimate in drops.items():
            solo = select_model(
                tabulate_histories(without(name)), **search,
                distribution="truncated", limit=limit,
            ).fit.estimate()
            assert estimate.terms == solo.terms, name
            assert estimate.population == pytest.approx(
                solo.population, rel=1e-12
            ), name

