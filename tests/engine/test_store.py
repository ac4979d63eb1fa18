"""The persistent artifact store: canonical keys, backends, tiers.

Covers the storage-layer refactor end to end: the canonical type-tagged
key encoding (stable digests replacing the repr()-based token), the
persistent content-addressed :class:`LocalStore` (round-trips, corrupt
entries degrading to misses, gc, verify), the write-through
:class:`TieredStore`, entries left by stages that no longer exist, and
the concurrency contract (two processes hammering one store directory).
"""

import concurrent.futures
import dataclasses
import os
import struct
import tempfile
import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import _canonical
from repro._canonical import (
    KEY_SCHEMA_VERSION,
    canonical_digest,
    canonical_encode,
)
from repro.analysis.windows import TimeWindow
from repro.core import fitkernel
from repro.core.histories import ContingencyTable
from repro.engine import Executor
from repro.engine.artifacts import MISS, ArtifactCache, ArtifactKey
from repro.engine.stages import PipelineOptions
from repro.engine.store import (
    ARRAY_MAGIC,
    ARRAY_SUFFIX,
    ArtifactStore,
    LocalStore,
    TieredStore,
    _payload_checksum,
    _spill_payload,
    open_store,
)
from repro.integrity.policy import QuarantinePolicy
from repro.ipspace.ipset import IPSet

WINDOW = TimeWindow(2013.5, 2014.5)


def key(stage="tabulate", **params):
    return ArtifactKey(stage=stage, params=tuple(sorted(params.items())))


def ipset(n, start=0):
    return IPSet.from_sorted_unique(
        np.arange(start, start + n, dtype=np.uint32)
    )


ADDRESS_SETS = st.lists(st.integers(0, 2**32 - 1), max_size=40).map(IPSet)
TABLES = st.integers(1, 4).flatmap(
    lambda t: st.lists(
        st.integers(0, 2**40), min_size=2**t - 1, max_size=2**t - 1
    ).map(
        lambda cells: ContingencyTable(
            t, np.array([0, *cells]), tuple(f"S{i}" for i in range(t))
        )
    )
)
ARRAY_VALUES = st.one_of(
    ADDRESS_SETS,
    st.dictionaries(st.text(max_size=6), ADDRESS_SETS, min_size=1, max_size=4),
    TABLES,
)


class TestCanonicalEncoding:
    def test_deterministic(self):
        value = {"b": (1, 2.5), "a": [None, True, "x"]}
        assert canonical_encode(value) == canonical_encode(value)
        assert canonical_digest(value) == canonical_digest(value)

    def test_dict_order_independent(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest(
            {"b": 2, "a": 1}
        )

    def test_type_tags_distinguish_lookalikes(self):
        # repr() would conflate several of these; the tagged encoding
        # must not.
        assert canonical_digest(1) != canonical_digest(1.0)
        assert canonical_digest(True) != canonical_digest(1)
        assert canonical_digest((1,)) != canonical_digest([1])
        assert canonical_digest("1") != canonical_digest(1)
        assert canonical_digest(b"x") != canonical_digest("x")

    def test_numpy_scalars_coerce_to_python(self):
        assert canonical_digest(np.float64(2013.5)) == canonical_digest(2013.5)
        assert canonical_digest(np.int64(7)) == canonical_digest(7)

    def test_float_encoding_is_bitwise(self):
        # 0.1 + 0.2 != 0.3 exactly: the digest must see the difference,
        # which string formatting ("0.30000000000000004" vs "0.3" at
        # different precisions) historically has not guaranteed.
        assert canonical_digest(0.1 + 0.2) != canonical_digest(0.3)

    def test_ndarray_dtype_and_shape_matter(self):
        a = np.arange(6, dtype=np.int64)
        assert canonical_digest(a) == canonical_digest(a.copy())
        assert canonical_digest(a) != canonical_digest(a.astype(np.int32))
        assert canonical_digest(a) != canonical_digest(a.reshape(2, 3))

    def test_sets_sorted_by_encoding(self):
        assert canonical_digest(frozenset({3, 1, 2})) == canonical_digest(
            frozenset({2, 3, 1})
        )
        assert canonical_digest({1, 2}) != canonical_digest(frozenset())

    def test_dataclass_tagged_by_class(self):
        @dataclasses.dataclass(frozen=True)
        class Opts:
            x: int = 1

        assert canonical_digest(Opts()) == canonical_digest(Opts())
        assert canonical_digest(Opts()) != canonical_digest({"x": 1})

    def test_cached_options_encoding_digests_like_a_fresh_one(self, monkeypatch):
        # A frozen dataclass is encoded once per object and its bytes
        # reused; keys must digest exactly as a fresh encoding does.
        options = PipelineOptions(
            divisor=8, exclude_sources=("SWIN",),
            quarantine=QuarantinePolicy.named("strict"),
        )
        params = ((2013.0, 2014.0), (("level", "subnets"),), options)
        first = ArtifactKey("fit", params).digest()
        cached = ArtifactKey("fit", params).digest()
        assert id(options) in _canonical._FROZEN_ENCODINGS
        monkeypatch.setattr(_canonical, "_FROZEN_ENCODINGS", {})
        fresh = ArtifactKey("fit", params).digest()
        copied = ArtifactKey(
            "fit", params[:2] + (dataclasses.replace(options),)
        ).digest()
        assert first == cached == fresh == copied

    def test_equal_frozen_objects_do_not_share_encodings(self):
        @dataclasses.dataclass(frozen=True)
        class Opts:
            x: object = 1

        one, true = Opts(1), Opts(True)
        assert one == true
        assert canonical_encode(one) != canonical_encode(true)
        assert canonical_encode(true) != canonical_encode(one)


class TestArtifactKeyDigest:
    def test_token_is_stage_prefixed_short_digest(self):
        k = key(window=(2011.0, 2012.0))
        assert k.token() == f"tabulate-{k.digest()[:16]}"
        assert len(k.digest()) == 64

    def test_digest_cached_and_stable(self):
        k = key(i=1)
        assert k.digest() is k.digest()
        assert k.digest() == key(i=1).digest()

    def test_params_and_stage_change_digest(self):
        assert key(i=1).digest() != key(i=2).digest()
        assert key("fit", i=1).digest() != key("tabulate", i=1).digest()

    def test_schema_version_changes_digest(self, monkeypatch):
        before = key(i=1).digest()
        monkeypatch.setattr(
            "repro.engine.artifacts.KEY_SCHEMA_VERSION",
            KEY_SCHEMA_VERSION + 1,
        )
        assert key(i=1).digest() != before


class TestLocalStoreRoundTrip:
    def test_ipset_npz_roundtrip(self, tmp_path):
        store = LocalStore(tmp_path)
        k = key(i=0)
        value = ipset(100)
        assert store.get(k) is MISS
        store.put(k, value)
        assert k in store
        restored = store.get(k)
        assert np.array_equal(restored.addresses, value.addresses)
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1

    def test_table_roundtrip(self, tmp_path):
        store = LocalStore(tmp_path)
        table = ContingencyTable(
            2, np.array([0, 5, 3, 2]), source_names=("x", "y")
        )
        store.put(key("fit"), table)
        restored = store.get(key("fit"))
        assert isinstance(restored, ContingencyTable)
        assert np.array_equal(restored.counts, table.counts)
        assert restored.source_names == ("x", "y")

    def test_mapping_roundtrip(self, tmp_path):
        store = LocalStore(tmp_path)
        sets = {"WEB": ipset(50), "IPING": ipset(30, start=500)}
        store.put(key("preprocess"), sets)
        restored = store.get(key("preprocess"))
        assert set(restored) == set(sets)
        for name in sets:
            assert np.array_equal(
                restored[name].addresses, sets[name].addresses
            )

    @settings(max_examples=60, deadline=None)
    @given(ARRAY_VALUES)
    @example(IPSet([]))
    @example(IPSet([0]))
    @example(IPSet([0xFFFFFFFF]))
    @example(IPSet([0, 0xFFFFFFFF]))
    @example({"WEB": IPSet([]), "IPING": IPSet([0, 7, 0xFFFFFFFF])})
    @example(ContingencyTable(2, np.array([0, 2**33, 1, 2**40 + 5]), ("x", "y")))
    def test_array_codec_roundtrip(self, value):
        with tempfile.TemporaryDirectory() as root:
            LocalStore(root).put(key(i=0), value)
            reader = LocalStore(root)
            (path,) = reader.entries()
            assert path.suffix == ARRAY_SUFFIX
            restored = reader.get(key(i=0))
        assert reader.corrupt_entries == 0
        if isinstance(value, ContingencyTable):
            assert restored.counts.dtype == np.int64
            assert np.array_equal(restored.counts, value.counts)
            assert restored.source_names == value.source_names
        elif isinstance(value, IPSet):
            assert restored.addresses.dtype == np.uint32
            assert restored == value
        else:
            assert restored == value

    def test_generic_value_pickle_roundtrip(self, tmp_path):
        store = LocalStore(tmp_path)
        value = {"estimate": 1234.5, "arr": np.arange(4)}
        store.put(key("estimate"), value)
        restored = store.get(key("estimate"))
        assert restored["estimate"] == 1234.5
        assert np.array_equal(restored["arr"], np.arange(4))
        assert any(p.suffix == ".pkl" for p in store.entries())

    def test_put_is_idempotent_and_refreshes_mtime(self, tmp_path):
        store = LocalStore(tmp_path)
        k = key(i=0)
        store.put(k, ipset(10))
        (path,) = store.entries()
        os.utime(path, (1.0, 1.0))  # pretend it is ancient
        store.put(k, ipset(10))
        assert store.puts == 1
        assert store.put_skips == 1
        assert path.stat().st_mtime > 1.0

    def test_entries_live_under_versioned_stage_dirs(self, tmp_path):
        store = LocalStore(tmp_path)
        store.put(key("tabulate", i=0), ipset(10))
        (path,) = store.entries()
        assert path.parent.name == "tabulate"
        assert path.parent.parent.name == f"v{KEY_SCHEMA_VERSION}"
        assert path.stem == key("tabulate", i=0).token()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = LocalStore(tmp_path)
        store.put(key(i=0), ipset(100))
        store.put(key("estimate"), {"x": 1})
        leftovers = [
            p
            for p in tmp_path.rglob("*")
            if p.is_file() and p.suffix not in (ARRAY_SUFFIX, ".pkl")
        ]
        assert leftovers == []

    def test_describe_and_spec(self, tmp_path):
        store = LocalStore(tmp_path)
        assert store.describe()["backend"] == "local"
        assert store.describe()["key_schema"] == KEY_SCHEMA_VERSION
        assert store.spec() == {"path": str(tmp_path)}

    def test_is_artifact_store(self, tmp_path):
        assert isinstance(LocalStore(tmp_path), ArtifactStore)
        assert isinstance(ArtifactCache(), ArtifactStore)


class TestLocalStoreCorruption:
    """Corrupt entries degrade to recomputing misses, never bad data."""

    def put_one(self, tmp_path, observer=None, kind="array"):
        store = LocalStore(tmp_path, observer=observer)
        k = key(i=0) if kind == "array" else key("estimate", i=0)
        value = ipset(100) if kind == "array" else {"x": 1.0}
        store.put(k, value)
        (path,) = store.entries()
        return store, k, path

    def test_npz_entry_carries_checksum(self, tmp_path):
        # Every array entry is framed by its magic and the crc32 of the
        # payload it decodes to.
        store, k, path = self.put_one(tmp_path)
        assert path.suffix == ARRAY_SUFFIX
        magic, crc = struct.unpack_from("<4sI", path.read_bytes())
        assert magic == ARRAY_MAGIC
        assert crc == _payload_checksum(_spill_payload(ipset(100)))

    def test_truncated_npz_degrades_to_miss(self, tmp_path):
        store, k, path = self.put_one(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get(k) is MISS
        assert store.corrupt_entries == 1
        assert not path.exists()
        store.put(k, ipset(100))  # recompute path is clean again
        assert store.get(k) is not MISS

    def test_bitflipped_npz_fails_checksum(self, tmp_path):
        store, k, path = self.put_one(tmp_path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(k) is MISS
        assert store.corrupt_entries == 1

    def test_bitflipped_pickle_fails_checksum(self, tmp_path):
        store, k, path = self.put_one(tmp_path, kind="pkl")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(k) is MISS
        assert store.corrupt_entries == 1
        assert not path.exists()

    def test_bad_magic_pickle_rejected(self, tmp_path):
        store, k, path = self.put_one(tmp_path, kind="pkl")
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        assert store.get(k) is MISS
        assert store.corrupt_entries == 1

    def test_truncated_pickle_header_rejected(self, tmp_path):
        store, k, path = self.put_one(tmp_path, kind="pkl")
        path.write_bytes(path.read_bytes()[:3])
        assert store.get(k) is MISS
        assert store.corrupt_entries == 1

    def test_half_written_temp_file_is_invisible(self, tmp_path):
        store, k, path = self.put_one(tmp_path)
        # A writer killed mid-write leaves only a dotted temp name; the
        # entry under the final name stays intact and readable.
        junk = path.with_name(f".{path.name}.9999-0.tmp")
        junk.write_bytes(b"partial garbage")
        assert store.get(k) is not MISS
        assert junk not in list(store.entries())

    def test_corrupt_event_carries_key_and_crc(self, tmp_path):
        from repro.obs.observer import Observer

        obs = Observer()
        store, k, path = self.put_one(tmp_path, observer=obs)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(k) is MISS
        (event,) = [
            e for e in obs.events if e["name"] == "cache.corrupt_spill"
        ]
        assert event["level"] == "warning"
        assert event["key"] == k.token()
        assert event["stage"] == k.stage
        if "stored_crc" in event:
            assert event["stored_crc"] != event["computed_crc"]

    def test_without_observer_falls_back_to_logging(self, tmp_path, caplog):
        import logging

        store, k, path = self.put_one(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with caplog.at_level(logging.WARNING, logger="repro.engine.store"):
            assert store.get(k) is MISS
        assert "cache.corrupt_spill" in caplog.text


class TestLocalStoreMaintenance:
    def fill(self, tmp_path, n=4):
        store = LocalStore(tmp_path)
        for i in range(n):
            store.put(key(i=i), ipset(100, start=i * 1000))
        return store

    def test_usage_scans_entries(self, tmp_path):
        store = self.fill(tmp_path)
        usage = store.usage()
        assert usage["entries"] == 4
        assert usage["bytes"] > 0
        assert usage["stages"] == {"tabulate": 4}

    def test_gc_by_age(self, tmp_path):
        store = self.fill(tmp_path)
        for path in list(store.entries())[:2]:
            os.utime(path, (1.0, 1.0))
        summary = store.gc(max_age=3600.0)
        assert summary["removed"] == 2
        assert summary["kept"] == 2

    def test_gc_by_size_drops_oldest_first(self, tmp_path):
        store = self.fill(tmp_path)
        paths = list(store.entries())
        sizes = {p: p.stat().st_size for p in paths}
        for age, path in enumerate(paths):
            os.utime(path, (1000.0 + age, 1000.0 + age))
        keep_bytes = sizes[paths[-1]] + sizes[paths[-2]]
        summary = store.gc(max_bytes=keep_bytes)
        assert summary["removed"] == 2
        survivors = set(store.entries())
        assert survivors == set(paths[-2:])  # newest mtimes survive

    def test_gc_sweeps_stale_temp_files(self, tmp_path):
        store = self.fill(tmp_path, n=1)
        (path,) = store.entries()
        stale = path.with_name(f".{path.name}.1-0.tmp")
        stale.write_bytes(b"junk")
        os.utime(stale, (1.0, 1.0))
        fresh = path.with_name(f".{path.name}.1-1.tmp")
        fresh.write_bytes(b"junk")  # a live writer: must survive
        summary = store.gc()
        assert summary["tmp_removed"] == 1
        assert not stale.exists() and fresh.exists()

    def test_verify_finds_and_deletes_corrupt(self, tmp_path):
        store = self.fill(tmp_path)
        victim = list(store.entries())[1]
        data = bytearray(victim.read_bytes())
        data[-20] ^= 0xFF
        victim.write_bytes(bytes(data))
        summary = store.verify()
        assert summary["checked"] == 4
        assert summary["corrupt"] == 1
        assert summary["corrupt_paths"] == [str(victim)]
        assert victim.exists()  # verify without delete is read-only
        summary = store.verify(delete=True)
        assert summary["deleted"] == 1
        assert not victim.exists()
        assert store.verify() == {
            "checked": 3, "stale": 0, "corrupt": 0, "corrupt_paths": [],
            "deleted": 0,
        }

    def test_verify_counts_other_schema_entries_stale(self, tmp_path):
        # An entry of another key schema is unreadable by design: verify
        # must not call it corrupt (nor delete it), while gc reclaims it.
        store = self.fill(tmp_path, n=1)
        old = tmp_path / f"v{KEY_SCHEMA_VERSION - 1}" / "tabulate"
        old.mkdir(parents=True)
        legacy = old / "tabulate-0123456789abcdef.npz"
        np.savez_compressed(legacy, __ipset__=np.arange(5, dtype=np.uint32))
        summary = store.verify(delete=True)
        assert (summary["checked"], summary["stale"]) == (1, 1)
        assert summary["corrupt"] == summary["deleted"] == 0
        assert legacy.exists()
        assert store.usage()["entries"] == 2
        assert store.gc(max_age=0.0, now=time.time() + 1.0)["removed"] == 2
        assert list(store.entries()) == []


class TestTieredStore:
    def test_put_lands_in_both_tiers(self, tmp_path):
        store = open_store(tmp_path)
        store.put(key(i=0), ipset(10))
        assert key(i=0) in store.memory
        assert key(i=0) in store.persistent

    def test_get_promotes_persistent_hit_to_memory(self, tmp_path):
        seeded = LocalStore(tmp_path)
        seeded.put(key(i=0), ipset(10))
        store = open_store(tmp_path)
        assert store.get(key(i=0)) is not MISS
        assert store.last_hit_tier == "persistent"
        assert store.get(key(i=0)) is not MISS
        assert store.last_hit_tier == "memory"

    def test_miss_clears_last_hit_tier(self, tmp_path):
        store = open_store(tmp_path)
        store.put(key(i=0), ipset(10))
        store.get(key(i=0))
        assert store.get(key(i=99)) is MISS
        assert store.last_hit_tier is None

    def test_stats_merge_tiers_under_prefixes(self, tmp_path):
        store = open_store(tmp_path)
        store.put(key(i=0), ipset(10))
        store.get(key(i=0))
        store.get(key(i=1))
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["persistent_puts"] == 1
        assert stats["persistent_misses"] == 1  # the key(i=1) fall-through

    def test_spec_rebuilds_equivalent_store(self, tmp_path):
        store = open_store(tmp_path, memory_bytes=12345)
        spec = store.spec()
        rebuilt = open_store(**spec)
        assert isinstance(rebuilt, TieredStore)
        assert rebuilt.persistent.root == store.persistent.root
        assert rebuilt.memory.max_bytes == 12345

    def test_observer_propagates_to_tiers(self, tmp_path):
        from repro.obs.observer import Observer

        store = open_store(tmp_path)
        obs = Observer()
        store.observer = obs
        assert store.observer is obs
        assert store.persistent.observer is obs

    def test_describe_nests_backends(self, tmp_path):
        desc = open_store(tmp_path).describe()
        assert desc["backend"] == "tiered"
        assert desc["persistent"]["path"] == str(tmp_path)


# -- two-process hammer -------------------------------------------------------

#: (key index -> deterministic value) — both processes write identical
#: values per key, so any write interleaving must yield readable data.
HAMMER_KEYS = 8


def _hammer_worker(args):
    """Write/read loop over a shared store; returns observed anomalies."""
    root, rounds = args
    store = LocalStore(root)
    anomalies = 0
    for i in range(rounds):
        idx = i % HAMMER_KEYS
        k = key(i=idx)
        value = ipset(50 + idx, start=idx * 1000)
        store.put(k, value)
        got = store.get(k)
        if got is MISS or not np.array_equal(got.addresses, value.addresses):
            anomalies += 1
    return anomalies


class TestConcurrentStoreAccess:
    def test_two_processes_hammer_one_store(self, tmp_path):
        """Two processes writing the same store directory never clobber
        each other: every read returns intact data and no temp files or
        corrupt entries survive."""
        rounds = 50
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(
                    _hammer_worker,
                    [(str(tmp_path), rounds), (str(tmp_path), rounds)],
                )
            )
        assert results == [0, 0]
        store = LocalStore(tmp_path)
        usage = store.usage()
        assert usage["entries"] == HAMMER_KEYS
        summary = store.verify()
        assert summary["corrupt"] == 0
        leftovers = [
            p
            for p in tmp_path.rglob("*")
            if p.is_file() and p.suffix not in (ARRAY_SUFFIX, ".pkl")
        ]
        assert leftovers == []


class TestWarmRunIntegration:
    """Second run against a warm store: identical results, no recompute."""

    def test_warm_window_is_bit_identical_and_persistent_hit(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        cold_ex = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        cold = cold_ex.window_result(WINDOW)
        assert cold_ex.report.cache_misses > 0  # actually computed

        warm_ex = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        warm = warm_ex.window_result(WINDOW)
        assert warm.estimate_addresses == cold.estimate_addresses
        assert warm.estimate_subnets == cold.estimate_subnets
        assert warm_ex.report.cache_hits == 1
        assert warm_ex.report.cache_misses == 0
        assert warm_ex.report.hit_tiers() == {"persistent": 1}
        (record,) = warm_ex.report.records
        assert record.tier == "persistent"


class TestLegacyFitMemoEntries:
    """Stores written before the fit-memo tier was removed hold
    ``fitmemo`` entries: converged final-refit coefficients keyed by
    (sources, terms, counts, distribution, limit, divisor).  Nothing
    reads them any more; they must verify, list and collect like any
    other entry and never move an estimate."""

    @staticmethod
    def _write_legacy_entries(root, selections, shift=0.0):
        store = LocalStore(root)
        for selection in selections:
            fit = selection.fit
            store.put(
                ArtifactKey(
                    "fitmemo",
                    params=(
                        fit.table.num_sources,
                        selection.terms,
                        np.asarray(fit.table.counts),
                        fit.distribution,
                        fit.limit,
                        selection.divisor,
                    ),
                ),
                np.asarray(fit.coef + shift, dtype=np.float64),
            )
        # Coefficient vectors are plain arrays: pickled ``.pkl`` entries.
        return sorted((root / f"v{KEY_SCHEMA_VERSION}" / "fitmemo").iterdir())

    def test_store_commands_verify_list_and_collect_them(
        self, tiny_internet, tiny_sources, tmp_path, capsys
    ):
        from repro.cli import main

        selections = Executor(tiny_internet, tiny_sources).run(
            "fit_batch", WINDOW
        ).values()
        root = tmp_path / "store"
        entries = self._write_legacy_entries(root, selections)
        assert entries
        assert main(["store", "verify", str(root)]) == 0
        assert "corrupt: 0" in capsys.readouterr().out
        assert main(["store", "stats", str(root)]) == 0
        assert "fitmemo" in capsys.readouterr().out
        assert main(["store", "gc", str(root), "--max-age", "0s"]) == 0
        capsys.readouterr()
        assert not any(path.exists() for path in entries)

    def test_executor_answers_as_over_a_clean_store(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        def window_result(root):
            executor = Executor(tiny_internet, tiny_sources, cache=open_store(root))
            before = fitkernel.snapshot()
            result = executor.window_result(WINDOW)
            work = fitkernel.snapshot() - before
            return executor, result, (
                work.fits, work.irls_iterations, work.warm_start_hits
            )

        clean_ex, clean, clean_work = window_result(tmp_path / "clean")
        # Off-the-answer coefficients under this window's exact keys: a
        # reader that still seeded refits from them would change the
        # iteration counts.
        assert self._write_legacy_entries(
            tmp_path / "legacy",
            clean_ex.run("fit_batch", WINDOW).values(),
            shift=1.0,
        )
        _, legacy, legacy_work = window_result(tmp_path / "legacy")
        assert legacy.estimate_addresses == clean.estimate_addresses
        assert legacy.estimate_subnets == clean.estimate_subnets
        assert legacy_work == clean_work


class TestWorkerStoreSharing:
    def test_pool_workers_write_shared_store(
        self, tiny_internet, tiny_sources, tmp_path
    ):
        windows = [TimeWindow(2011.0, 2012.0), WINDOW]
        ex = Executor(
            tiny_internet, tiny_sources, cache=open_store(tmp_path / "store")
        )
        results = ex.run_windows(windows, workers=2)
        assert len(results) == 2
        # The workers computed the windows and wrote them through to the
        # shared persistent directory; the parent's own put then skips.
        stage_dirs = {
            p.name
            for p in (tmp_path / "store" / f"v{KEY_SCHEMA_VERSION}").iterdir()
        }
        assert "window_result" in stage_dirs
        assert "fit" in stage_dirs
        assert ex.cache.stats()["persistent_put_skips"] >= 2

        serial = Executor(tiny_internet, tiny_sources).run_windows(windows)
        for parallel_result, serial_result in zip(results, serial):
            assert (
                parallel_result.estimate_addresses
                == serial_result.estimate_addresses
            )
