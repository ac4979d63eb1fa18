"""The keyed artifact cache: keys, size accounting and LRU eviction."""

import numpy as np
import pytest

from repro.core.histories import ContingencyTable
from repro.engine.artifacts import (
    MISS,
    ArtifactCache,
    ArtifactKey,
    artifact_nbytes,
)
from repro.ipspace.ipset import IPSet


def key(stage="tabulate", **params):
    return ArtifactKey(stage=stage, params=tuple(sorted(params.items())))


def ipset(n, start=0):
    return IPSet.from_sorted_unique(
        np.arange(start, start + n, dtype=np.uint32)
    )


class TestArtifactKey:
    def test_equal_params_equal_key(self):
        assert key(window=(2011.0, 2012.0)) == key(window=(2011.0, 2012.0))

    def test_changed_params_changes_key(self):
        assert key(window=(2011.0, 2012.0)) != key(window=(2013.5, 2014.5))
        assert key(stage="fit") != key(stage="tabulate")

    def test_token_is_stable_and_stage_prefixed(self):
        k = key(window=(2011.0, 2012.0))
        assert k.token() == k.token()
        assert k.token().startswith("tabulate-")
        assert k.token() != key(window=(2013.5, 2014.5)).token()


class TestNbytes:
    def test_ipset_counts_array_bytes(self):
        assert artifact_nbytes(ipset(100)) == 400  # uint32

    def test_mapping_sums_values(self):
        sets = {"a": ipset(10), "b": ipset(20)}
        assert artifact_nbytes(sets) >= 40 + 80

    def test_table_counts_array(self):
        table = ContingencyTable(2, np.array([0, 5, 3, 2]))
        assert artifact_nbytes(table) == table.counts.nbytes


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        k = key()
        assert cache.get(k) is MISS
        value = ipset(10)
        cache.put(k, value)
        assert cache.get(k) is value  # object identity preserved
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_contains(self):
        cache = ArtifactCache()
        k = key()
        assert k not in cache
        cache.put(k, ipset(1))
        assert k in cache

    def test_put_refresh_replaces_accounting(self):
        cache = ArtifactCache()
        k = key()
        cache.put(k, ipset(100))
        cache.put(k, ipset(10))
        assert cache.current_bytes == 40
        assert len(cache) == 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_bytes=0)


class TestLRUEviction:
    def test_evicts_least_recently_used_first(self):
        cache = ArtifactCache(max_bytes=1000)
        keys = [key(i=i) for i in range(3)]
        for k in keys:
            cache.put(k, ipset(100))  # 400 bytes each; third put evicts
        assert keys[0] not in cache
        assert keys[1] in cache and keys[2] in cache
        assert cache.evictions == 1
        assert cache.current_bytes <= 1000
        assert cache.get(keys[0]) is MISS  # evicted entries are dropped

    def test_get_refreshes_recency(self):
        cache = ArtifactCache(max_bytes=1000)
        a, b, c = key(i=0), key(i=1), key(i=2)
        cache.put(a, ipset(100))
        cache.put(b, ipset(100))
        cache.get(a)  # a becomes most recent; b is now LRU
        cache.put(c, ipset(100))
        assert b not in cache
        assert a in cache and c in cache

    def test_never_evicts_sole_entry(self):
        cache = ArtifactCache(max_bytes=8)
        k = key()
        cache.put(k, ipset(1000))  # far over budget, but the only entry
        assert k in cache
