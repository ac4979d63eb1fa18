"""Property-based tests for the ipspace substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipspace.addresses import (
    ADDRESS_SPACE_SIZE,
    format_addr,
    parse_addr,
    unique_addresses,
)
from repro.ipspace.blocks import vacant_address_totals, vacant_block_histogram
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import summarize_range

addresses = st.integers(min_value=0, max_value=ADDRESS_SPACE_SIZE - 1)
address_lists = st.lists(addresses, max_size=200)
intervals = st.tuples(
    st.integers(0, ADDRESS_SPACE_SIZE - 1), st.integers(1, 2**20)
).map(lambda t: (t[0], min(t[0] + t[1], ADDRESS_SPACE_SIZE)))
interval_lists = st.lists(intervals, max_size=20)


@given(addresses)
def test_address_roundtrip(addr):
    assert parse_addr(format_addr(addr)) == addr


@given(address_lists, address_lists)
def test_ipset_algebra_matches_python_sets(a, b):
    sa, sb = IPSet(a), IPSet(b)
    pa, pb = set(a), set(b)
    assert set(sa | sb) == pa | pb
    assert set(sa & sb) == pa & pb
    assert set(sa - sb) == pa - pb
    assert sa.overlap_count(sb) == len(pa & pb)


@given(address_lists)
def test_ipset_invariant_holds(a):
    s = IPSet(a)
    s.validate()
    assert len(s) == len(set(a))


# Small values collide often, so the concatenated arrays share members;
# the extremes pin the uint32 end points.
shared_addresses = st.one_of(
    st.integers(0, 64), st.sampled_from([0, ADDRESS_SPACE_SIZE - 1]), addresses
)


@given(st.lists(st.lists(shared_addresses, max_size=50), max_size=5), st.booleans())
def test_unique_addresses_matches_np_unique(chunks, pre_sort):
    arrays = [np.array(c, dtype=np.uint32) for c in chunks]
    if pre_sort:  # the unions: concatenations of sorted-unique runs
        arrays = [np.unique(a) for a in arrays]
    arr = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.uint32)
    out = unique_addresses(arr)
    assert out.dtype == np.uint32
    assert np.array_equal(out, np.unique(arr))


@given(interval_lists, interval_lists)
def test_intervalset_algebra_on_sample_points(a, b):
    sa, sb = IntervalSet(a), IntervalSet(b)
    probes = np.unique(
        np.array(
            [p for s, e in a + b for p in (s, max(s, e - 1), e % ADDRESS_SPACE_SIZE)]
            or [0],
            dtype=np.uint64,
        )
    )
    in_a = sa.contains(probes)
    in_b = sb.contains(probes)
    assert np.array_equal((sa | sb).contains(probes), in_a | in_b)
    assert np.array_equal((sa & sb).contains(probes), in_a & in_b)
    assert np.array_equal((sa - sb).contains(probes), in_a & ~in_b)
    assert np.array_equal(sa.complement().contains(probes), ~in_a)


@given(interval_lists)
def test_interval_sizes_consistent(a):
    s = IntervalSet(a)
    assert s.size() + s.complement().size() == ADDRESS_SPACE_SIZE


@given(interval_lists)
def test_cidr_decomposition_roundtrip(a):
    s = IntervalSet(a)
    assert IntervalSet.from_prefixes(s.to_prefixes()) == s


@given(
    st.integers(0, ADDRESS_SPACE_SIZE - 1),
    st.integers(0, 2**16),
)
def test_summarize_range_covers_exactly(start, length):
    end = min(start + length, ADDRESS_SPACE_SIZE)
    blocks = summarize_range(start, end)
    assert sum(b.size for b in blocks) == end - start
    cursor = start
    for b in sorted(blocks):
        assert b.base == cursor
        cursor = b.end
    # Maximality: no block's supernet fits inside the range.
    for b in blocks:
        if b.length > 0:
            sup = b.supernet()
            assert sup.base < start or sup.end > end


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 2**16 - 1), min_size=0, max_size=50, unique=True)
)
def test_vacancy_conserves_addresses(used):
    universe = IntervalSet([(0, 2**16)])
    arr = np.array(sorted(used), dtype=np.uint32)
    hist = vacant_block_histogram(arr, universe)
    assert vacant_address_totals(hist).sum() == 2**16 - len(used)
    # All vacant blocks fit inside the universe.
    assert hist[:16].sum() == 0
