"""Routed-space model."""

import numpy as np
import pytest

from repro.registry.allocations import generate_registry
from repro.registry.routing import RoutedSpace


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(11)
    registry = generate_registry(rng, scale=2.0**-12)
    return registry, RoutedSpace(registry, rng)


class TestRoutedSpace:
    def test_routed_subset_of_allocated(self, setup):
        registry, routing = setup
        routed = routing.window(2013.5, 2014.5)
        allocated = registry.allocated_space()
        assert (routed - allocated).size() == 0

    def test_routed_share_plausible(self, setup):
        registry, routing = setup
        share = routing.size(2013.5, 2014.5) / registry.allocated_space().size()
        assert 0.6 < share < 0.95  # paper: ~80 % of allocated is routed

    def test_routed_grows_over_time(self, setup):
        _, routing = setup
        early = routing.size(2011.0, 2012.0)
        late = routing.size(2013.5, 2014.5)
        assert late > early

    def test_window_caching(self, setup):
        _, routing = setup
        assert routing.window(2012.0, 2013.0) is routing.window(2012.0, 2013.0)

    def test_darknets_are_routed(self, setup):
        registry, routing = setup
        routed = routing.window(2013.5, 2014.5)
        for alloc in registry.allocations:
            if alloc.darknet:
                assert routed.contains_interval(
                    alloc.prefix.base, alloc.prefix.end
                )

    def test_mask_matches_window(self, setup):
        registry, routing = setup
        mask = routing.routed_allocation_mask(2013.0, 2014.0)
        window = routing.window(2013.0, 2014.0)
        for alloc, flag in zip(registry.allocations, mask):
            inside = window.contains_interval(alloc.prefix.base, alloc.prefix.end)
            assert inside == bool(flag)

    def test_bogons_outside_allocated(self, setup):
        registry, routing = setup
        allocated = registry.allocated_space()
        for bogon in routing.bogon_prefixes:
            assert not allocated.contains_interval(bogon.base, bogon.end)

    def test_routing_table_longest_match(self, setup):
        registry, routing = setup
        table = routing.routing_table(2013.5, 2014.5)
        mask = routing.routed_allocation_mask(2013.5, 2014.5)
        routed_allocs = [
            a for a, f in zip(registry.allocations, mask) if f
        ]
        assert len(table) == len(routed_allocs)
        sample = routed_allocs[0]
        match = table.longest_match(sample.prefix.base)
        assert match is not None and match[1] == sample.index

    def test_subnet24_count_consistent(self, setup):
        _, routing = setup
        window = routing.window(2013.5, 2014.5)
        assert routing.subnet24_count(2013.5, 2014.5) == window.subnet24_count()


class TestStratumSizes:
    @pytest.mark.parametrize(
        "kind", ["rir", "country", "prefix", "age", "industry"]
    )
    def test_address_sizes_sum_to_routed_size(self, setup, kind):
        # Allocations do not overlap, so the strata partition the
        # routed space.
        _, routing = setup
        for start, end in [(2011.0, 2012.0), (2013.5, 2014.5)]:
            sizes = routing.stratum_sizes(start, end, kind)
            assert sum(sizes.values()) == routing.size(start, end)

    def test_subnet_sizes_count_whole_blocks(self, setup):
        _, routing = setup
        sizes = routing.stratum_sizes(2013.5, 2014.5, "rir", subnets=True)
        assert sum(sizes.values()) == routing.subnet24_count(2013.5, 2014.5)
