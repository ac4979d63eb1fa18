"""IPSet behaviour."""

import numpy as np
import pytest

from repro.ipspace.addresses import parse_addr
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet


class TestConstruction:
    def test_from_strings(self):
        s = IPSet(["1.2.3.4", "1.2.3.4", "0.0.0.1"])
        assert len(s) == 2
        assert list(s) == [1, parse_addr("1.2.3.4")]

    def test_from_ints_sorted_deduped(self):
        s = IPSet([5, 3, 5, 1])
        assert list(s.addresses) == [1, 3, 5]

    def test_empty(self):
        assert len(IPSet.empty()) == 0 and not IPSet.empty()

    def test_from_sorted_unique_fast_path(self):
        arr = np.array([1, 2, 3], dtype=np.uint32)
        s = IPSet.from_sorted_unique(arr)
        s.validate()
        assert len(s) == 3

    def test_validate_catches_violation(self):
        s = IPSet.from_sorted_unique(np.array([3, 1], dtype=np.uint32))
        with pytest.raises(AssertionError):
            s.validate()

    def test_equality_and_hash(self):
        assert IPSet([1, 2]) == IPSet([2, 1])
        assert hash(IPSet([1, 2])) == hash(IPSet([2, 1]))


class TestMembership:
    def test_contains_vectorised(self):
        s = IPSet([10, 20, 30])
        assert list(s.contains(np.array([10, 15, 30, 31]))) == [
            True,
            False,
            True,
            False,
        ]

    def test_contains_scalar(self):
        s = IPSet([10])
        assert 10 in s and 11 not in s

    def test_empty_contains_nothing(self):
        assert not IPSet.empty().contains(np.array([1])).any()

    def test_out_of_range_probes_never_members(self):
        # A probe outside [0, 2**32 - 1] must not wrap onto an address.
        s = IPSet([5, 10, 0xFFFFFFFF])
        probes = [5, 2**32 + 5, -(2**32) + 5, -1, 10, 2**33 + 10, 2**64 + 5]
        assert list(s.contains(probes)) == [
            True, False, False, False, True, False, False,
        ]
        assert list(s.contains(np.array(probes[:6]))) == [
            True, False, False, False, True, False,
        ]
        assert 2**32 + 5 not in s
        assert -(2**32) + 5 not in s
        assert -1 not in s
        assert 0xFFFFFFFF in s


class TestAlgebra:
    def test_union_matches_python_sets(self):
        a, b = IPSet([1, 2, 3]), IPSet([3, 4])
        assert set(a | b) == {1, 2, 3, 4}

    def test_multiway_union(self):
        a = IPSet([1]).union(IPSet([2]), IPSet([3]))
        assert set(a) == {1, 2, 3}

    def test_intersection(self):
        assert set(IPSet([1, 2, 3]) & IPSet([2, 3, 4])) == {2, 3}

    def test_difference(self):
        assert set(IPSet([1, 2, 3]) - IPSet([2])) == {1, 3}

    def test_overlap_count(self):
        a, b = IPSet(range(100)), IPSet(range(50, 150))
        assert a.overlap_count(b) == 50
        assert b.overlap_count(a) == 50

    def test_overlap_count_with_empty(self):
        assert IPSet([1, 2]).overlap_count(IPSet.empty()) == 0


class TestRestriction:
    def test_restrict(self):
        s = IPSet([5, 15, 25])
        assert set(s.restrict(IntervalSet([(10, 20)]))) == {15}

    def test_exclude(self):
        s = IPSet([5, 15, 25])
        assert set(s.exclude(IntervalSet([(10, 20)]))) == {5, 25}

    def test_restrict_empty_set(self):
        assert len(IPSet.empty().restrict(IntervalSet([(0, 10)]))) == 0

    def test_subnets24(self):
        s = IPSet(["10.0.0.1", "10.0.0.99", "10.0.1.1"])
        assert set(s.subnets24()) == {
            parse_addr("10.0.0.0"),
            parse_addr("10.0.1.0"),
        }

    def test_filter_mask(self):
        s = IPSet([1, 2, 3])
        kept = s.filter_mask(np.array([True, False, True]))
        assert set(kept) == {1, 3}

    def test_filter_mask_shape_check(self):
        with pytest.raises(ValueError):
            IPSet([1, 2]).filter_mask(np.array([True]))

    def test_sample(self, rng):
        s = IPSet(range(1000))
        sub = s.sample(100, rng)
        assert len(sub) == 100
        assert set(sub) <= set(range(1000))

    def test_sample_larger_than_set_returns_all(self, rng):
        s = IPSet([1, 2, 3])
        assert s.sample(10, rng) == s
