"""Dataset preprocessing."""

from repro.filtering.preprocess import preprocess_dataset
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet
from repro.ipspace.addresses import parse_addr


class TestPreprocess:
    def test_removes_special_and_unrouted(self):
        routed = IntervalSet([(parse_addr("9.0.0.0"), parse_addr("9.1.0.0"))])
        raw = IPSet(["10.0.0.1",      # private
                     "224.0.0.5",     # multicast
                     "9.0.0.7",       # routed -> keep
                     "9.200.0.1"])    # public but unrouted
        report = preprocess_dataset(raw, routed)
        assert set(report.dataset) == {parse_addr("9.0.0.7")}
        assert report.special_removed == 2
        assert report.unrouted_removed == 1
        assert report.raw_count == 4
        assert report.kept == 1

    def test_empty_dataset(self):
        report = preprocess_dataset(IPSet.empty(), IntervalSet([(0, 100)]))
        assert report.kept == 0 and report.raw_count == 0

    def test_conservation(self):
        routed = IntervalSet([(2**24, 2**25)])
        raw = IPSet(range(2**24 - 10, 2**24 + 10))
        report = preprocess_dataset(raw, routed)
        assert (
            report.kept + report.special_removed + report.unrouted_removed
            == report.raw_count
        )

    def test_pipeline_datasets_are_routed_only(self, tiny_executor,
                                               tiny_internet, last_window):
        routed = tiny_internet.routing.window(
            last_window.start, last_window.end
        )
        for name, dataset in tiny_executor.datasets(last_window).items():
            assert routed.contains(dataset.addresses).all(), name
