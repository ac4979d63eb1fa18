"""End-to-end paper-shape integration tests.

These assert the headline qualitative results of the paper hold on the
simulator — the bar the full benchmark suite measures in detail.
"""

from repro.analysis.windows import TimeWindow
from repro.core.profile_ci import profile_likelihood_interval


class TestHeadlineNumbers:
    def test_paper_utilisation_shape(self, tiny_executor, last_window_result,
                                     tiny_internet):
        """Paper: ~45 % of routed addresses and ~60 % of routed /24s
        estimated used at end-June 2014."""
        r = last_window_result
        addr_util = r.estimated_addresses / r.routed_addresses
        sub_util = r.estimated_subnets / r.routed_subnets
        assert 0.25 < addr_util < 0.60
        assert 0.45 < sub_util < 0.75

    def test_ping_undercounts_badly(self, last_window_result):
        """Paper: pinging alone misses more than half the used space."""
        r = last_window_result
        assert r.ping_addresses < 0.55 * r.truth_addresses

    def test_correction_factor_exceeds_heidemann(self, last_window_result):
        """Paper: est/ping = 2.6-2.7 > the 1.86 factor of [3]."""
        r = last_window_result
        assert r.estimated_addresses / r.ping_addresses > 1.86

    def test_estimate_closer_than_observed_both_levels(
        self, last_window_result
    ):
        r = last_window_result
        assert abs(r.estimated_addresses - r.truth_addresses) < abs(
            r.observed_addresses - r.truth_addresses
        )
        assert abs(r.estimated_subnets - r.truth_subnets) <= abs(
            r.observed_subnets - r.truth_subnets
        )

    def test_growth_direction(self, tiny_executor):
        first = tiny_executor.window_result(TimeWindow(2011.0, 2012.0))
        last = tiny_executor.window_result(TimeWindow(2013.5, 2014.5))
        assert last.estimated_addresses > 1.15 * first.estimated_addresses
        assert last.estimated_subnets > first.estimated_subnets


class TestEstimateRanges:
    def test_window_range_is_narrow(self, tiny_executor, last_window,
                                    last_window_result):
        """The paper: the Fig 4/5 estimate ranges are within a few
        percent of the point estimates (±1 % for /24s, ±3 % for
        addresses at full scale; wider at simulation scale)."""
        interval = profile_likelihood_interval(
            tiny_executor.run("tabulate", last_window, level="addresses"),
            tiny_executor.run("fit", last_window, level="addresses").fit.terms,
            alpha=1e-7,
        )
        point = last_window_result.estimated_addresses
        assert interval.population_low <= point <= interval.population_high
        width = interval.population_high - interval.population_low
        assert width < 0.15 * point


class TestGroundTruthNetworks:
    def test_cr_beats_observation_on_networks(self, tiny_executor,
                                              tiny_internet, last_window):
        """Table 4's pattern: per-network CR estimates land closer to
        the truth than raw observation for most networks."""
        from repro.core.estimator import CaptureRecapture, EstimatorOptions
        from repro.ipspace.intervals import IntervalSet
        from repro.ipspace.ipset import IPSet

        datasets = tiny_executor.datasets(last_window)
        wins = 0
        networks = tiny_internet.ground_truth_networks()
        for network in networks:
            prefix = network.allocation.prefix
            block = IntervalSet([(prefix.base, prefix.end)])
            local = {
                name: d.restrict(block)
                for name, d in datasets.items()
            }
            local = {n: d for n, d in local.items() if len(d) > 0}
            if len(local) < 3:
                continue
            observed = len(IPSet.empty().union(*local.values()))
            est = CaptureRecapture(
                local,
                EstimatorOptions(limit=float(prefix.size), divisor=1),
            ).estimate()
            truth = tiny_internet.population.peak_simultaneous_usage(
                network.allocation, last_window.midpoint
            )
            if abs(est.population - truth) < abs(observed - truth):
                wins += 1
        assert wins >= len(networks) - 2
