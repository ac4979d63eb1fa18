"""The standard nine-source suite (Table 2 shape)."""

from repro.sources.catalog import SOURCE_NAMES, build_standard_sources


class TestCatalog:
    def test_all_nine_sources(self, tiny_sources):
        assert tuple(tiny_sources) == SOURCE_NAMES

    def test_availability_windows(self, tiny_sources):
        assert tiny_sources["SPAM"].available_from > 2012.3
        assert tiny_sources["CALT"].available_from > 2013.3
        assert tiny_sources["TPING"].available_from > 2012.0
        for name in ("WIKI", "MLAB", "GAME", "SWIN"):
            assert tiny_sources[name].available_from == 2011.0

    def test_relative_sizes_match_table2(self, tiny_executor, last_window):
        """IPING largest, CALT > SWIN > WEB > the small log sources."""
        datasets = tiny_executor.datasets(last_window)
        sizes = {name: len(d) for name, d in datasets.items()}
        # IPING and CALT are the two giants (411 M and 357 M in the
        # paper's Table 2); sampling noise can swap them at tiny scale.
        top_two = sorted(sizes, key=sizes.get)[-2:]
        assert set(top_two) == {"IPING", "CALT"}
        assert sizes["CALT"] > sizes["SWIN"]
        assert sizes["WEB"] > sizes["MLAB"]
        assert sizes["WEB"] > sizes["WIKI"]
        assert sizes["WIKI"] == min(sizes.values())

    def test_tping_adds_icmp_silent_hosts(self, tiny_executor, last_window):
        """TCP probing sees addresses ICMP misses (the paper: +7 %)."""
        datasets = tiny_executor.datasets(last_window)
        tcp_only = datasets["TPING"] - datasets["IPING"]
        assert len(tcp_only) > 0.02 * len(datasets["IPING"])

    def test_blocked_network_absent_from_pings(self, tiny_internet,
                                               tiny_executor, last_window):
        network = tiny_internet.ground_truth_networks()[-1]
        assert network.blocks_pings
        prefix = network.allocation.prefix
        datasets = tiny_executor.datasets(last_window)
        for name in ("IPING", "TPING"):
            addrs = datasets[name].addresses
            inside = (addrs >= prefix.base) & (addrs < prefix.end)
            assert not inside.any()

    def test_deterministic_given_seed(self, tiny_internet):
        a = build_standard_sources(tiny_internet, seed=5)
        b = build_standard_sources(tiny_internet, seed=5)
        assert a["WEB"].collect(2013.0, 2014.0) == b["WEB"].collect(
            2013.0, 2014.0
        )
