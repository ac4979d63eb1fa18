"""The two-stage spoof-removal heuristic (Section 4.5)."""

import numpy as np
import pytest

from repro.filtering.spoof_filter import (
    SpoofFilter,
    binomial_threshold,
    detect_empty_blocks,
)
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import Prefix
from repro.simnet.density import LAST_BYTE_PMF


class TestBinomialThreshold:
    def test_zero_density(self):
        assert binomial_threshold(0.0) == 0

    def test_paper_magnitude(self):
        """S ~ 12.5 k per /8 -> p ~ 7.5e-4 -> m around 5-8."""
        m = binomial_threshold(12_500 / 2**24)
        assert 4 <= m <= 9

    def test_monotone_in_density(self):
        densities = [1e-5, 1e-4, 1e-3, 1e-2]
        thresholds = [binomial_threshold(d) for d in densities]
        assert thresholds == sorted(thresholds)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            binomial_threshold(1.5)


class TestDetectEmptyBlocks:
    def test_detects_planted_darknets(self, tiny_executor, tiny_internet,
                                      last_window):
        datasets = tiny_executor.datasets(last_window, spoof_filtering=False)
        refs = (
            datasets["WIKI"] | datasets["WEB"] | datasets["MLAB"]
            | datasets["GAME"]
        )
        candidates = [
            a.prefix for a in tiny_internet.registry
            if a.routed_from < last_window.end
        ]
        empty = detect_empty_blocks(
            datasets["SWIN"] | datasets["CALT"], refs, candidates
        )
        darknet_prefixes = {
            a.prefix for a in tiny_internet.darknet_allocations
        }
        assert darknet_prefixes <= set(empty)
        # No heavily used block is misclassified as empty.
        pop24 = tiny_internet.population.used_ipset(
            last_window.start, last_window.end
        )
        for prefix in empty:
            inside = (
                (pop24.addresses >= prefix.base)
                & (pop24.addresses < prefix.end)
            ).sum()
            assert inside / prefix.size < 0.01

    def test_small_candidates_skipped(self):
        suspect = IPSet(range(1000, 1050))
        refs = IPSet.empty()
        candidates = [Prefix(0, 24)]  # size 256 < min_size
        assert detect_empty_blocks(suspect, refs, candidates) == []


def synthetic_filter_setup(rng, n_legit=4000, spoof_density=8e-4):
    """A hand-built universe with known legit/spoof separation."""
    # Routed space: 4 /16 blocks, one of which is an empty darknet.
    blocks = [Prefix.parse("10.0.0.0/16"), Prefix.parse("20.0.0.0/16"),
              Prefix.parse("30.0.0.0/16"), Prefix.parse("40.0.0.0/16")]
    routed = IntervalSet.from_prefixes(blocks)
    darknet = blocks[3]
    # Legitimate addresses cluster in used /24s with biased last bytes.
    legit = []
    used24 = rng.choice(3 * 256, size=150, replace=False)
    for block24 in used24:
        block_idx, sub = divmod(int(block24), 256)
        base = blocks[block_idx].base + sub * 256
        count = int(rng.integers(8, 120))
        bytes_ = rng.choice(256, size=count, replace=False,
                            p=LAST_BYTE_PMF)
        legit.extend(base + b for b in bytes_)
    legit = np.array(sorted(set(legit)), dtype=np.uint32)[:n_legit]
    # Spoofs: uniform over the whole routed space.
    n_spoof = int(spoof_density * routed.size())
    offsets = rng.integers(0, routed.size(), n_spoof)
    starts = np.array([b.base for b in blocks], dtype=np.uint64)
    spoof = (starts[offsets // 2**16] + (offsets % 2**16)).astype(np.uint32)
    suspect = IPSet(np.concatenate([legit, spoof]))
    references = IPSet(legit[rng.random(len(legit)) < 0.4])
    return routed, darknet, IPSet(legit), spoof, suspect, references


class TestSpoofFilterEndToEnd:
    def test_removes_most_spoof_keeps_most_legit(self, rng):
        routed, darknet, legit, spoof, suspect, refs = synthetic_filter_setup(rng)
        filt = SpoofFilter(refs, routed, [darknet], seed=1)
        report = filt.apply(suspect)
        kept = report.filtered
        spoof_set = IPSet(spoof) - legit
        residual_spoof = kept.overlap_count(spoof_set)
        kept_legit = kept.overlap_count(legit)
        assert residual_spoof < 0.5 * len(spoof_set)
        assert kept_legit > 0.9 * len(legit)

    def test_density_estimate_close(self, rng):
        routed, darknet, legit, spoof, suspect, refs = synthetic_filter_setup(
            rng, spoof_density=8e-4
        )
        filt = SpoofFilter(refs, routed, [darknet], seed=1)
        assert filt.estimate_density(suspect) == pytest.approx(8e-4, rel=0.5)

    def test_darknet_emptied(self, rng):
        routed, darknet, legit, spoof, suspect, refs = synthetic_filter_setup(rng)
        report = SpoofFilter(refs, routed, [darknet], seed=1).apply(suspect)
        addrs = report.filtered.addresses
        inside = (addrs >= darknet.base) & (addrs < darknet.end)
        assert inside.sum() < 5

    def test_clean_dataset_mostly_untouched(self, rng):
        routed, darknet, legit, _, _, refs = synthetic_filter_setup(
            rng, spoof_density=0.0
        )
        report = SpoofFilter(refs, routed, [darknet], seed=1).apply(legit)
        assert report.spoof_density == 0.0
        assert report.threshold_m == 0
        assert report.kept == len(legit)

    def test_requires_empty_blocks(self, rng):
        routed, _, legit, _, _, refs = synthetic_filter_setup(rng)
        with pytest.raises(ValueError):
            SpoofFilter(refs, routed, [], seed=1)

    def test_report_accounting(self, rng):
        routed, darknet, legit, spoof, suspect, refs = synthetic_filter_setup(rng)
        report = SpoofFilter(refs, routed, [darknet], seed=1).apply(suspect)
        assert (
            report.kept + report.removed_stage1 + report.removed_stage2
            == len(suspect)
        )
        assert report.s_per_slash8 == pytest.approx(
            report.spoof_density * 2**24
        )


class TestPipelineIntegration:
    def test_filtering_reduces_netflow_24s(self, tiny_executor, last_window):
        raw = tiny_executor.datasets(last_window, spoof_filtering=False)
        filtered = tiny_executor.datasets(last_window, spoof_filtering=True)
        for name in ("SWIN", "CALT"):
            assert len(filtered[name].subnets24()) < len(raw[name].subnets24())

    def test_non_netflow_untouched(self, tiny_executor, last_window):
        raw = tiny_executor.datasets(last_window, spoof_filtering=False)
        filtered = tiny_executor.datasets(last_window, spoof_filtering=True)
        for name in ("WIKI", "WEB", "IPING"):
            assert raw[name] == filtered[name]
