"""Two-stage spoofed-address removal (the paper's Section 4.5).

NetFlow datasets contain uniformly distributed spoofed source
addresses (random-source DDoS floods, nmap decoy scans).  The filter
reimplements the paper's heuristic exactly:

1. **Calibration** — the uniform spoof density is estimated from
   'empty' blocks: routed space essentially unused by every spoof-free
   source (the paper's 53/8-style prefixes), where any suspect-dataset
   presence must be spoofing.

2. **Stage 1 (whole /24s)** — the number of spoofed addresses in a /24
   is Binomial(256, p); the threshold ``m`` is the smallest count a
   genuinely used /24 would exceed with overwhelming probability
   (``P(X > m) < 1e-8``).  /24s below the threshold with no overlap
   with the spoof-free references are removed outright.

3. **Stage 2 (addresses within kept /24s)** — per /8 group, the
   surviving expected spoof mass yields ``P(V)``, and Bayes' rule over
   the final byte (used addresses have strongly non-uniform last
   octets, spoofed ones are uniform) yields ``P(V | B)``; each address
   is kept with that probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import bdtrc

from repro.ipspace.addresses import last_octet, subnet24_of, unique_addresses
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import Prefix

#: The paper's stage-1 tail probability.
DEFAULT_TAIL_PROB = 1e-8


def binomial_threshold(
    density: float, block_size: int = 256, tail_prob: float = DEFAULT_TAIL_PROB
) -> int:
    """Smallest ``m`` with ``P(Binomial(block_size, density) > m) < tail``.

    ``density`` is the per-address spoof probability ``p = S / 2^24``.
    """
    if not 0 <= density <= 1:
        raise ValueError(f"density must be a probability, got {density}")
    if density == 0:
        return 0
    # bdtrc(m) = P(X > m) falls with m: take the first m below the tail.
    below = bdtrc(np.arange(block_size + 1), block_size, density) < tail_prob
    return int(np.argmax(below)) if below.any() else block_size


def detect_empty_blocks(
    suspect: IPSet,
    references: IPSet,
    candidates: list[Prefix],
    min_size: int = 2048,
    max_reference_density: float = 5e-5,
    min_suspect_count: int = 3,
) -> list[Prefix]:
    """Find routed blocks that only the suspect dataset populates.

    These play the role of the paper's 'empty' /8s: blocks whose
    reference (spoof-free) density is negligible while the suspect
    dataset shows uniform presence — the calibration anchor for the
    spoof density.
    """
    empty: list[Prefix] = []
    ref_addrs = references.addresses
    sus_addrs = suspect.addresses
    for prefix in candidates:
        if prefix.size < min_size:
            continue
        ref_count = int(
            np.searchsorted(ref_addrs, prefix.end)
            - np.searchsorted(ref_addrs, prefix.base)
        )
        sus_count = int(
            np.searchsorted(sus_addrs, prefix.end)
            - np.searchsorted(sus_addrs, prefix.base)
        )
        if ref_count / prefix.size <= max_reference_density and (
            sus_count >= min_suspect_count
        ):
            empty.append(prefix)
    return empty


@dataclass
class SpoofFilterReport:
    """Everything the filter did, for diagnostics and Fig 2."""

    filtered: IPSet
    spoof_density: float
    s_per_slash8: float
    threshold_m: int
    empty_blocks: list[Prefix] = field(default_factory=list)
    removed_subnets: int = 0
    removed_stage1: int = 0
    removed_stage2: int = 0

    @property
    def kept(self) -> int:
        return len(self.filtered)


class SpoofFilter:
    """The paper's spoof-removal heuristic, bound to reference data."""

    def __init__(
        self,
        references: IPSet,
        routed: IntervalSet,
        empty_blocks: list[Prefix],
        tail_prob: float = DEFAULT_TAIL_PROB,
        seed: int = 0,
    ) -> None:
        """``references`` is the union of spoof-free datasets (the
        paper used WIKI, WEB, MLAB and GAME); ``empty_blocks`` the
        calibration prefixes (from :func:`detect_empty_blocks` or a
        priori knowledge); ``routed`` the window's routed space."""
        if not empty_blocks:
            raise ValueError("need at least one empty calibration block")
        self.references = references
        self.routed = routed
        self.empty_blocks = list(empty_blocks)
        self.tail_prob = tail_prob
        self._rng = np.random.default_rng(seed)
        self._byte_pmf = self._reference_byte_pmf(references)

    @staticmethod
    def _reference_byte_pmf(references: IPSet) -> np.ndarray:
        """Smoothed P(B | V) from the spoof-free references."""
        hist = np.bincount(last_octet(references.addresses), minlength=256)
        pmf = hist.astype(np.float64) + 1.0  # Laplace smoothing
        return pmf / pmf.sum()

    def estimate_density(self, suspect: IPSet) -> float:
        """Per-address spoof probability from the empty blocks."""
        total_size = 0
        total_count = 0
        addrs = suspect.addresses
        for prefix in self.empty_blocks:
            total_size += prefix.size
            total_count += int(
                np.searchsorted(addrs, prefix.end)
                - np.searchsorted(addrs, prefix.base)
            )
        if total_size == 0:
            return 0.0
        return total_count / total_size

    def apply(self, suspect: IPSet) -> SpoofFilterReport:
        """Run both stages and return the cleaned dataset."""
        density = self.estimate_density(suspect)
        m = binomial_threshold(density, tail_prob=self.tail_prob)
        addrs = suspect.addresses

        # --- Stage 1: drop whole suspicious /24s -------------------------
        sub24 = subnet24_of(addrs)
        unique24, inverse, counts = np.unique(
            sub24, return_inverse=True, return_counts=True
        )
        corroborated24 = np.zeros(len(unique24), dtype=bool)
        ref_sub24 = unique_addresses(subnet24_of(self.references.addresses))
        idx = np.searchsorted(ref_sub24, unique24)
        idx_ok = np.clip(idx, 0, max(len(ref_sub24) - 1, 0))
        if len(ref_sub24):
            # A /24 is corroborated if any reference address shares an
            # actual IP with the suspect set inside it; overlap at the
            # address level is checked below, subnet hit is the gate.
            subnet_hit = ref_sub24[idx_ok] == unique24
            overlap = self.references.contains(addrs)
            has_overlap = np.zeros(len(unique24), dtype=bool)
            np.logical_or.at(has_overlap, inverse, overlap)
            corroborated24 = subnet_hit & has_overlap
        drop24 = (counts < m) & ~corroborated24
        keep_mask = ~drop24[inverse]
        removed_stage1 = int(np.count_nonzero(~keep_mask))
        kept_addrs = addrs[keep_mask]

        # --- Stage 2: Bayes last-byte thinning inside kept space ---------
        removed_stage2 = 0
        if density > 0 and kept_addrs.size:
            keep2 = self._stage_two_mask(kept_addrs, density, addrs, keep_mask)
            removed_stage2 = int(np.count_nonzero(~keep2))
            kept_addrs = kept_addrs[keep2]

        return SpoofFilterReport(
            filtered=IPSet.from_sorted_unique(kept_addrs),
            spoof_density=density,
            s_per_slash8=density * 2**24,
            threshold_m=m,
            empty_blocks=list(self.empty_blocks),
            removed_subnets=int(np.count_nonzero(drop24)),
            removed_stage1=removed_stage1,
            removed_stage2=removed_stage2,
        )

    def _stage_two_mask(
        self,
        kept_addrs: np.ndarray,
        density: float,
        all_addrs: np.ndarray,
        stage1_keep: np.ndarray,
    ) -> np.ndarray:
        """Per-address keep mask for stage 2 (Bayes over the last byte)."""
        groups_kept = (kept_addrs >> np.uint32(24)).astype(np.int64)
        groups_all = (all_addrs >> np.uint32(24)).astype(np.int64)
        keep_prob = np.ones(kept_addrs.shape, dtype=np.float64)
        byte_vals = last_octet(kept_addrs).astype(np.int64)
        p_b_given_v = self._byte_pmf
        for group in np.unique(groups_kept):
            in_group = groups_kept == group
            t_i = int(np.count_nonzero(in_group))
            # Expected spoofs that landed in this /8's routed space,
            # minus those already removed with their /24s in stage 1.
            routed_size = self._routed_size_in_group(int(group))
            expected = density * routed_size
            removed_here = int(
                np.count_nonzero((groups_all == group) & ~stage1_keep)
            )
            surviving = max(0.0, expected - removed_here)
            if t_i == 0 or surviving <= 0:
                continue
            p_valid = max(0.0, min(1.0, (t_i - surviving) / t_i))
            b = byte_vals[in_group]
            numer = p_valid * p_b_given_v[b]
            denom = numer + (1.0 - p_valid) / 256.0
            keep_prob[in_group] = np.where(denom > 0, numer / denom, 0.0)
        return self._rng.random(len(kept_addrs)) < keep_prob

    def _routed_size_in_group(self, group: int) -> int:
        """Routed addresses inside /8 number ``group``."""
        base = group << 24
        block = IntervalSet([(base, base + 2**24)])
        return self.routed.intersection(block).size()
