"""Unused-space prediction (the paper's Section 7).

CR says how many addresses are used but unobserved; this model says
*where* they sit among the vacant prefixes.  Merging data sources one
at a time reveals how newly discovered addresses historically fell
into vacant blocks of each size; the occupancy ratios ``f_i`` of
equation (4) summarise that, and replaying the CR-predicted unseen
addresses through the ``x' = x + A n`` dynamics yields the expected
post-ghost vacancy histogram (Figure 12) and the number of still-free
prefixes per length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.ipspace.blocks import (
    NUM_LEVELS,
    allocation_matrix,
    vacant_address_totals,
    vacant_block_histogram,
)
from repro.ipspace.intervals import IntervalSet
from repro.ipspace.ipset import IPSet

#: Datasets the paper merges one at a time to estimate the f_i.
DEFAULT_DELTAS = ("IPING", "GAME", "WEB", "WIKI")
#: Datasets excluded from Section 7 (residual spoof noise).
EXCLUDED = ("SWIN", "CALT")


def _full_matrix() -> np.ndarray:
    """A over all 33 levels (0..32)."""
    return allocation_matrix(0, 32)


def observed_allocation_vector(
    before: np.ndarray, after: np.ndarray
) -> np.ndarray:
    """``n = A^{-1} (x_after - x_before)`` — equation (2) inverted."""
    before = np.asarray(before, dtype=np.float64)
    after = np.asarray(after, dtype=np.float64)
    if before.shape != (NUM_LEVELS,) or after.shape != (NUM_LEVELS,):
        raise ValueError(f"expected {NUM_LEVELS}-level vacancy vectors")
    return np.linalg.solve(_full_matrix(), after - before)


def occupancy_ratios(
    vacancy_before: np.ndarray, allocations: np.ndarray
) -> np.ndarray:
    """The f_i of equation (4), normalised so f_32 = 1.

    ``f_i`` is proportional to ``N_i / (x_i + sum_{j<i} N_j)``: the
    rate at which addresses land in vacant /i blocks relative to how
    many /i blocks were available while the batch arrived (the
    denominator grows as allocations into larger blocks spawn new
    vacant /i blocks).
    """
    x = np.asarray(vacancy_before, dtype=np.float64)
    n = np.clip(np.asarray(allocations, dtype=np.float64), 0.0, None)
    created = np.concatenate([[0.0], np.cumsum(n)[:-1]])
    denom = x + created
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(denom > 0, n / denom, 0.0)
    if f[32] > 0:
        f = f / f[32]
    return f


def estimate_occupancy_ratios(
    datasets: Mapping[str, IPSet],
    universe: IntervalSet,
    deltas: Sequence[str] = DEFAULT_DELTAS,
    excluded: Sequence[str] = EXCLUDED,
) -> np.ndarray:
    """Average f_i over several held-out merge experiments.

    For each dataset in ``deltas``, S is the union of all the others
    (except the NetFlow sources), and the change in the vacancy
    histogram when the delta is merged yields one f estimate; the
    estimates are averaged where defined, reducing the noise the paper
    notes for short prefixes.
    """
    usable = {
        name: d for name, d in datasets.items() if name not in excluded
    }
    estimates = []
    for delta_name in deltas:
        if delta_name not in usable:
            continue
        delta = usable[delta_name]
        rest = [d for name, d in usable.items() if name != delta_name]
        if not rest:
            continue
        base = rest[0].union(*rest[1:])
        merged = base.union(delta)
        x_before = vacant_block_histogram(base.addresses, universe)
        x_after = vacant_block_histogram(merged.addresses, universe)
        n = observed_allocation_vector(x_before, x_after)
        estimates.append(occupancy_ratios(x_before, n))
    if not estimates:
        raise ValueError("no usable delta datasets")
    stacked = np.vstack(estimates)
    counts = np.count_nonzero(stacked > 0, axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.where(
            counts > 0, stacked.sum(axis=0) / np.maximum(counts, 1), 0.0
        )
    if mean[32] > 0:
        mean = mean / mean[32]
    return mean


def predict_allocation(
    vacancy: np.ndarray,
    ratios: np.ndarray,
    unseen: float,
    num_batches: int = 400,
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute ``unseen`` addresses over vacant blocks.

    Allocation proceeds in batches: each batch splits proportionally to
    ``f_i * x_i`` over the current vacancy ``x``, then updates ``x``
    via the A-matrix dynamics (so later batches see the smaller blocks
    earlier batches created).  Returns ``(allocations_per_level,
    final_vacancy)``.
    """
    x = np.asarray(vacancy, dtype=np.float64).copy()
    f = np.asarray(ratios, dtype=np.float64)
    if x.shape != (NUM_LEVELS,) or f.shape != (NUM_LEVELS,):
        raise ValueError(f"expected {NUM_LEVELS}-level vectors")
    if unseen < 0:
        raise ValueError("unseen count must be non-negative")
    total_alloc = np.zeros(NUM_LEVELS)
    remaining = float(unseen)
    batch = max(unseen / num_batches, 1.0)
    A = _full_matrix()
    while remaining > 1e-9:
        step = min(batch, remaining)
        weights = np.clip(f * np.clip(x, 0.0, None), 0.0, None)
        total_weight = weights.sum()
        if total_weight <= 0:
            break
        alloc = step * weights / total_weight
        x = x + A @ alloc
        total_alloc += alloc
        remaining -= step
    return total_alloc, x


@dataclass(frozen=True)
class UnusedSpaceModel:
    """Bundled Section 7 result for one window."""

    vacancy_observed: np.ndarray
    vacancy_estimated: np.ndarray
    allocations: np.ndarray
    ratios: np.ndarray
    unseen: float

    @property
    def observed_unused_addresses(self) -> np.ndarray:
        """Addresses in observed vacant blocks, per length (Fig 12)."""
        return vacant_address_totals(self.vacancy_observed)

    @property
    def estimated_unused_addresses(self) -> np.ndarray:
        """Addresses in post-ghost vacant blocks, per length (Fig 12)."""
        return vacant_address_totals(np.clip(self.vacancy_estimated, 0.0, None))

    def new_subnet24_equivalent(self) -> float:
        """Unseen /8-to-/24 blocks expressed as /24 counts.

        Each predicted allocation into a vacant /i with i <= 24 turns
        exactly one previously vacant /24 into a used one; the paper
        compares this to the independent /24-level LLM estimate
        (0.3 M vs 0.26-0.36 M) as a mutual-validation check.
        """
        return float(self.allocations[: 24 + 1].sum())


def build_unused_space_model(
    datasets: Mapping[str, IPSet],
    universe: IntervalSet,
    unseen: float,
    deltas: Sequence[str] = DEFAULT_DELTAS,
    excluded: Sequence[str] = EXCLUDED,
) -> UnusedSpaceModel:
    """End-to-end Section 7: ratios, prediction and Fig 12 inputs."""
    usable = [d for name, d in datasets.items() if name not in excluded]
    observed = usable[0].union(*usable[1:])
    x0 = vacant_block_histogram(observed.addresses, universe).astype(np.float64)
    ratios = estimate_occupancy_ratios(datasets, universe, deltas, excluded)
    allocations, x_final = predict_allocation(x0, ratios, unseen)
    return UnusedSpaceModel(
        vacancy_observed=x0,
        vacancy_estimated=x_final,
        allocations=allocations,
        ratios=ratios,
        unseen=unseen,
    )
