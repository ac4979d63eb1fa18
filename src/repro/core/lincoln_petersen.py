"""Two-sample Lincoln-Petersen estimation (the paper's Section 3.2).

The L-P estimator is included as the pedagogical baseline the paper
uses to introduce capture-recapture, together with Chapman's
bias-corrected variant and the classical variance.  The paper does not
*use* L-P for its results (its independence and homogeneity assumptions
fail for the IPv4 sources); the ablation bench quantifies that failure
against the log-linear models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import ndtri

from repro.ipspace.ipset import IPSet


class CaptureRecaptureError(ValueError):
    """Raised when an estimator's inputs are degenerate (e.g. no recaptures)."""


@dataclass(frozen=True)
class TwoSampleEstimate:
    """Result of a two-sample estimator.

    ``population`` is the point estimate N-hat; ``ci_low``/``ci_high``
    bound a normal-approximation confidence interval (may equal the
    point estimate when the variance is undefined).
    """

    population: float
    variance: float
    ci_low: float
    ci_high: float
    first_sample: int
    second_sample: int
    recaptured: int

    @property
    def unseen(self) -> float:
        """Estimated individuals in neither sample."""
        union = (
            self.first_sample + self.second_sample - self.recaptured
        )
        return max(0.0, self.population - union)


def lincoln_petersen_estimate(
    first: int, second: int, recaptured: int, confidence: float = 0.95
) -> TwoSampleEstimate:
    """Classic L-P estimate ``N = M C / R`` with normal-theory CI.

    ``first`` is M (individuals in sample 1), ``second`` is C, and
    ``recaptured`` is R, the overlap.  Raises
    :class:`CaptureRecaptureError` when R is zero (N is unbounded).
    """
    _check_counts(first, second, recaptured)
    if recaptured == 0:
        raise CaptureRecaptureError("no recaptures: L-P estimate is unbounded")
    population = first * second / recaptured
    variance = (
        first
        * second
        * (first - recaptured)
        * (second - recaptured)
        / recaptured**3
    )
    return _with_interval(
        population, variance, first, second, recaptured, confidence
    )


def chapman_estimate(
    first: int, second: int, recaptured: int, confidence: float = 0.95
) -> TwoSampleEstimate:
    """Chapman's bias-corrected L-P variant (finite even when R = 0)."""
    _check_counts(first, second, recaptured)
    population = _chapman_population(first, second, recaptured)
    variance = (
        (first + 1)
        * (second + 1)
        * (first - recaptured)
        * (second - recaptured)
        / ((recaptured + 1) ** 2 * (recaptured + 2))
    )
    return _with_interval(
        population, variance, first, second, recaptured, confidence
    )


def _chapman_population(first: int, second: int, recaptured: int) -> float:
    """Chapman's point estimate ``(M + 1)(C + 1) / (R + 1) - 1``."""
    return (first + 1) * (second + 1) / (recaptured + 1) - 1


def lincoln_petersen_from_sets(
    sample1: IPSet, sample2: IPSet, confidence: float = 0.95
) -> TwoSampleEstimate:
    """L-P estimate straight from two address sets."""
    recaptured = sample1.overlap_count(sample2)
    return lincoln_petersen_estimate(
        len(sample1), len(sample2), recaptured, confidence
    )


def pairwise_chapman_matrix(
    datasets: Mapping[str, IPSet]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Symmetric matrix of pairwise Chapman population estimates.

    Entry ``(i, j)`` is the two-sample Chapman estimate computed from
    sources ``i`` and ``j`` alone; the diagonal is NaN.  Chapman's
    variant is used (not classic L-P) because it stays finite when a
    pair has zero overlap — exactly the degenerate geometry a broken
    source produces.  The matrix is the integrity layer's consensus
    structure: under the paper's assumptions every pair estimates the
    same population, so a source whose row systematically departs from
    the global level disagrees with the consensus overlap structure.
    """
    names = tuple(datasets)
    matrix = np.full((len(names), len(names)), np.nan, dtype=np.float64)
    sets = [datasets[name] for name in names]
    sizes = [len(s) for s in sets]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            recaptured = sets[i].overlap_count(sets[j])
            _check_counts(sizes[i], sizes[j], recaptured)
            matrix[i, j] = matrix[j, i] = _chapman_population(
                sizes[i], sizes[j], recaptured
            )
    return names, matrix


def _check_counts(first: int, second: int, recaptured: int) -> None:
    if first < 0 or second < 0 or recaptured < 0:
        raise CaptureRecaptureError("sample counts must be non-negative")
    if recaptured > min(first, second):
        raise CaptureRecaptureError(
            "recaptures cannot exceed either sample size"
        )


def _with_interval(
    population: float,
    variance: float,
    first: int,
    second: int,
    recaptured: int,
    confidence: float,
) -> TwoSampleEstimate:
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    union = first + second - recaptured
    z = ndtri(0.5 + confidence / 2)
    spread = z * np.sqrt(max(variance, 0.0))
    return TwoSampleEstimate(
        population=population,
        variance=variance,
        ci_low=max(float(union), population - spread),
        ci_high=population + spread,
        first_sample=first,
        second_sample=second,
        recaptured=recaptured,
    )
