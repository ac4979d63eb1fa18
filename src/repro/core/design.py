"""Log-linear model structure: terms, hierarchy, design matrices.

A log-linear model for ``t`` sources is determined by its set of
*terms*: non-empty subsets ``h`` of the sources whose parameter ``u_h``
is free (equation 1 of the paper).  The intercept ``u`` is always
included.  Models are *hierarchical*: whenever an interaction term is
present, all its non-empty subsets are too — the standard constraint
for interpretable log-linear models and the one Rcapture enforces.

Terms are represented as ``frozenset`` of source indices; a model's
terms as a frozenset of those.  The design matrix has one row per
capture history and one column per (intercept + term), with entry 1
when ``h ⊆ h(s)``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from repro.core import fitkernel

Term = frozenset
LoglinearTerms = frozenset  # a model: frozenset of Term


def main_effect_terms(num_sources: int) -> frozenset:
    """The independence model: one main-effect term per source."""
    return frozenset(frozenset([i]) for i in range(num_sources))


def pairwise_terms(num_sources: int) -> list[frozenset]:
    """All two-source interaction terms."""
    return [frozenset(pair) for pair in combinations(range(num_sources), 2)]


def interaction_terms(num_sources: int, order: int) -> list[frozenset]:
    """All interaction terms of exactly ``order`` sources."""
    if order < 1 or order > num_sources:
        raise ValueError(f"interaction order out of range: {order}")
    return [frozenset(combo) for combo in combinations(range(num_sources), order)]


def hierarchical_closure(terms: Iterable[frozenset]) -> frozenset:
    """Close a term set under non-empty subsets (hierarchy constraint)."""
    closed: set[frozenset] = set()
    for term in terms:
        term = frozenset(term)
        if not term:
            raise ValueError("empty term (the intercept is implicit)")
        for size in range(1, len(term) + 1):
            for sub in combinations(sorted(term), size):
                closed.add(frozenset(sub))
    return frozenset(closed)


def is_hierarchical(terms: Iterable[frozenset]) -> bool:
    """True if the term set equals its hierarchical closure."""
    terms = frozenset(frozenset(t) for t in terms)
    return terms == hierarchical_closure(terms)


def validate_terms(num_sources: int, terms: Iterable[frozenset]) -> frozenset:
    """Check term indices and hierarchy; returns the normalised frozenset."""
    normalised = frozenset(frozenset(t) for t in terms)
    for term in normalised:
        if not term:
            raise ValueError("empty term (the intercept is implicit)")
        if any(not 0 <= i < num_sources for i in term):
            raise ValueError(f"term {sorted(term)} references unknown source")
        if len(term) == num_sources:
            # Customary identifiability constraint: u_{12...t} = 0.
            raise ValueError(
                "the t-way interaction is fixed to zero and cannot be a term"
            )
    if not is_hierarchical(normalised):
        raise ValueError("terms are not hierarchical (missing subset terms)")
    return normalised


def term_key(term: frozenset) -> tuple[int, list[int]]:
    """Sort key of :func:`term_order`: size, then sorted members."""
    return len(term), sorted(term)


def term_order(terms: Iterable[frozenset]) -> list[frozenset]:
    """Deterministic ordering of terms: by size, then lexicographically."""
    return sorted(terms, key=term_key)


#: Memoised design matrices keyed on (t, normalised terms, unobserved
#: row).  The build is pure, and selection/profile scans request the
#: same few matrices hundreds of times per campaign.  Bounded: see
#: _DESIGN_CACHE_MAX.
_DESIGN_CACHE: dict[tuple, tuple[np.ndarray, tuple[frozenset, ...]]] = {}
_DESIGN_CACHE_MAX = 512


def design_matrix(
    num_sources: int, terms: Iterable[frozenset], include_unobserved: bool = False
) -> tuple[np.ndarray, list[frozenset]]:
    """Design matrix of the log-linear model.

    One row per capture history ``1 .. 2^t - 1`` (in bitmask order);
    column 0 is the intercept, the remaining columns follow
    :func:`term_order`.  With ``include_unobserved`` a first row for
    history 0 (intercept only) is prepended — used when profiling the
    likelihood over the unseen count.

    Returns ``(matrix, ordered_terms)``.  The matrix is memoised and
    returned read-only (``writeable=False``); copy before mutating.

    Already-normalised term sets (a frozenset of frozensets — what every
    internal caller passes) hit the cache before validation runs: a
    cached entry proves the same term set validated on its first build.
    """
    if isinstance(terms, frozenset):
        key = (num_sources, terms, include_unobserved)
        cached = _DESIGN_CACHE.get(key)
        if cached is not None:
            fitkernel.record(design_cache_hits=1)
            return cached[0], list(cached[1])
    normalised = validate_terms(num_sources, terms)
    key = (num_sources, normalised, include_unobserved)
    cached = _DESIGN_CACHE.get(key)
    if cached is not None:
        fitkernel.record(design_cache_hits=1)
        return cached[0], list(cached[1])
    ordered = term_order(normalised)
    histories = np.arange(2**num_sources, dtype=np.uint32)
    if not include_unobserved:
        histories = histories[1:]
    columns = [np.ones(len(histories))]
    for term in ordered:
        mask = np.ones(len(histories), dtype=bool)
        for source in term:
            mask &= (histories >> np.uint32(source)) & np.uint32(1) == 1
        columns.append(mask.astype(float))
    matrix = np.column_stack(columns)
    matrix.setflags(write=False)
    if len(_DESIGN_CACHE) >= _DESIGN_CACHE_MAX:
        _DESIGN_CACHE.clear()
    _DESIGN_CACHE[key] = (matrix, tuple(ordered))
    fitkernel.record(design_cache_misses=1)
    return matrix, ordered


def describe_terms(
    terms: Iterable[frozenset], source_names: tuple[str, ...] = ()
) -> str:
    """Human-readable rendering like ``"[1] [2] [1*2]"``."""

    def label(i: int) -> str:
        return source_names[i] if source_names else str(i + 1)

    parts = [
        "[" + "*".join(label(i) for i in sorted(term)) + "]"
        for term in term_order(terms)
    ]
    return " ".join(parts) if parts else "[intercept only]"
