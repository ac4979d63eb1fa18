"""Property-based tests for the capture-recapture core."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chao import chao_estimate
from repro.core.design import (
    design_matrix,
    hierarchical_closure,
    main_effect_terms,
)
from repro.core.glm import fit_poisson
from repro.core.histories import ContingencyTable, tabulate_histories
from repro.core.lincoln_petersen import chapman_estimate
from repro.core.loglinear import LoglinearModel
from repro.core.selection import adaptive_divisor
from repro.ipspace.ipset import IPSet


@st.composite
def contingency_tables(draw, max_sources=4, max_count=500):
    t = draw(st.integers(2, max_sources))
    counts = [0] + [
        draw(st.integers(0, max_count)) for _ in range(2**t - 1)
    ]
    # Every source must observe someone, and at least two cells must be
    # positive, or the model is degenerate by construction.
    for bit in range(t):
        counts[1 << bit] += 1
    return ContingencyTable(t, np.array(counts, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(contingency_tables())
def test_llm_estimate_is_finite_and_additive(table):
    est = LoglinearModel(
        table.num_sources, main_effect_terms(table.num_sources)
    ).fit(table).estimate()
    assert np.isfinite(est.population)
    assert est.unseen >= 0
    assert est.population == est.observed + est.unseen


@settings(max_examples=40, deadline=None)
@given(contingency_tables())
def test_chao_never_below_observed(table):
    est = chao_estimate(table)
    assert est.population >= table.num_observed


@settings(max_examples=40, deadline=None)
@given(contingency_tables())
def test_adaptive_divisor_below_min_positive(table):
    d = adaptive_divisor(table)
    floor = table.positive_minimum()
    assert 1 <= d <= 1000
    if floor > 1:
        assert d < floor or d == 1


@settings(max_examples=40, deadline=None)
@given(contingency_tables())
def test_capture_frequencies_conserve_mass(table):
    freqs = table.capture_frequencies
    assert freqs.sum() == table.num_observed
    assert freqs[0] == 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 300), st.integers(1, 300), st.integers(0, 100)
)
def test_chapman_bounds(extra_a, extra_b, overlap):
    first = extra_a + overlap
    second = extra_b + overlap
    est = chapman_estimate(first, second, overlap)
    union = first + second - overlap
    assert est.population >= union - 1e-9
    assert np.isfinite(est.variance)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.integers(0, 2**20), min_size=30, max_size=150, unique=True
    ),
    st.integers(0, 2**32 - 1),
)
def test_tabulation_invariant_under_source_content(universe, seed):
    """Tabulating any split of a population conserves the union."""
    rng = np.random.default_rng(seed)
    pop = np.array(sorted(universe), dtype=np.uint32)
    sources = {}
    covered = np.zeros(len(pop), dtype=bool)
    for i in range(3):
        mask = rng.random(len(pop)) < 0.5
        covered |= mask
        sources[f"s{i}"] = IPSet.from_sorted_unique(pop[mask])
    table = tabulate_histories(sources)
    assert table.num_observed == int(covered.sum())
    for i in range(3):
        assert table.source_total(i) == len(sources[f"s{i}"])


#: Runs a fit to its fixed point.  The default ``tol`` stops once the
#: deviance improves by less than 1e-9 of itself, so on a poorly fitting
#: model two starts may stop ~1e-7 apart; at this tolerance any
#: disagreement left could only come from the start.
FIXED_POINT = 1e-20


@st.composite
def nested_fit_problems(draw):
    """Cell counts strictly inside (0, limit) for ``t`` = 3-5 sources, a
    hierarchical model, a smaller model nested in it, and a limit just
    above the largest count, so that truncation binds."""
    t = draw(st.integers(3, 5))
    interactions = [
        frozenset(combo)
        for order in range(2, t)
        for combo in combinations(range(t), order)
    ]
    chosen = draw(
        st.lists(st.sampled_from(interactions), min_size=1, max_size=6)
    )
    keep = draw(st.integers(0, len(chosen) - 1))
    big = main_effect_terms(t) | hierarchical_closure(chosen)
    small = main_effect_terms(t) | hierarchical_closure(chosen[:keep])
    counts = np.array(
        draw(
            st.lists(
                st.integers(1, 5000), min_size=2**t - 1, max_size=2**t - 1
            )
        ),
        dtype=np.float64,
    )
    limit = float(counts.max() + draw(st.integers(1, 3)))
    return t, big, small, counts, limit, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(nested_fit_problems())
def test_fit_optimum_does_not_depend_on_start(problem):
    """Plain and truncated fits are concave: a cold start, a start at the
    optimum, the optimum plus noise, and a nested model's coefficients
    with the new terms at 0 all reach one optimum."""
    t, big, small, counts, limit, seed = problem
    X, ordered = design_matrix(t, big)
    X_small, ordered_small = design_matrix(t, small)
    rng = np.random.default_rng(seed)
    for bound in (None, limit):
        cold = fit_poisson(X, counts, tol=FIXED_POINT, limit=bound)
        nested = fit_poisson(X_small, counts, tol=FIXED_POINT, limit=bound)
        shared = dict(zip(ordered_small, nested.coef[1:]))
        bridged = np.array(
            [nested.coef[0]] + [shared.get(term, 0.0) for term in ordered]
        )
        seeds = (
            cold.coef,
            cold.coef + rng.normal(scale=0.3, size=cold.coef.size),
            bridged,
        )
        assert cold.converged
        for beta0 in seeds:
            fit = fit_poisson(
                X, counts, tol=FIXED_POINT, beta0=beta0, limit=bound
            )
            assert fit.converged
            np.testing.assert_allclose(
                fit.coef, cold.coef, rtol=1e-8, atol=1e-10
            )
            # The unseen estimate exp(u): the all-zero cell's rate.
            np.testing.assert_allclose(
                np.exp(fit.intercept), np.exp(cold.intercept), rtol=1e-8
            )
