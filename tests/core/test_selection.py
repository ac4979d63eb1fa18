"""Model selection: ICs, divisor heuristics, stepwise search."""

from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import fitkernel
from repro.core.design import main_effect_terms, term_key, term_order
from repro.core.glm import fit_poisson_batch
from repro.core.histories import ContingencyTable, tabulate_histories
from repro.core.loglinear import LoglinearModel
from repro.core.selection import (
    IC_MARGIN,
    CandidateScore,
    _candidate_terms,
    _canonical_coef,
    _next_candidates,
    _resolve_scaled,
    _term_mask,
    adaptive_divisor,
    information_criterion,
    resolve_divisor,
    select_model,
    select_models_batched,
)
from repro.engine.stages import FIT_LEVELS
from tests.conftest import make_heterogeneous_sources, make_independent_sources

F = frozenset


class TestInformationCriterion:
    def test_aic(self):
        assert information_criterion(-100.0, 5, 1000, "aic") == 210.0

    def test_bic(self):
        expected = np.log(1000) * 5 + 200.0
        assert information_criterion(-100.0, 5, 1000, "bic") == pytest.approx(
            expected
        )

    def test_bic_penalises_more_for_big_samples(self):
        aic = information_criterion(-100.0, 5, 10**6, "aic")
        bic = information_criterion(-100.0, 5, 10**6, "bic")
        assert bic > aic

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            information_criterion(0.0, 1, 10, "dic")


class TestDivisors:
    def make_table(self, min_count):
        counts = np.zeros(4, dtype=np.int64)
        counts[1], counts[2], counts[3] = min_count, min_count * 3, min_count * 7
        return ContingencyTable(2, counts)

    def test_adaptive_halves_below_minimum(self):
        # min positive count 300: 1000 -> 500 -> 250 < 300.
        assert adaptive_divisor(self.make_table(300)) == 250

    def test_adaptive_keeps_maximum_when_counts_huge(self):
        assert adaptive_divisor(self.make_table(5000)) == 1000

    def test_adaptive_floors_at_one(self):
        assert adaptive_divisor(self.make_table(1)) == 1

    def test_adaptive_with_custom_maximum(self):
        assert adaptive_divisor(self.make_table(300), maximum=100) == 100

    def test_resolve_fixed(self):
        assert resolve_divisor(self.make_table(5), 10) == 10

    def test_resolve_adaptive_string(self):
        assert resolve_divisor(self.make_table(300), "adaptive1000") == 250
        assert resolve_divisor(self.make_table(300), "adaptive") == 250

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_divisor(self.make_table(5), "magic")
        with pytest.raises(ValueError):
            resolve_divisor(self.make_table(5), 0)


class TestStepwiseSearch:
    def test_independent_data_selects_independence(self, rng):
        _, sources = make_independent_sources(
            rng, 50_000, [0.3, 0.35, 0.3, 0.25]
        )
        table = tabulate_histories(sources)
        selection = select_model(table, criterion="bic", divisor=1)
        assert selection.fit.terms == main_effect_terms(4)

    def test_dependent_data_selects_interactions(self, rng):
        _, sources = make_heterogeneous_sources(rng, 50_000, sigma=1.2)
        table = tabulate_histories(sources)
        selection = select_model(table, criterion="aic", divisor=1)
        assert any(len(t) == 2 for t in selection.fit.terms)

    def test_path_starts_at_independence(self, rng):
        _, sources = make_heterogeneous_sources(rng, 10_000)
        selection = select_model(tabulate_histories(sources), divisor=1)
        assert selection.path[0].terms == main_effect_terms(4)

    def test_path_ic_decreasing(self, rng):
        _, sources = make_heterogeneous_sources(rng, 10_000)
        selection = select_model(tabulate_histories(sources), divisor=1)
        ics = [step.ic for step in selection.path]
        assert all(b < a for a, b in zip(ics, ics[1:]))

    def test_parsimony_rule_within_margin(self, rng):
        """The chosen model's IC is within the margin of the best."""
        _, sources = make_heterogeneous_sources(rng, 20_000)
        selection = select_model(tabulate_histories(sources), divisor=1)
        best = min(step.ic for step in selection.path)
        assert selection.selected_ic <= best + IC_MARGIN

    def test_larger_divisor_selects_simpler_model(self, rng):
        """Dividing counts flattens likelihood differences, so the
        penalty dominates and fewer terms survive — the paper's
        overfitting mitigation."""
        _, sources = make_heterogeneous_sources(rng, 60_000, sigma=0.8)
        table = tabulate_histories(sources)
        rich = select_model(table, criterion="aic", divisor=1)
        lean = select_model(table, criterion="aic", divisor=200)
        assert len(lean.fit.terms) <= len(rich.fit.terms)

    def test_three_way_terms_when_allowed(self, rng):
        _, sources = make_heterogeneous_sources(
            rng, 80_000, num_sources=4, sigma=1.5
        )
        table = tabulate_histories(sources)
        selection = select_model(table, criterion="aic", divisor=1, max_order=3)
        # With max_order=3 the search may add triples; at minimum it
        # must still return a valid hierarchical model.
        from repro.core.design import is_hierarchical

        assert is_hierarchical(selection.fit.terms)

    def test_single_source_rejected(self):
        table = ContingencyTable(1, np.array([0, 10]))
        with pytest.raises(ValueError):
            select_model(table)

    def test_degenerate_tiny_table_falls_back(self):
        counts = np.zeros(4, dtype=np.int64)
        counts[1], counts[2], counts[3] = 1, 1, 1
        table = ContingencyTable(2, counts)
        selection = select_model(table, divisor=1000)
        # Divisor 1000 would zero everything; fallback must kick in.
        assert selection.divisor == 1
        assert np.isfinite(selection.fit.estimate().population)

    def test_truncated_final_fit(self, rng):
        _, sources = make_independent_sources(rng, 5_000, [0.3, 0.3, 0.3])
        table = tabulate_histories(sources)
        selection = select_model(table, distribution="truncated", limit=1e8)
        assert selection.fit.distribution == "truncated"


@pytest.mark.parametrize("max_order", [2, 3])
@pytest.mark.parametrize("num_sources", range(2, 8))
def test_next_candidates_match_full_enumeration(num_sources, max_order):
    """Each round's candidates, derived from the last round's, are the
    full enumeration's list in its order, along random accepted
    sequences."""
    rng = np.random.default_rng(num_sources * 10 + max_order)
    for _ in range(20):
        current = main_effect_terms(num_sources)
        candidates = _candidate_terms(num_sources, current, max_order)
        while candidates:
            accepted = candidates[rng.integers(len(candidates))]
            current = current | {accepted}
            candidates = _next_candidates(
                candidates, accepted, current, num_sources, max_order
            )
            assert candidates == _candidate_terms(num_sources, current, max_order)


def _reference_search(tables, criterion="bic"):
    """Forward stepwise search that fits every candidate to convergence.

    The unraced rounds :func:`select_models_batched` must reproduce: the
    same warm starts and the same stacks (every pending fit of one
    design shape, across tables, in one :func:`fit_poisson_batch`
    call), every candidate scored and the best kept while it lowers the
    IC, then the parsimony rule and the warm full-count refit.
    """
    searches = []
    for table in tables:
        scaled, divisor = _resolve_scaled(table, "adaptive1000")
        searches.append(SimpleNamespace(
            table=table, scaled=scaled, divisor=divisor, fits={}, path=[],
            counts=scaled.counts[1:].astype(np.float64),
        ))

    def masks_of(terms):
        return (0,) + tuple(_term_mask(term) for term in term_order(terms))

    def fit_all(jobs):
        groups = {}
        for job in jobs:
            groups.setdefault((job[0].counts.size, len(job[2])), []).append(job)
        for group in groups.values():
            fits = fit_poisson_batch(
                np.array([job[2] for job in group]),
                np.stack([job[0].counts for job in group]),
                beta0=[job[3] for job in group],
            )
            for (search, terms, _, _, position), fit in zip(group, fits):
                coef = _canonical_coef(fit.coef, position)
                search.fits[terms] = (coef, fit.loglik)

    def score(search, terms):
        coef, loglik = search.fits[terms]
        ic = information_criterion(
            loglik, coef.size, search.scaled.num_observed, criterion
        )
        return CandidateScore(terms, ic, loglik, coef.size)

    roots = [main_effect_terms(s.table.num_sources) for s in searches]
    fit_all([(s, r, masks_of(r), None, None) for s, r in zip(searches, roots)])
    for search, root in zip(searches, roots):
        search.path.append(score(search, root))
    live = list(searches)
    while live:
        jobs, rounds = [], []
        for search in live:
            current = search.path[-1].terms
            candidates = _candidate_terms(search.table.num_sources, current, 2)
            if not candidates:
                continue
            keys = [term_key(term) for term in term_order(current)]
            seed = np.append(search.fits[current][0], 0.0)
            for term in candidates:
                masks = masks_of(current) + (_term_mask(term),)
                position = 1 + bisect_left(keys, term_key(term))
                jobs.append((search, current | {term}, masks, seed, position))
            rounds.append((search, [current | {term} for term in candidates]))
        fit_all(jobs)
        live = []
        for search, visited in rounds:
            challenger = min(
                (score(search, terms) for terms in visited), key=lambda s: s.ic
            )
            if challenger.ic < search.path[-1].ic:
                search.path.append(challenger)
                live.append(search)

    for search in searches:
        best = min(step.ic for step in search.path)
        eligible = [step for step in search.path if step.ic <= best + IC_MARGIN]
        chosen = min(eligible, key=lambda step: (step.num_params, step.ic))
        beta0 = search.fits[chosen.terms][0].copy()
        beta0[0] += float(np.log(search.divisor))
        model = LoglinearModel(search.table.num_sources, chosen.terms, validate=False)
        search.fit = model.fit(search.table, beta0=beta0)
    return searches


def _independent_table() -> ContingencyTable:
    """Product-form counts: the independence model fits them exactly."""
    captured, missed = (2, 3, 1, 2), (1, 1, 2, 3)
    counts = np.zeros(16, dtype=np.int64)
    for history in range(1, 16):
        counts[history] = np.prod([
            captured[s] if history >> s & 1 else missed[s] for s in range(4)
        ])
    return ContingencyTable(4, counts)


class TestRacedSearch:
    """The raced search stops fitting candidates that cannot win their
    round, so it must select exactly what a search fitting every
    candidate to convergence selects."""

    def assert_same_selection(self, tables):
        before = fitkernel.snapshot()
        raced = select_models_batched(tables)
        pruned = (fitkernel.snapshot() - before).candidates_pruned
        for selection, reference in zip(raced, _reference_search(tables)):
            assert selection.terms == reference.fit.terms
            assert selection.divisor == reference.divisor
            assert [s.terms for s in selection.path] == [
                s.terms for s in reference.path
            ]
            assert [s.num_params for s in selection.path] == [
                s.num_params for s in reference.path
            ]
            np.testing.assert_allclose(
                [s.ic for s in selection.path],
                [s.ic for s in reference.path],
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                selection.fit.coef, reference.fit.coef, rtol=1e-12
            )
        return raced, pruned

    def test_tiny_world_tables_select_as_unraced(self, tiny_executor, last_window):
        tables = [
            tiny_executor.run("tabulate", last_window, level=level)
            for level in FIT_LEVELS
        ]
        _, pruned = self.assert_same_selection(tables)
        assert pruned > 0

    def test_exact_independence_ends_at_the_root(self):
        table = _independent_table()
        assert resolve_divisor(table, "adaptive1000") == 1
        (selection,), _ = self.assert_same_selection([table])
        assert len(selection.path) == 1
        assert selection.terms == main_effect_terms(4)
