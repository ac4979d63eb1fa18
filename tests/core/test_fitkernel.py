"""Tests for the fit kernel: Cholesky solves, warm starts, counters.

The contract under test: the fast paths (Cholesky normal equations,
warm starts, memoisation, early convergence) change *when* work happens,
never *what* the estimates are — everything must agree with the cold,
naive reference within tight float tolerance.
"""

import numpy as np
import pytest

from repro.core import fitkernel
from repro.core.design import design_matrix, main_effect_terms, pairwise_terms
from repro.core.glm import (
    Candidates,
    GlmError,
    Race,
    fit_poisson,
    fit_poisson_batch,
    poisson_loglik,
)
from repro.core.histories import ContingencyTable
from repro.core.loglinear import LoglinearModel
from repro.core.selection import information_criterion, select_model


def _table(num_sources: int = 4, seed: int = 7) -> ContingencyTable:
    rng = np.random.default_rng(seed)
    counts = np.zeros(2**num_sources, dtype=np.int64)
    counts[1:] = rng.poisson(
        200.0 * rng.dirichlet(np.ones(2**num_sources - 1))
    ) + 1
    return ContingencyTable(
        num_sources=num_sources,
        counts=counts,
        source_names=tuple(f"s{i}" for i in range(num_sources)),
    )


def _design_and_counts(table: ContingencyTable):
    X, _ = design_matrix(table.num_sources, main_effect_terms(table.num_sources))
    return X, table.counts[1:].astype(np.float64)


class TestCholeskySolve:
    def test_matches_lstsq_on_well_conditioned_design(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 4))])
        w = rng.uniform(0.5, 3.0, size=60)
        z = rng.normal(size=60)
        fast = fitkernel.IrlsSolver(X).solve(w, z)
        sw = np.sqrt(w)
        slow, *_ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
        np.testing.assert_allclose(fast, slow, rtol=1e-8, atol=1e-10)

    def test_rank_deficient_design_falls_back(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(40, 3))
        X = np.column_stack([base, base[:, 0]])  # exact duplicate column
        w = rng.uniform(0.5, 2.0, size=40)
        z = rng.normal(size=40)
        before = fitkernel.snapshot()
        solution = fitkernel.IrlsSolver(X).solve(w, z)
        delta = fitkernel.snapshot() - before
        assert delta.cholesky_fallbacks == 1
        assert np.all(np.isfinite(solution))
        sw = np.sqrt(w)
        reference, *_ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
        np.testing.assert_allclose(solution, reference, rtol=1e-8, atol=1e-10)

    def test_healthy_solve_does_not_fall_back(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        before = fitkernel.snapshot()
        fitkernel.IrlsSolver(X).solve(np.ones(30), rng.normal(size=30))
        delta = fitkernel.snapshot() - before
        assert delta.cholesky_fallbacks == 0


class TestWarmStart:
    def test_warm_start_matches_cold_fit(self):
        X, y = _design_and_counts(_table())
        cold = fit_poisson(X, y)
        # Warm-start from a visibly perturbed optimum: same fixed point.
        beta0 = cold.coef + 0.05
        warm = fit_poisson(X, y, beta0=beta0)
        np.testing.assert_allclose(warm.coef, cold.coef, rtol=1e-8)
        assert warm.loglik == pytest.approx(cold.loglik, rel=1e-8)
        assert warm.deviance == pytest.approx(cold.deviance, rel=1e-8, abs=1e-8)

    def test_warm_start_from_own_optimum_is_cheap(self):
        X, y = _design_and_counts(_table())
        cold = fit_poisson(X, y)
        before = fitkernel.snapshot()
        warm = fit_poisson(X, y, beta0=cold.coef)
        delta = fitkernel.snapshot() - before
        assert delta.warm_start_hits == 1
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.coef, cold.coef, rtol=1e-8)

    def test_bad_beta0_is_ignored(self):
        X, y = _design_and_counts(_table())
        wrong_shape = np.zeros(X.shape[1] + 2)
        non_finite = np.full(X.shape[1], np.nan)
        cold = fit_poisson(X, y)
        for beta0 in (wrong_shape, non_finite):
            fit = fit_poisson(X, y, beta0=beta0)
            np.testing.assert_allclose(fit.coef, cold.coef, rtol=1e-8)

    def test_early_stop_is_at_the_optimum(self):
        # The quadratic-prediction early stop must land on the same
        # fixed point an exhaustive iteration reaches.
        X, y = _design_and_counts(_table(seed=11))
        fast = fit_poisson(X, y)
        exhaustive = fit_poisson(X, y, tol=1e-13, max_iter=500)
        np.testing.assert_allclose(fast.coef, exhaustive.coef, rtol=1e-8)
        assert fast.loglik == pytest.approx(exhaustive.loglik, rel=1e-10)

    def test_loglik_property_matches_direct_computation(self):
        X, y = _design_and_counts(_table())
        fit = fit_poisson(X, y)
        assert fit.loglik == pytest.approx(poisson_loglik(y, fit.fitted))


class TestSelectionPath:
    def test_select_model_matches_cold_refits(self):
        table = _table(num_sources=5, seed=9)
        selection = select_model(table, max_order=2)
        # Chosen model refit stone-cold must agree with the warm result.
        cold_fit = LoglinearModel(table.num_sources, selection.terms).fit(table)
        np.testing.assert_allclose(
            selection.fit.coef, cold_fit.coef, rtol=1e-7
        )
        est_warm = selection.fit.estimate().population
        est_cold = cold_fit.estimate().population
        assert est_warm == pytest.approx(est_cold, rel=1e-8)
        # Every path entry's IC must match a cold fit on the scaled table.
        scaled = table.scaled(selection.divisor)
        for score in selection.path:
            reference = LoglinearModel(table.num_sources, score.terms).fit(scaled)
            expected = information_criterion(
                reference.loglik,
                reference.num_params,
                scaled.num_observed,
                selection.criterion,
            )
            assert score.ic == pytest.approx(expected, rel=1e-8)

    def test_selection_uses_warm_starts_and_memo(self):
        table = _table(num_sources=5, seed=10)
        before = fitkernel.snapshot()
        select_model(table, max_order=2)
        delta = fitkernel.snapshot() - before
        assert delta.fits > 2
        # Every candidate fit after independence is warm-started, and
        # the parsimony-rule refit hits the memo.
        assert delta.warm_start_hits >= delta.fits - 2
        assert delta.memo_hits >= 1
        assert delta.iterations_saved >= 1


class TestDesignCache:
    def test_design_matrix_memoised_and_read_only(self):
        terms = main_effect_terms(6)
        before = fitkernel.snapshot()
        first, ordered_first = design_matrix(6, terms)
        second, ordered_second = design_matrix(6, terms)
        delta = fitkernel.snapshot() - before
        assert second is first  # same cached object
        assert ordered_first == ordered_second
        assert not first.flags.writeable
        assert delta.design_cache_hits >= 1
        with pytest.raises(ValueError):
            first[0, 0] = 2.0

    def test_unnormalised_terms_share_the_cache(self):
        fs = frozenset({frozenset({0}), frozenset({1})})
        as_list = [{0}, {1}]
        a, _ = design_matrix(2, fs)
        b, _ = design_matrix(2, as_list)
        assert b is a

    def test_invalid_terms_still_rejected(self):
        with pytest.raises(ValueError):
            design_matrix(3, [frozenset({0, 1})])  # missing subset terms
        with pytest.raises(ValueError):
            design_matrix(2, [frozenset({5})])  # unknown source


class TestCounters:
    def test_fit_records_counters(self):
        X, y = _design_and_counts(_table())
        before = fitkernel.snapshot()
        fit = fit_poisson(X, y)
        delta = fitkernel.snapshot() - before
        assert delta.fits == 1
        assert delta.irls_iterations == fit.iterations
        assert delta.warm_start_hits == 0

    def test_record_snapshot_reset(self):
        fitkernel.reset_counters()
        fitkernel.record(fits=2, irls_iterations=7)
        snap = fitkernel.snapshot()
        assert snap.fits == 2
        assert snap.irls_iterations == 7
        fitkernel.reset_counters()
        assert fitkernel.snapshot().fits == 0

    def test_counter_algebra(self):
        a = fitkernel.FitCounters(fits=2, irls_iterations=5)
        b = fitkernel.FitCounters(fits=1, irls_iterations=2, memo_hits=3)
        total = a + b
        assert total.fits == 3
        assert total.irls_iterations == 7
        assert total.memo_hits == 3
        assert (total - a) == b
        assert bool(fitkernel.FitCounters()) is False
        assert bool(b) is True
        assert b.as_dict()["memo_hits"] == 3


def _mask(term) -> int:
    return sum(1 << source for source in term)


def _design_masks(num_sources: int, terms, members: int):
    """``(X, masks)``: one design_matrix design and its ``(members, p)``
    column-mask stack, the intercept's 0 first."""
    X, ordered = design_matrix(num_sources, terms)
    masks = np.array(
        [[0] + [_mask(term) for term in ordered]] * members, dtype=np.int64
    )
    return X, masks


class TestBatchedSolver:
    """The batched kernel is a pure reorganisation of the arithmetic:
    every member must agree with its own sequential solve at rtol 1e-8,
    degenerate members included."""

    def test_lattice_and_dense_solves_agree(self):
        rng = np.random.default_rng(6)
        X, masks = _design_masks(4, main_effect_terms(4), members=3)
        solver = fitkernel.BatchedIrlsSolver(masks, X.shape[0])
        w = rng.uniform(0.5, 3.0, size=(3, X.shape[0]))
        z = rng.normal(size=(3, X.shape[0]))
        fast = solver.solve(w, z)
        for g in range(3):
            sw = np.sqrt(w[g])
            slow, *_ = np.linalg.lstsq(X * sw[:, None], z[g] * sw, rcond=None)
            np.testing.assert_allclose(fast[g], slow, rtol=1e-8, atol=1e-10)

    def test_linear_predictor_matches_matmul(self):
        rng = np.random.default_rng(7)
        X, masks = _design_masks(4, main_effect_terms(4), members=3)
        solver = fitkernel.BatchedIrlsSolver(masks, X.shape[0])
        beta = rng.normal(size=masks.shape)
        eta = solver.linear_predictor(beta)
        for g in range(3):
            np.testing.assert_allclose(
                eta[g], X @ beta[g], rtol=1e-12, atol=1e-12
            )
        members = np.array([2, 0])
        np.testing.assert_allclose(
            solver.linear_predictor(beta[members], members), eta[members]
        )

    def test_wrong_masks_rejected(self):
        # A mask with a bit beyond the lattice's t sources.
        with pytest.raises(ValueError):
            fitkernel.BatchedIrlsSolver(np.array([[0, 1, 16]]), 15)
        # Rows that do not cover a history lattice.
        with pytest.raises(ValueError):
            fitkernel.BatchedIrlsSolver(np.array([[0, 1, 2]]), 12)
        # One member's masks instead of a (G, p) stack.
        with pytest.raises(ValueError):
            fitkernel.BatchedIrlsSolver(np.array([0, 1, 2]), 15)

    def test_degenerate_member_falls_back_per_member(self):
        # Member 1 puts no weight on any history holding both sources 0
        # and 1, so its pair column is unidentified and its normal
        # equations singular; only it may reach lstsq.
        rng = np.random.default_rng(9)
        terms = main_effect_terms(4) | {frozenset({0, 1})}
        X, masks = _design_masks(4, terms, members=2)
        w = rng.uniform(0.5, 2.0, size=(2, X.shape[0]))
        histories = np.arange(1, 16)
        w[1, (histories & 3) == 3] = 0.0
        z = rng.normal(size=(2, X.shape[0]))
        before = fitkernel.snapshot()
        out = fitkernel.BatchedIrlsSolver(masks, X.shape[0]).solve(w, z)
        delta = fitkernel.snapshot() - before
        assert delta.cholesky_fallbacks == 1
        assert np.all(np.isfinite(out))
        for g in range(2):
            sw = np.sqrt(np.maximum(w[g], 1e-12))
            expected, *_ = np.linalg.lstsq(
                X * sw[:, None], z[g] * sw, rcond=None
            )
            np.testing.assert_allclose(out[g], expected, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("keep_degenerate", [False, True])
    def test_subset_slices_as_a_fresh_build(self, keep_degenerate):
        _, masks = _design_masks(4, main_effect_terms(4), members=5)
        masks[3, -1] = masks[3, 1]  # a duplicated column
        solver = fitkernel.BatchedIrlsSolver(masks, 15)
        keep = np.array([True, False, True, keep_degenerate, True])
        sliced = solver.subset(keep)
        fresh = fitkernel.BatchedIrlsSolver(masks[keep], 15)
        assert sliced.duplicates is keep_degenerate
        for slot in fitkernel.BatchedIrlsSolver.__slots__:
            np.testing.assert_array_equal(getattr(sliced, slot), getattr(fresh, slot))

    def test_shared_rows_solve_bitwise_as_copies(self):
        rng = np.random.default_rng(12)
        terms = main_effect_terms(4) | {frozenset({0, 1})}
        _, masks = _design_masks(4, terms, members=5)
        masks[1:, -1] = [_mask({1, 2}), _mask({2, 3}), _mask({0, 3}), _mask({1, 3})]
        rows = np.array([1, 0, 1, 1, 0])
        w = rng.uniform(0.5, 3.0, size=(2, 15))
        z = rng.normal(size=(2, 15))
        solver = fitkernel.BatchedIrlsSolver(masks, 15)
        np.testing.assert_array_equal(
            solver.solve(w, z, rows), solver.solve(w[rows], z[rows])
        )


class TestBatchedPoissonFits:
    def test_stack_matches_sequential_fits(self):
        tables = [_table(num_sources=4, seed=s) for s in (1, 2, 3, 4)]
        X, masks = _design_masks(4, main_effect_terms(4), len(tables))
        counts = np.stack([t.counts[1:].astype(np.float64) for t in tables])
        batch = fit_poisson_batch(masks, counts)
        for fit, table in zip(batch, tables):
            solo = fit_poisson(X, table.counts[1:].astype(np.float64))
            np.testing.assert_allclose(fit.coef, solo.coef, rtol=1e-8)
            assert fit.loglik == pytest.approx(solo.loglik, rel=1e-8)
            assert fit.iterations == solo.iterations
            assert fit.converged and solo.converged

    def test_warm_started_members_match_sequential(self):
        table = _table(num_sources=4, seed=13)
        X, masks = _design_masks(4, main_effect_terms(4), members=2)
        y = table.counts[1:].astype(np.float64)
        optimum = fit_poisson(X, y).coef
        counts = np.stack([y, y])
        batch = fit_poisson_batch(masks, counts, beta0=[optimum, None])
        solo_warm = fit_poisson(X, y, beta0=optimum)
        solo_cold = fit_poisson(X, y)
        np.testing.assert_allclose(batch[0].coef, solo_warm.coef, rtol=1e-8)
        assert batch[0].iterations == solo_warm.iterations
        np.testing.assert_allclose(batch[1].coef, solo_cold.coef, rtol=1e-8)
        assert batch[1].iterations == solo_cold.iterations


class TestWarmStartValidation:
    def test_row_vector_beta0_raises_with_hint(self):
        with pytest.raises(ValueError, match="ravel"):
            fitkernel.usable_warm_start(np.zeros((1, 4)), 4)

    def test_one_d_vectors_still_quietly_screened(self):
        assert fitkernel.usable_warm_start(np.zeros(4), 4)
        assert not fitkernel.usable_warm_start(np.zeros(3), 4)
        assert not fitkernel.usable_warm_start(np.array([np.nan] * 4), 4)
        assert not fitkernel.usable_warm_start(None, 4)


class TestBatchedEquivalenceProperty:
    """Property: for *any* group of same-shape capture-history models —
    source counts, term sets, stack sizes either side of ``_MIN_BATCH``,
    warm starts, and members with a duplicated column drawn at random —
    the batched kernel reproduces each member's sequential fit."""

    def test_random_design_groups_match_sequential(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            num_sources=st.integers(3, 5),
            members=st.integers(1, 6),
            extra=st.integers(0, 3),
            degenerate=st.booleans(),
            warm=st.booleans(),
        )
        def check(seed, num_sources, members, extra, degenerate, warm):
            rng = np.random.default_rng(seed)
            n = 2**num_sources - 1
            mains = [1 << s for s in range(num_sources)]
            pairs = [_mask(term) for term in pairwise_terms(num_sources)]
            masks = np.array([
                [0] + mains + list(rng.choice(pairs, size=extra, replace=False))
                for _ in range(members)
            ], dtype=np.int64)
            if degenerate and extra:
                masks[-1, -1] = masks[-1, 1]  # force the per-member path
            counts = np.empty((members, n))
            for g in range(members):
                X = fitkernel.lattice_design(masks[g], n)
                beta = rng.normal(scale=0.3, size=masks.shape[1])
                counts[g] = rng.poisson(np.exp(X @ beta) * 20.0) + 1
            beta0 = None
            if warm:
                beta0 = [
                    rng.normal(scale=0.1, size=masks.shape[1]) if g % 2 == 0 else None
                    for g in range(members)
                ]
            batch = fit_poisson_batch(masks, counts, beta0=beta0)
            for g, fit in enumerate(batch):
                solo = fit_poisson(
                    fitkernel.lattice_design(masks[g], n),
                    counts[g],
                    beta0=None if beta0 is None else beta0[g],
                )
                assert fit.converged == solo.converged
                assert fit.iterations == solo.iterations
                np.testing.assert_allclose(
                    fit.fitted, solo.fitted, rtol=1e-8, atol=1e-10
                )
                assert fit.loglik == pytest.approx(solo.loglik, rel=1e-8)

        check()


def _bitwise_superset_sums(table: np.ndarray, t: int) -> None:
    """Reference zeta transform over supersets: one in-place pass per
    bit, straight from the definition."""
    rows = table.shape[0]
    for bit in range(t):
        view = table.reshape(rows, -1, 2, 1 << bit)
        view[:, :, 0, :] += view[:, :, 1, :]


def _bitwise_subset_sums(table: np.ndarray, t: int) -> None:
    """Reference zeta transform over subsets (see above)."""
    rows = table.shape[0]
    for bit in range(t):
        view = table.reshape(rows, -1, 2, 1 << bit)
        view[:, :, 1, :] += view[:, :, 0, :]


class TestLatticeTransforms:
    """The factored gemm transforms against the bitwise definition."""

    @pytest.mark.parametrize("t", range(1, 11))
    @pytest.mark.parametrize(
        "fast, reference",
        [
            (fitkernel._superset_sums, _bitwise_superset_sums),
            (fitkernel._subset_sums, _bitwise_subset_sums),
        ],
    )
    def test_factored_transforms_match_bitwise_sweeps(self, t, fast, reference):
        rng = np.random.default_rng(t)
        positive = rng.uniform(0.01, 5.0, size=(6, 1 << t))
        expected = positive.copy()
        reference(expected, t)
        np.testing.assert_allclose(fast(positive, t), expected, rtol=1e-13)
        signed = rng.normal(size=(6, 1 << t))
        expected = signed.copy()
        reference(expected, t)
        scale = 1e-13 * np.abs(signed).sum(axis=1, keepdims=True)
        assert (np.abs(fast(signed, t) - expected) <= scale).all()

    def test_transforms_leave_their_input_alone(self):
        table = np.arange(16.0).reshape(2, 8)
        before = table.copy()
        fitkernel._superset_sums(table, 3)
        fitkernel._subset_sums(table, 3)
        np.testing.assert_array_equal(table, before)

    def test_factors_are_cached_and_read_only(self):
        factor = fitkernel._zeta_factor(3)
        assert fitkernel._zeta_factor(3) is factor
        assert not factor.flags.writeable


class TestMaskOnlyStacks:
    @pytest.mark.parametrize("include_unobserved", [False, True])
    @pytest.mark.parametrize("num_sources", [3, 4, 6])
    def test_design_from_masks_matches_design_matrix(
        self, num_sources, include_unobserved
    ):
        terms = main_effect_terms(num_sources) | frozenset(
            pairwise_terms(num_sources)[:3]
        )
        X, ordered = design_matrix(num_sources, terms, include_unobserved)
        masks = [0] + [_mask(term) for term in ordered]
        built = fitkernel.lattice_design(masks, X.shape[0])
        np.testing.assert_array_equal(built, X)

    def test_duplicated_mask_falls_back_for_that_member_only(self):
        rng = np.random.default_rng(31)
        num_sources = 4
        _, ordered = design_matrix(num_sources, main_effect_terms(num_sources))
        healthy = [0] + [_mask(term) for term in ordered]
        broken = healthy[:-1] + [healthy[1]]  # two columns flag source 0
        masks = np.array([healthy, broken, healthy])
        n = 2**num_sources - 1
        solver = fitkernel.BatchedIrlsSolver(masks, n)
        w = rng.uniform(0.5, 3.0, size=(3, n))
        z = rng.normal(size=(3, n))
        before = fitkernel.snapshot()
        out = solver.solve(w, z)
        delta = fitkernel.snapshot() - before
        assert delta.cholesky_fallbacks == 1
        for g in range(3):
            X = fitkernel.lattice_design(masks[g], n)
            sw = np.sqrt(w[g])
            expected, *_ = np.linalg.lstsq(X * sw[:, None], z[g] * sw, rcond=None)
            np.testing.assert_allclose(out[g], expected, rtol=1e-8, atol=1e-10)
        # The duplicate columns' coefficients sum into one lattice slot.
        beta = rng.normal(size=(3, masks.shape[1]))
        eta = solver.linear_predictor(beta)
        for g in range(3):
            X = fitkernel.lattice_design(masks[g], n)
            np.testing.assert_allclose(eta[g], X @ beta[g], rtol=1e-12, atol=1e-12)

    def test_small_mask_only_stacks_fit_sequentially(self):
        table = _capture_table(4, seed=5)
        designs, counts, seeds, masks = _candidate_stack(table)
        lean = fit_poisson_batch(masks[:2], counts[:2], beta0=seeds[:2])
        for g, fit in enumerate(lean):
            solo = fit_poisson(designs[g], counts[g], beta0=seeds[g])
            np.testing.assert_array_equal(fit.coef, solo.coef)


def _capture_table(num_sources: int, seed: int, population: int = 30_000):
    """A capture-recapture table with heterogeneous catchability and
    one dependent source pair — sparse and zero cells at t = 9, like
    the sweep's tables."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.03, 0.4, size=num_sources)
    frailty = rng.gamma(2.0, 0.5, size=(population, 1))
    caught = rng.random((population, num_sources)) < np.minimum(base * frailty, 0.95)
    caught[:, 1] |= caught[:, 0] & (rng.random(population) < 0.3)
    histories = caught.astype(np.int64) @ (1 << np.arange(num_sources))
    counts = np.bincount(histories, minlength=2**num_sources)
    counts[0] = 0
    return ContingencyTable(
        num_sources=num_sources,
        counts=counts,
        source_names=tuple(f"s{i}" for i in range(num_sources)),
    )


def _candidate_stack(table: ContingencyTable):
    """One stepwise round on ``table``: the independence model's fit as
    parent and every pairwise term as a candidate, each seeded with the
    parent's coefficients plus a zero — as the selection search does."""
    t = table.num_sources
    parent = main_effect_terms(t)
    parent_design, ordered = design_matrix(t, parent)
    y = table.counts[1:].astype(np.float64)
    parent_coef = fit_poisson(parent_design, y).coef
    parent_masks = [0] + [_mask(term) for term in ordered]
    histories = np.arange(1, 2**t)
    designs, masks = [], []
    for term in pairwise_terms(t):
        mask = _mask(term)
        column = (histories & mask) == mask
        designs.append(np.column_stack([parent_design, column]))
        masks.append(parent_masks + [mask])
    G = len(designs)
    seeds = [np.append(parent_coef, 0.0)] * G
    return np.stack(designs), np.tile(y, (G, 1)), seeds, np.array(masks)


class TestLatticeBatchParity:
    """Real selection stacks, passed as column masks the way selection
    passes them, through the batched lattice loop (stacks of
    ``_MIN_BATCH`` or more members) against each member's own
    :func:`fit_poisson`.  Coefficients are not compared: near-separated
    members sit on flat likelihood ridges where two correct kernels
    leave large coefficients apart while the likelihood agrees."""

    @pytest.mark.parametrize("num_sources, seed", [(5, 11), (9, 12), (9, 13)])
    @pytest.mark.parametrize("start", ["parent", "perturbed", "mixed"])
    def test_members_match_their_sequential_fits(self, num_sources, seed, start):
        table = _capture_table(num_sources, seed)
        designs, counts, seeds, masks = _candidate_stack(table)
        assert len(seeds) >= 8
        rng = np.random.default_rng(seed)
        if start == "perturbed":  # far enough out to need step halving
            seeds = [s + rng.normal(size=s.size) for s in seeds]
        elif start == "mixed":  # cold members take their first step unchecked
            seeds = [s if g % 2 else None for g, s in enumerate(seeds)]
        batch = fit_poisson_batch(masks, counts, beta0=seeds)
        for g, fit in enumerate(batch):
            solo = fit_poisson(designs[g], counts[g], beta0=seeds[g])
            assert fit.iterations == solo.iterations
            assert fit.converged == solo.converged
            assert fit.loglik == pytest.approx(solo.loglik, rel=1e-10)
            np.testing.assert_allclose(fit.fitted, solo.fitted, rtol=1e-9)


class TestBatchedLineSearch:
    def test_stalled_member_tries_the_sequential_step_sizes(self, monkeypatch):
        from repro.core import glm

        table = _capture_table(4, seed=5)
        _, counts, seeds, masks = _candidate_stack(table)
        solver = fitkernel.BatchedIrlsSolver(masks, counts.shape[1])
        beta = np.array(seeds)
        eta, mu, L, exact = glm._eval_state_batch(beta, counts, solver)
        sat = np.array([glm._y_constants(row)[0] for row in counts])
        floor = -1e-12 * (1.0 + np.abs(2.0 * (sat - L)))
        # Member 0 steps straight down the likelihood, so every step
        # size fails; the others stay put and accept the full step.
        target = beta.copy()
        X0 = fitkernel.lattice_design(masks[0], counts.shape[1])
        target[0] -= X0.T @ (counts[0] - mu[0])
        calls = []
        evaluate = fitkernel.BatchedIrlsSolver.linear_predictor

        def counted(self, *args):
            calls.append(1)
            return evaluate(self, *args)

        monkeypatch.setattr(fitkernel.BatchedIrlsSolver, "linear_predictor", counted)
        first = glm._eval_state_batch(target, counts, solver)
        new_beta, _, new_mu, new_L, _, improvement, full = glm._line_search_batch(
            solver, counts, beta, eta, mu, L, exact, floor, target, None,
            first, first[0] - eta,
        )
        assert len(calls) == 30  # step sizes 1 .. 2**-29, as in fit_poisson
        assert not full[0] and full[1:].all()
        np.testing.assert_array_equal(new_beta[0], beta[0])
        np.testing.assert_array_equal(new_mu[0], mu[0])
        assert new_L[0] == L[0] and improvement[0] == 0.0


class TestDualBound:
    """The bound a race retires candidates by: at every trip of an
    unraced batched fit, each member's duality bound (where defined —
    no cold first step, no clipped cell, every ``d > -1``) is at least
    the objective that member converges to (the log-likelihood less
    its gammaln normaliser), up to round-off."""

    def test_bound_never_undercuts_the_converged_loglik(self, monkeypatch):
        from hypothesis import assume, given, settings, strategies as st

        from repro.core import glm

        trips = []
        search = glm._line_search_batch

        def inside(eta):
            return (eta.min(axis=1) > glm._ETA_MIN) & (eta.max(axis=1) < glm._ETA_MAX)

        def recording(
            solver, y, beta, eta, mu, L, exact, floor, target, force, first, d
        ):
            usable = inside(eta) & inside(first[0])
            if force is not None:
                usable &= ~force
            upper = glm._dual_bound(mu, L, first[0] - eta)
            trips.append((y.copy(), np.where(usable, upper, np.inf)))
            return search(
                solver, y, beta, eta, mu, L, exact, floor, target, force, first, d
            )

        monkeypatch.setattr(glm, "_line_search_batch", recording)
        checked = []

        @settings(max_examples=40, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            num_sources=st.integers(3, 6),
            members=st.integers(4, 8),
            extra=st.integers(1, 3),
            top=st.sampled_from([5, 50, 5000]),
            perturbed=st.booleans(),
        )
        def check(seed, num_sources, members, extra, top, perturbed):
            rng = np.random.default_rng(seed)
            n = 2**num_sources - 1
            mains = [1 << s for s in range(num_sources)]
            pairs = [_mask(term) for term in pairwise_terms(num_sources)]
            rows, counts, seeds = [], np.empty((members, n)), []
            for g in range(members):
                chosen = list(rng.choice(pairs, size=extra, replace=False))
                parent = [0] + mains + chosen[:-1]
                rows.append(parent + chosen[-1:])
                counts[g] = rng.integers(0, top + 1, size=n)
                counts[g][rng.random(n) < 0.2] = 0
                counts[g][rng.integers(n)] += 1
                # The search's warm start: the parent's optimum, the new
                # term at 0; perturbed starts take step halving.
                warm = fit_poisson(fitkernel.lattice_design(parent, n), counts[g]).coef
                start = np.append(warm, 0.0)
                if perturbed:
                    start += rng.normal(scale=0.5, size=start.size)
                seeds.append(start)
            assume(len({row.tobytes() for row in counts}) == members)
            trips.clear()
            fits = fit_poisson_batch(np.array(rows), counts, beta0=seeds)
            member = {row.tobytes(): g for g, row in enumerate(counts)}
            for y, upper in trips:
                for row, bound in zip(y, upper):
                    if not np.isfinite(bound):
                        continue
                    L = fits[member[row.tobytes()]].loglik_kernel
                    assert bound >= L - 1e-11 * (1.0 + abs(L))
                    checked.append(bound)

        check()
        assert len(checked) > 100


class TestRace:
    """A raced stack retires members unfitted and leaves every other
    member's fit bit for bit what it is without the race."""

    @pytest.mark.parametrize("num_sources, seed", [(5, 11), (9, 12)])
    def test_survivors_are_bitwise_the_unraced_fits(self, num_sources, seed):
        table = _capture_table(num_sources, seed)
        _, counts, seeds, masks = _candidate_stack(table)
        parent = fit_poisson(
            fitkernel.lattice_design(masks[0][:-1], counts.shape[1]), counts[0]
        )
        G = len(seeds)
        # One table; a challenger must beat the parent's BIC.
        race = Race(
            table=np.zeros(G, dtype=np.int64),
            floor=np.full(G, parent.loglik + 0.5 * np.log(table.num_observed)),
        )
        before = fitkernel.snapshot()
        raced = fit_poisson_batch(masks, counts, beta0=seeds, race=race)
        pruned = (fitkernel.snapshot() - before).candidates_pruned
        unraced = fit_poisson_batch(masks, counts, beta0=seeds)
        assert pruned == sum(fit is None for fit in raced) > 0
        best = max(range(G), key=lambda g: unraced[g].loglik)
        assert raced[best] is not None
        for fit, reference in zip(raced, unraced):
            if fit is None:
                continue
            assert fit.iterations == reference.iterations
            np.testing.assert_array_equal(fit.coef, reference.coef)
            assert fit.loglik == reference.loglik

    def test_race_must_cover_the_stack(self):
        table = _capture_table(4, seed=5)
        _, counts, seeds, masks = _candidate_stack(table)
        with pytest.raises(GlmError):
            fit_poisson_batch(
                masks, counts, beta0=seeds,
                race=Race(table=np.zeros(2), floor=np.zeros(2)),
            )


def _assert_bitwise(fit, reference):
    assert fit.coef.tobytes() == reference.coef.tobytes()
    assert fit.fitted.tobytes() == reference.fitted.tobytes()
    assert (fit.deviance, fit.iterations, fit.converged) == (
        reference.deviance, reference.iterations, reference.converged
    )
    assert fit.loglik_kernel == reference.loglik_kernel
    assert fit.loglik_norm == reference.loglik_norm


class TestSharedParents:
    """One stepwise round passed as parents plus candidate columns (each
    table's counts and parent seed once) fits bit for bit what the same
    round fits from per-member copies of those counts and seeds."""

    @pytest.mark.parametrize("num_sources", [3, 5, 9])
    @pytest.mark.parametrize("start", ["warm", "cold-parent"])
    @pytest.mark.parametrize("raced", [False, True])
    def test_shared_inputs_fit_bitwise_as_per_member_copies(
        self, num_sources, start, raced
    ):
        tables = [_capture_table(num_sources, seed) for seed in (21, 22, 23)]
        if num_sources == 3:
            tables = tables[:1]  # three candidates: the per-member path
        t = num_sources
        parent_masks = [0] + [1 << s for s in range(t)]
        counts = np.stack([table.counts[1:].astype(np.float64) for table in tables])
        X = fitkernel.lattice_design(parent_masks, counts.shape[1])
        parents = [fit_poisson(X, y) for y in counts]
        seeds = [fit.coef for fit in parents]
        if start == "cold-parent":
            seeds[-1] = None
        pairs = [_mask(term) for term in pairwise_terms(t)]
        parent = np.repeat(np.arange(len(tables)), len(pairs))
        column = np.tile(pairs, len(tables))
        race = None
        if raced:
            floors = [
                fit.loglik + 0.5 * np.log(table.num_observed)
                for fit, table in zip(parents, tables)
            ]
            race = Race(table=parent, floor=np.array(floors)[parent])

        before = fitkernel.snapshot()
        shared = fit_poisson_batch(
            np.array([parent_masks] * len(tables)), counts, beta0=seeds,
            race=race, candidates=Candidates(parent=parent, column=column),
        )
        shared_counters = fitkernel.snapshot() - before
        before = fitkernel.snapshot()
        copied = fit_poisson_batch(
            np.column_stack([np.array([parent_masks] * parent.size), column]),
            counts[parent],
            beta0=[None if seeds[r] is None else np.append(seeds[r], 0.0)
                   for r in parent],
            race=race,
        )
        assert fitkernel.snapshot() - before == shared_counters
        assert [fit is None for fit in shared] == [fit is None for fit in copied]
        if raced and parent.size >= 4:
            assert shared_counters.candidates_pruned > 0
        for fit, reference in zip(shared, copied):
            if fit is not None:
                _assert_bitwise(fit, reference)

    def test_candidates_must_index_the_parents(self):
        with pytest.raises(GlmError):
            fit_poisson_batch(
                np.array([[0, 1, 2]]), np.ones((1, 3)),
                candidates=Candidates(parent=np.array([0, 1]), column=np.array([3, 3])),
            )
