"""Boundary fits: contrast faces on small tables and on the reference sweeps.

A fit is on a boundary when a zero margin contrast is a direction of
recession: its MLE does not exist, and IRLS only approaches the face
where the contrast's cells vanish.  ``FittedLoglinear.face`` names
those cells from the table and terms alone.  On the ``-14`` sweeps of
seeds 20140630 and 3 the flagged final fits are checked by name, and
every final table's face against a facial-set linear program (HiGHS),
the general test of whether an MLE exists.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro import Executor, SimulationConfig, SyntheticInternet, standard_windows
from repro.core import fitkernel
from repro.core.design import design_matrix, main_effect_terms
from repro.core.glm import fit_poisson
from repro.core.histories import ContingencyTable
from repro.core.loglinear import LoglinearModel, contrast_face
from repro.engine.stages import FIT_LEVELS

F = frozenset

#: Final fits with a face, and the pairs "i saw nothing j missed" that
#: put them there (ROADMAP item 2's finding).
FLAGGED = {
    (20140630, "Sep 2013", "subnets"): {("SWIN", "CALT")},
    (20140630, "Mar 2014", "subnets"): {("SWIN", "CALT"), ("SWIN", "WEB")},
    (20140630, "Jun 2014", "subnets"): {("WIKI", "GAME")},
    (3, "Jun 2014", "subnets"): {("WIKI", "CALT"), ("SWIN", "WEB")},
}


def cells_without(table: ContingencyTable, inside: int, outside: int) -> frozenset:
    """Observed histories with source ``inside`` and without ``outside``."""
    h = np.arange(1, 2**table.num_sources)
    return F(h[((h >> inside) & 1 == 1) & ((h >> outside) & 1 == 0)].tolist())


def lp_face(table: ContingencyTable, terms: frozenset) -> frozenset:
    """Zero cells some direction of recession pushes down (Fienberg &
    Rinaldo 2012): maximise ``sum s`` over ``X d = 0`` on positive
    cells and ``X d + s <= 0``, ``0 <= s <= 1`` on zero cells.  Any
    direction's support scales to ``s = 1``, and directions add, so the
    optimum marks exactly the cells of the facial set's complement."""
    design, _ = design_matrix(table.num_sources, terms)
    counts = table.counts[1:]
    positive, zero = counts > 0, counts == 0
    p, z = design.shape[1], int(zero.sum())
    if z == 0:
        return F()
    result = linprog(
        np.concatenate([np.zeros(p), -np.ones(z)]),
        A_ub=np.hstack([design[zero], np.eye(z)]),
        b_ub=np.zeros(z),
        A_eq=np.hstack([design[positive], np.zeros((int(positive.sum()), z))]),
        b_eq=np.zeros(int(positive.sum())),
        bounds=[(None, None)] * p + [(0, 1)] * z,
        method="highs",
    )
    assert result.status == 0, result.message
    histories = np.arange(1, 2**table.num_sources)[zero]
    return F(histories[result.x[p:] > 0.5].tolist())


class TestContrastFace:
    def table(self, counts):
        return ContingencyTable(3, np.array([0, *counts]))

    def test_interior_table_has_no_face(self):
        table = self.table([50, 40, 12, 30, 9, 8, 3])
        terms = main_effect_terms(3) | {F({0, 1})}
        assert contrast_face(table, terms) == F()
        assert LoglinearModel(3, terms).fit(table).face == F()

    def test_pair_contrast(self):
        # Source 0 saw nothing source 1 missed: cells 0b001 and 0b101.
        table = self.table([0, 40, 12, 30, 0, 8, 3])
        terms = main_effect_terms(3) | {F({0, 1})}
        assert contrast_face(table, terms) == {0b001, 0b101}
        # Without the pair in the model the same zeros are interior.
        assert contrast_face(table, main_effect_terms(3)) == F()

    def test_zero_margin_source(self):
        table = self.table([50, 40, 12, 0, 0, 0, 0])
        assert contrast_face(table, main_effect_terms(3)) == {4, 5, 6, 7}

    def test_face_matches_lp_on_small_tables(self):
        rng = np.random.default_rng(5)
        t = 4
        terms = main_effect_terms(t) | {F({0, 1}), F({1, 2}), F({0, 3})}
        faces = 0
        for _ in range(60):
            counts = rng.poisson(6.0, 2**t - 1) * (rng.random(2**t - 1) < 0.6)
            table = ContingencyTable(t, np.array([0, *counts]))
            face = contrast_face(table, terms)
            # Every contrast is a direction of recession.
            assert face <= lp_face(table, terms)
            faces += bool(face)
        assert faces > 5

    def test_boundary_counter_counts_model_fits_on_a_face(self):
        table = self.table([0, 40, 12, 30, 0, 8, 3])
        before = fitkernel.snapshot()
        LoglinearModel(3, main_effect_terms(3) | {F({0, 1})}).fit(table)
        LoglinearModel(3, main_effect_terms(3)).fit(table)
        assert (fitkernel.snapshot() - before).boundary == 1

    def test_nonconverged_counter(self):
        design = np.column_stack([np.ones(4), [0, 1, 0, 1], [0, 0, 1, 1]])
        counts = np.array([10.0, 20.0, 30.0, 45.0])
        before = fitkernel.snapshot()
        assert not fit_poisson(design, counts, max_iter=1).converged
        assert fit_poisson(design, counts).converged
        assert (fitkernel.snapshot() - before).nonconverged == 1


@pytest.fixture(scope="module")
def final_fits():
    """The final fit of every window and level of both ``-14`` sweeps."""
    fits = {}
    for seed in (20140630, 3):
        internet = SyntheticInternet(SimulationConfig(scale=2.0**-14, seed=seed))
        executor = Executor(internet)
        for window in standard_windows():
            for level in FIT_LEVELS:
                selection = executor.run("fit", window, level=level)
                fits[seed, window.label(), level] = selection.fit
    return fits


def test_flagged_final_fits(final_fits):
    assert len(final_fits) == 44
    flagged = {key for key, fit in final_fits.items() if fit.face}
    assert flagged == set(FLAGGED)
    for key, pairs in FLAGGED.items():
        fit = final_fits[key]
        names = fit.table.source_names
        expected = F().union(
            *(
                cells_without(fit.table, names.index(inside), names.index(outside))
                for inside, outside in pairs
            )
        )
        assert fit.face == expected
        # The optimiser still reports convergence: only the face says
        # that this MLE does not exist.
        assert fit.converged


def test_face_is_the_lp_facial_set(final_fits):
    for key, fit in final_fits.items():
        assert lp_face(fit.table, fit.terms) == fit.face, key
