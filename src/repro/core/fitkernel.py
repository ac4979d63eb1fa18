"""The fit kernel: fast weighted solves and fit instrumentation.

Every GLM fit in this repo bottoms out in one numerical primitive —
solving the weighted least-squares normal equations of an IRLS step.
This module owns that primitive and the counters that make the fit
layer observable:

* :class:`IrlsSolver` solves the normal equations with a
  Cholesky factorisation (O(n p^2 + p^3) instead of the O(n p^2) SVD
  with a much larger constant that ``np.linalg.lstsq`` pays), falling
  back to ``lstsq`` — the old behaviour, pseudo-inverse semantics and
  all — whenever the factorisation fails or produces a non-finite
  solution (rank-deficient or otherwise degenerate designs).
* :class:`BatchedIrlsSolver` runs the same solve over a stack of
  capture-history indicator designs — every stepwise candidate — on
  the history lattice itself: each member is just its columns'
  bitmasks, the normal equations are lookups into a zeta transform of
  the weights computed as two small gemms against constant 0/1
  factors, one batched Cholesky checks the ``(G, p, p)`` stack, and a
  member's dense design is built only if it falls back to ``lstsq``.
  Stepwise selection groups its candidate fits through it (see
  :func:`repro.core.glm.fit_poisson_batch`).
* :class:`FitCounters` and the module-level totals record fits, IRLS
  iterations run and saved, warm-start hits, memoisation hits, Cholesky
  fallbacks, design-matrix cache traffic, and fits that did not
  converge or sit on a boundary.  The engine snapshots the
  totals around every stage execution and attaches the delta to the
  stage's record, so ``--report`` shows where the fit work went.

Counter semantics:

* ``fits`` / ``irls_iterations`` — IRLS fits started (plain and
  truncated) and the iterations they actually ran.
* ``candidates_pruned`` — raced stepwise candidates retired unfitted
  once a duality bound showed they could not win their round (see
  :func:`repro.core.glm.fit_poisson_batch`).
* ``warm_start_hits`` — fits that started from caller-provided
  coefficients instead of the cold least-squares initialiser.
* ``memo_hits`` / ``iterations_saved`` — fits avoided entirely because
  an identical ``(terms -> fit)`` was memoised; ``iterations_saved``
  accumulates the iteration count the memoised fit originally needed
  (the work a cold refit would have repeated).
* ``cholesky_fallbacks`` — weighted solves that fell back to ``lstsq``.
* ``design_cache_hits`` / ``design_cache_misses`` — design-matrix
  memoisation traffic (see :func:`repro.core.design.design_matrix`).
* ``nonconverged`` — fits that ran out of iterations before their
  deviance settled (``converged=False``); raced candidates retired
  unfitted are pruned, not counted here.
* ``boundary`` — model fits (:meth:`repro.core.loglinear.LoglinearModel.fit`)
  whose MLE does not exist because a zero margin contrast puts cells
  on a face (see :func:`repro.core.loglinear.contrast_face`).

The totals are process-local; engine workers ship their deltas back to
the parent inside stage records, exactly like wall-time instrumentation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from functools import cache, partial

import numpy as np
from scipy.linalg.lapack import dposv


@dataclass(frozen=True)
class FitCounters:
    """Immutable bundle of fit-kernel counters (see module docstring)."""

    fits: int = 0
    irls_iterations: int = 0
    candidates_pruned: int = 0
    iterations_saved: int = 0
    warm_start_hits: int = 0
    memo_hits: int = 0
    cholesky_fallbacks: int = 0
    design_cache_hits: int = 0
    design_cache_misses: int = 0
    nonconverged: int = 0
    boundary: int = 0

    def __add__(self, other: "FitCounters") -> "FitCounters":
        return FitCounters(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __sub__(self, other: "FitCounters") -> "FitCounters":
        return FitCounters(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __bool__(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for JSON reports."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}


#: This process's totals, one entry per :class:`FitCounters` field.
_TOTALS = {f.name: 0 for f in fields(FitCounters)}
_TOTALS_LOCK = threading.Lock()


def record(**deltas: int) -> None:
    """Add deltas to this process's totals (thread-safe)."""
    with _TOTALS_LOCK:
        for name, value in deltas.items():
            _TOTALS[name] += value


def snapshot() -> FitCounters:
    """The current totals; subtract two snapshots to scope a region."""
    with _TOTALS_LOCK:
        return FitCounters(**_TOTALS)


def reset_counters() -> None:
    """Zero the totals (tests and benchmarks)."""
    with _TOTALS_LOCK:
        for name in _TOTALS:
            _TOTALS[name] = 0


#: Cholesky pivot-ratio floor below which a solve is considered
#: degenerate (pivot ratio r implies cond(X'WX) >~ 1/r^2).
_PIVOT_RTOL = 1e-7


def _solve_normal(normal, rhs, weights, target, design) -> np.ndarray:
    """One member's ``argmin_b || sqrt(w) (X b - target) ||``.

    Solves the weighted normal equations ``normal b = rhs`` with one
    LAPACK ``dposv`` (Cholesky factor-and-solve) — the raw routine,
    because at contingency-table sizes (a few hundred cells, a few
    dozen parameters) wrapper overhead, not flops, dominates the fit.
    Falls back to the pseudo-inverse solve, ``np.linalg.lstsq`` on the
    sqrt-weighted design, whenever ``dposv`` reports a
    non-positive-definite system or the factor's pivot ratio betrays
    near-singularity (rank-deficient or otherwise degenerate designs —
    float Cholesky can slip past an exactly collinear design on a tiny
    positive pivot; NaNs fail the pivot comparison too).  ``design()`` returns the dense ``(n, p)``
    design and is called only on that fallback, which is counted in
    :class:`FitCounters`.
    """
    factor, solution, info = dposv(normal, rhs, lower=1)
    if info == 0:
        pivots = factor.diagonal()
        if pivots.min() > _PIVOT_RTOL * pivots.max():
            return solution
    record(cholesky_fallbacks=1)
    w = np.sqrt(np.maximum(weights, 1e-12))
    solution, *_ = np.linalg.lstsq(design() * w[:, None], target * w, rcond=None)
    return solution


class IrlsSolver:
    """Weighted least-squares solves bound to one design matrix.

    One instance serves every IRLS step of one fit: the weighted design
    buffer is allocated once, and each :meth:`solve` is two BLAS calls
    plus the shared Cholesky-or-``lstsq`` solve.
    """

    __slots__ = ("_X", "_XT", "_XwT")

    def __init__(self, X: np.ndarray):
        self._X = X
        # The transposed copy makes both the weighting (a contiguous
        # row-major broadcast instead of a column-strided one) and the
        # gemv right-hand sides measurably cheaper at kernel sizes.
        self._XT = np.ascontiguousarray(X.T)
        self._XwT = np.empty_like(self._XT)

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        """``eta = X beta`` (one gemv against the contiguous transpose)."""
        return beta @ self._XT

    def solve(self, weights: np.ndarray, target: np.ndarray) -> np.ndarray:
        """``argmin_b || sqrt(w) (X b - target) ||`` for this design: the
        weighted normal equations ``X' W X b = X' W target``, formed
        without square roots, through :func:`_solve_normal`."""
        XwT = self._XwT
        np.multiply(self._XT, weights, out=XwT)
        return _solve_normal(
            XwT @ self._X, XwT @ target, weights, target, lambda: self._X
        )


@cache
def _zeta_factor(bits: int) -> np.ndarray:
    """The read-only 0/1 matrix ``M[h, m] = (h & m == m)`` over
    ``bits``-bit masks: ``x @ M`` sums each row over supersets, and
    ``x @ M.T`` over subsets."""
    codes = np.arange(1 << bits)
    factor = ((codes[:, None] & codes[None, :]) == codes[None, :]).astype(
        np.float64
    )
    factor.setflags(write=False)
    return factor


def _superset_sums(table: np.ndarray, t: int) -> np.ndarray:
    """Zeta transform over supersets, batched on axis 0.

    Returns ``Z`` with ``Z[:, m] = sum_{h : h & m == m} table[:, h]``
    for every ``t``-bit mask ``m``.  The superset relation factors over
    the low ``t // 2`` bits and the high rest, so on a
    ``(rows, 2**hi, 2**lo)`` view the transform is two small gemms
    against the constant factors: low bits first, then high.
    """
    rows = table.shape[0]
    lo = t // 2
    hi = t - lo
    view = table.reshape(rows, 1 << hi, 1 << lo)
    summed = np.matmul(_zeta_factor(hi).T, view @ _zeta_factor(lo))
    return summed.reshape(rows, 1 << t)


def _subset_sums(table: np.ndarray, t: int) -> np.ndarray:
    """Zeta transform over subsets, batched on axis 0: returns ``S`` with
    ``S[:, h] = sum_{m : m & h == m} table[:, m]`` (factored like
    :func:`_superset_sums`)."""
    rows = table.shape[0]
    lo = t // 2
    hi = t - lo
    view = table.reshape(rows, 1 << hi, 1 << lo)
    summed = np.matmul(_zeta_factor(hi), view @ _zeta_factor(lo).T)
    return summed.reshape(rows, 1 << t)


def _lattice_shape(n: int) -> tuple[int, int]:
    """``(t, offset)`` for ``n`` rows covering a ``t``-bit history
    lattice, without (``offset`` 1) or with (0) the all-zero history."""
    if n >= 2 and n & (n + 1) == 0:  # n = 2**t - 1: histories 1 .. 2**t-1
        return (n + 1).bit_length() - 1, 1
    if n >= 2 and n & (n - 1) == 0:  # n = 2**t: history 0 included
        return n.bit_length() - 1, 0
    raise ValueError(f"{n} design rows do not cover a history lattice")


def lattice_design(masks, rows: int) -> np.ndarray:
    """The dense ``(rows, p)`` indicator design one row of masks describes.

    Column ``j`` flags the capture histories that are supersets of
    ``masks[j]`` (the intercept's mask is 0); the rows are the histories
    in bitmask order, ``1 .. 2**t - 1`` for ``rows = 2**t - 1`` or
    ``0 .. 2**t - 1`` for ``rows = 2**t`` — exactly what
    :func:`~repro.core.design.design_matrix` builds, without or with
    the unobserved row.
    """
    _, offset = _lattice_shape(rows)
    histories = np.arange(offset, offset + rows, dtype=np.int64)[:, None]
    masks = np.asarray(masks, dtype=np.int64)[None, :]
    return ((histories & masks) == masks).astype(np.float64)


def _has_duplicates(masks: np.ndarray) -> bool:
    """Whether any row of a ``(G, p)`` mask stack repeats a mask."""
    sorted_masks = np.sort(masks, axis=1)
    return bool((sorted_masks[:, 1:] == sorted_masks[:, :-1]).any())


class BatchedIrlsSolver:
    """Weighted least-squares solves for a stack of history-indicator designs.

    The batched analogue of :class:`IrlsSolver`, bound to a stack of
    ``G`` designs given by their column masks alone: ``masks`` is
    ``(G, p)``, each member's column bitmasks (the intercept's 0 first)
    over the ``rows`` capture histories — see :func:`lattice_design`
    for the implied designs.  Every column is the superset indicator of
    its mask, so the normal equations collapse to table lookups into one
    superset-sum (zeta) transform of the weights:

    ``(X'WX)[j,k] = sum_{h >= mask_j | mask_k} w_h = Z(w)[mask_j | mask_k]``

    The transform of a whole stack is two small gemms (see
    :func:`_superset_sums`) instead of the ``n * p**2`` gemm per
    member, and the linear predictor is likewise a subset-sum of the
    coefficients scattered onto their masks — so IRLS never touches a
    dense design.  The flat gather and scatter indices are laid out
    once per stack: ``normal_idx`` and ``rhs_idx`` read a ``(G, 2,
    2**t)`` table of transformed weights and weighted targets,
    ``coef_idx`` writes coefficients into a ``(G, 2**t)`` table.

    Each :meth:`solve` factorises the ``(G, p, p)`` stack with one
    batched Cholesky; members whose factor fails (non-PD) or whose pivot
    ratio betrays near-singularity are re-solved one at a time through
    :func:`_solve_normal` — ``dposv`` then the ``lstsq`` fallback on a
    dense design built from the member's masks — so degenerate members
    cost what they always did and healthy members share the batched
    flops.
    """

    __slots__ = (
        "t", "offset", "masks", "duplicates", "normal_idx", "rhs_idx", "coef_idx"
    )

    def __init__(self, masks, rows: int):
        masks = np.ascontiguousarray(masks, dtype=np.int64)
        if masks.ndim != 2:
            raise ValueError(f"masks must be (G, p), got shape {masks.shape}")
        t, offset = _lattice_shape(rows)
        if masks.size and (masks.min() < 0 or masks.max() >= 1 << t):
            raise ValueError(f"masks must be {t}-bit history bitmasks")
        G, p = masks.shape
        size = 1 << t
        self.t = t
        self.offset = offset
        self.masks = masks
        stride = np.arange(G, dtype=np.int64)[:, None] * size
        self.coef_idx = masks + stride
        union = (masks[:, :, None] | masks[:, None, :]).reshape(G, p * p)
        self.normal_idx = union + 2 * stride
        self.rhs_idx = masks + 2 * stride + size
        # Distinct columns can share a mask only in degenerate designs
        # (duplicate columns); those need the accumulate-scatter.
        self.duplicates = _has_duplicates(masks)

    @property
    def rows(self) -> int:
        return (1 << self.t) - self.offset

    def subset(self, keep: np.ndarray) -> "BatchedIrlsSolver":
        """The solver over the members a boolean ``keep`` selects.

        The kept members' index rows are sliced and re-based onto their
        new stack positions instead of being rebuilt from the masks.
        """
        kept = np.flatnonzero(keep)
        size = 1 << self.t
        rebase = (np.arange(kept.size, dtype=np.int64) - kept)[:, None] * size
        solver = object.__new__(BatchedIrlsSolver)
        solver.t = self.t
        solver.offset = self.offset
        solver.masks = self.masks[kept]
        solver.coef_idx = self.coef_idx[kept] + rebase
        solver.normal_idx = self.normal_idx[kept] + 2 * rebase
        solver.rhs_idx = self.rhs_idx[kept] + 2 * rebase
        solver.duplicates = self.duplicates and _has_duplicates(solver.masks)
        return solver

    def linear_predictor(
        self, beta: np.ndarray, members: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-member ``eta_g = X_g beta_g`` for ``(A, p)`` coefficients
        of all members, or of the ones ``members`` indexes."""
        size = 1 << self.t
        table = np.zeros((beta.shape[0], size))
        if members is None:
            index = self.coef_idx
        else:
            index = self.masks[members] + size * np.arange(
                beta.shape[0], dtype=np.int64
            )[:, None]
        if self.duplicates:
            # Accumulate-scatter: a degenerate member may carry duplicate
            # columns, whose contributions must sum into one mask slot.
            np.add.at(table.reshape(-1), index, beta)
        else:
            table.reshape(-1)[index] = beta
        return _subset_sums(table, self.t)[:, self.offset:]

    def solve(
        self,
        weights: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-member ``argmin_b || sqrt(w_g) (X_g b - target_g) ||``.

        ``weights`` and ``target`` are ``(G, n)``, or ``(R, n)`` with
        ``rows`` giving each member's row: members that share a row
        share its superset sums, transformed once.  Returns ``(G, p)``.
        """
        G, p = self.masks.shape
        size = 1 << self.t
        table = np.zeros((weights.shape[0], 2, size))
        table[:, 0, self.offset:] = weights
        np.multiply(weights, target, out=table[:, 1, self.offset:])
        sums = _superset_sums(table.reshape(-1, size), self.t)
        normal_idx, rhs_idx = self.normal_idx, self.rhs_idx
        if rows is not None:
            rebase = (2 * size) * (rows - np.arange(G, dtype=np.int64))[:, None]
            normal_idx = normal_idx + rebase
            rhs_idx = rhs_idx + rebase
        normal = sums.take(normal_idx).reshape(G, p, p)
        rhs = sums.take(rhs_idx)
        try:
            factor = np.linalg.cholesky(normal)
            pivots = np.diagonal(factor, axis1=1, axis2=2)
            # NaN pivots compare False, routing poisoned members to the
            # per-member fallback exactly like the sequential kernel.
            healthy = pivots.min(axis=1) > _PIVOT_RTOL * pivots.max(axis=1)
            # The factorisation's job here is the health check; the
            # solve itself goes through one batched LU of the normal
            # matrix (numpy has no batched triangular solve — chaining
            # two ``solve`` calls on the factor would LU-factorise
            # twice for no accuracy gain on these tiny SPD systems).
            solution = np.linalg.solve(normal, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            healthy = np.zeros(G, dtype=bool)
            solution = np.empty((G, p))
        for a in np.nonzero(~healthy)[0]:
            r = a if rows is None else rows[a]
            solution[a] = _solve_normal(
                normal[a], rhs[a], weights[r], target[r],
                partial(lattice_design, self.masks[a], self.rows),
            )
        return solution


def usable_warm_start(beta0: np.ndarray | None, num_params: int) -> bool:
    """Whether ``beta0`` can seed a fit with ``num_params`` columns.

    Rejects a wrong-length or non-finite vector quietly (callers fall
    back to the cold initialiser) but raises on a non-1-D array: a
    ``(1, p)`` row vector is a caller bug that a silent ``False`` would
    bury as a mysteriously cold fit.
    """
    if beta0 is None:
        return False
    beta0 = np.asarray(beta0)
    if beta0.ndim != 1:
        raise ValueError(
            "warm-start coefficients must be a 1-D vector, got shape "
            f"{beta0.shape}; ravel a (1, p) row vector before seeding"
        )
    return beta0.shape == (num_params,) and bool(np.all(np.isfinite(beta0)))
