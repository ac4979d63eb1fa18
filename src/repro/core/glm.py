"""Poisson generalised linear model with log link, fitted by IRLS.

This is the numerical engine behind the log-linear capture-recapture
models: cell counts ``z_s`` are modelled as Poisson with
``log E[Z_s] = X u`` (the paper's equation 1), or as Poisson
right-truncated at a limit ``l`` (Section 3.3.1), and the maximum
likelihood parameters are found by iteratively reweighted least
squares.  Both likelihoods are concave exponential families in the
linear predictor, so one loop fits both and reaches the same optimum
from any start.  Each IRLS step solves its weighted least-squares problem
through :mod:`repro.core.fitkernel` — a Cholesky factorisation of the
normal equations with an ``lstsq`` fallback — and handles the
degeneracies real contingency tables produce: zero cells, collinear
designs, and separation (fitted means running away), via the fallback
solve and step halving.  Fits accept a ``beta0`` warm start so scans
over near-identical models (stepwise selection, profile likelihood)
skip the cold initialisation and most iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlogy

from repro.core import fitkernel
from repro.core.truncated import LogPartition, truncation_terms


class GlmError(RuntimeError):
    """Raised when a fit cannot be computed at all (e.g. empty data)."""


@dataclass(frozen=True)
class GlmFit:
    """A fitted Poisson GLM.

    ``loglik`` is split into two stored parts: ``loglik_kernel`` is
    ``y . log(mu) - sum(mu)``, less ``sum(log F(l; mu))`` for a
    truncated fit (the part the IRLS loop tracks anyway for its
    deviance bookkeeping), and ``loglik_norm`` is the data-constant
    ``sum(gammaln(y + 1))`` normaliser — so constructing a fit never
    pays for a gammaln pass the caller may not need.  ``fitted`` holds
    the Poisson rates ``mu = exp(X coef)``, truncated or not.
    """

    coef: np.ndarray
    fitted: np.ndarray
    deviance: float
    iterations: int
    converged: bool
    loglik_kernel: float
    loglik_norm: float

    @property
    def loglik(self) -> float:
        """Poisson log-likelihood (including the gammaln normaliser)."""
        return self.loglik_kernel - self.loglik_norm

    @property
    def num_params(self) -> int:
        return int(self.coef.size)

    @property
    def intercept(self) -> float:
        return float(self.coef[0])


#: Cap on the linear predictor, keeping exp() finite on bad steps.
_ETA_MAX = 700.0
#: Floor on fitted means, keeping logs finite for zero cells.
_MU_MIN = 1e-10
#: log(_MU_MIN): clipping eta below at this floors mu = exp(eta) at
#: _MU_MIN while keeping log(mu) == eta exact — one guard, both ends.
_ETA_MIN = float(np.log(_MU_MIN))
#: Smallest stack worth the batched IRLS loop; below this the fixed
#: per-iteration overhead beats the shared flops (at t = 9 one member
#: takes the batched loop 2-3x what :func:`fit_poisson` takes).
_MIN_BATCH = 4
#: Relative margin by which a raced member's duality bound must miss
#: before it is retired.  The bound undershoots the log-likelihood a
#: member converges to only by round-off (at worst 5.4e-14 of the
#: objective over the 31,202 bounded trips of the -14 reference sweep,
#: at members already converged), and a line search may accept a step
#: that loses 5e-13 (1 + deviance); 1e-9 keeps every retirement a sure
#: loser.
_RACE_MARGIN = 1e-9


def poisson_loglik(y: np.ndarray, mu: np.ndarray) -> float:
    """Poisson log-likelihood (including the gammaln normaliser)."""
    y = np.asarray(y, dtype=np.float64)
    mu = np.maximum(np.asarray(mu, dtype=np.float64), _MU_MIN)
    return float(np.sum(y * np.log(mu) - mu - gammaln(y + 1.0)))


def poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    """Residual deviance ``2 [l(y; y) - l(y; mu)]``."""
    y = np.asarray(y, dtype=np.float64)
    mu = np.maximum(np.asarray(mu, dtype=np.float64), _MU_MIN)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


#: Per-counts fit constants, keyed on the raw bytes of the count vector
#: (content-hashed, so in-place mutation between calls cannot poison an
#: entry).  Selection fits dozens of candidates and benchmarks fit the
#: same table thousands of times; the saturated part of the deviance and
#: the gammaln normaliser only depend on the counts.
_Y_CONSTANTS: dict[bytes, tuple[float, float]] = {}
_Y_CONSTANTS_MAX = 256


def _y_constants(y: np.ndarray) -> tuple[float, float]:
    """``(sat_part, loglik_norm)`` for a count vector, memoised.

    ``sat_part = sum(y log y) - sum(y)`` is the saturated half of the
    deviance (``deviance = 2 (sat_part - L)``);
    ``loglik_norm = sum(gammaln(y + 1))`` completes the likelihood.
    """
    key = y.tobytes()
    hit = _Y_CONSTANTS.get(key)
    if hit is None:
        sat_part = float(xlogy(y, y).sum()) - float(y.sum())
        norm = float(gammaln(y + 1.0).sum())
        if len(_Y_CONSTANTS) >= _Y_CONSTANTS_MAX:
            _Y_CONSTANTS.clear()
        hit = (sat_part, norm)
        _Y_CONSTANTS[key] = hit
    return hit


class _State(NamedTuple):
    """One IRLS iterate: the objective ``L`` and the working moments of
    the next step (``mean`` and ``weight`` are both ``mu`` for the plain
    Poisson; the truncated mean and floored variance otherwise, with the
    truncated log-partition).  ``shift`` is what the overflow guard
    added to ``X beta`` to get ``eta`` (``None`` when nothing was
    clipped)."""

    eta: np.ndarray
    mu: np.ndarray
    L: float
    mean: np.ndarray
    weight: np.ndarray
    partition: LogPartition | None
    shift: np.ndarray | None = None


def _gain(y, old: _State, new: _State, limit) -> float:
    """Log-likelihood gain ``L(new) - L(old)`` between two fit states,
    free of cancellation.

    Differencing the two objectives loses every digit below
    ``eps * |L|``, which near a saturated optimum is the whole gain: the
    line search would judge the last Newton steps by rounding noise and
    stop short of the optimum.  Summing ``y d - mu expm1(d)`` over
    ``d = eta' - eta`` — plus the truncated log-partition's own change —
    keeps the gain accurate to its own last digits.
    """
    delta = new.eta - old.eta
    with np.errstate(over="ignore"):
        change = old.mu * np.expm1(delta)
    if limit is not None:
        change = old.partition.change(new.partition, delta, change, limit)
    return float(y @ delta) - float(change.sum())


def fit_poisson(
    design: np.ndarray,
    counts: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-9,
    beta0: np.ndarray | None = None,
    limit: float | None = None,
) -> GlmFit:
    """Fit a log-link Poisson GLM by IRLS with step halving.

    ``design`` is (cells x params), ``counts`` the observed cell
    counts.  ``limit`` fits the Poisson right-truncated at that
    inclusive bound instead: each step then weights by the truncated
    variance and targets the truncated mean (see
    :func:`~repro.core.truncated.truncation_terms`), which is Fisher
    scoring on a concave likelihood.  ``beta0`` optionally warm-starts
    the iteration from known coefficients (e.g. a neighbouring model's
    fit); both likelihoods are concave, so the converged optimum is a
    cold start's within ``tol``, only reached in fewer iterations.
    Returns the ML fit; ``converged`` is False when the deviance was
    still moving after ``max_iter`` iterations (the fit is still usable
    — selection treats it like any other candidate).
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(counts, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise GlmError(f"design {X.shape} incompatible with counts {y.shape}")
    if X.shape[0] == 0:
        raise GlmError("empty data")
    if limit is not None:
        if np.any(y > limit):
            raise ValueError("a cell count exceeds the truncation limit")
        limit = float(np.floor(limit))

    solver = fitkernel.IrlsSolver(X)
    predict = solver.linear_predictor
    # Per-fit constants: deviance = 2 * (sat_part - L) with
    # L = y . log(mu) - sum(mu) (less the truncated log F), so the
    # deviance costs nothing beyond the objective itself.
    sat_part, loglik_norm = _y_constants(y)

    def moments(eta: np.ndarray, mu: np.ndarray, shift=None) -> _State:
        if limit is None:
            L = float(y @ eta) - float(mu.sum())
            return _State(eta, mu, L, mu, mu, None, shift)
        partition, mean, variance = truncation_terms(eta, mu, limit)
        L = float(y @ eta) - partition.total()
        return _State(
            eta, mu, L, mean, np.maximum(variance, _MU_MIN), partition, shift
        )

    def eval_state(eta: np.ndarray) -> _State:
        """The state at a candidate predictor, with overflow guards.

        Clipping eta into [_ETA_MIN, _ETA_MAX] floors mu at _MU_MIN and
        caps it below overflow in one pass, and keeps log(mu) == eta
        exact — so L never needs a log.  The common path (everything in
        range) costs only the two bound checks.
        """
        if eta.max() > _ETA_MAX or eta.min() < _ETA_MIN:
            clipped = np.clip(eta, _ETA_MIN, _ETA_MAX)
            return moments(clipped, np.exp(clipped), clipped - eta)
        return moments(eta, np.exp(eta))

    warm = fitkernel.usable_warm_start(beta0, X.shape[1])
    if warm:
        beta = np.asarray(beta0, dtype=np.float64).copy()
        current = eval_state(predict(beta))
        have_beta = True
    else:
        # Cold start from the saturated-ish state mu = y + 0.5: cheap,
        # always in the domain, and it feeds the first IRLS step
        # directly — no projection solve before the loop.
        mu = y + 0.5
        current = moments(np.log(mu), mu)
        beta = None
        have_beta = False
    dev = 2.0 * (sat_part - current.L)

    z = np.empty_like(y)
    iterations = 0
    converged = False
    prev_improvement = 0.0
    for iterations in range(1, max(max_iter, 1) + 1):
        # Working residual (y - mean) / weight, built in place.
        np.subtract(y, current.mean, out=z)
        np.divide(z, current.weight, out=z)
        if not have_beta:
            # First cold step: the starting deviance is near-saturated
            # (not model-feasible), so monotone step halving would
            # reject everything — accept the projection of the working
            # response eta + residual outright.
            np.add(z, current.eta, out=z)
            beta = solver.solve(current.weight, z)
            current = eval_state(predict(beta))
            dev = 2.0 * (sat_part - current.L)
            have_beta = True
            continue
        # Solve for the Newton step, not for the next coefficients: the
        # solve's rounding then shrinks with the step instead of
        # standing at ~cond * eps * |beta|, where each start would stop
        # at its own point.  Clipped cells step from where the guard put
        # them, as the working response eta + residual does.
        if current.shift is not None:
            np.add(z, current.shift, out=z)
        beta_new = beta + solver.solve(current.weight, z)
        # Step-halving line search on the deviance (twice the gain).  A
        # NaN gain fails the acceptance comparison, so bad steps shrink
        # away.
        floor = -1e-12 * (1.0 + abs(dev))
        step = 1.0
        for _ in range(30):
            candidate = (
                beta_new if step == 1.0 else beta + step * (beta_new - beta)
            )
            state = eval_state(predict(candidate))
            improvement = 2.0 * _gain(y, current, state, limit)
            if improvement >= floor:
                break
            step /= 2.0
        else:
            candidate, state, improvement = beta, current, 0.0
        beta, current = candidate, state
        dev = 2.0 * (sat_part - current.L)
        threshold = tol * (abs(dev) + tol)
        if improvement < threshold:
            converged = True
            break
        if (
            step == 1.0
            and prev_improvement > 0.0
            and improvement * improvement < prev_improvement * threshold * 1e-3
        ):
            # Quadratic convergence: with full Newton steps the next
            # improvement is ~ improvement^2 / prev_improvement.  When
            # that prediction sits 1000x below the deviance tolerance,
            # the next iteration is a pure confirmation pass — skip it.
            converged = True
            break
        prev_improvement = improvement

    fitkernel.record(
        fits=1,
        irls_iterations=iterations,
        warm_start_hits=int(warm),
        nonconverged=int(not converged),
    )
    return GlmFit(
        coef=beta,
        fitted=current.mu,
        deviance=dev,
        iterations=iterations,
        converged=converged,
        loglik_kernel=current.L,
        loglik_norm=loglik_norm,
    )


def _eval_state_batch(beta, y, solver, members=None):
    """Batched ``eval_state``: (eta, mu, L, exact) rows for a coefficient block.

    ``beta`` is (A, p), ``y`` the (A, n) counts, and ``members`` the
    indices of the block's members in the ``solver``'s design stack
    (``None``: the whole stack; the solver computes each
    ``eta_g = X_g beta_g``).  One min and one max per row decide the
    overflow guard: clipping is applied to the whole block when any
    entry strays — clipping is idempotent and only touches entries that
    are out of range, so per-member results match the sequential guard
    exactly — and ``exact`` flags the rows with every entry strictly
    inside the guard's bounds, where ``eta`` is ``X beta`` as computed.
    """
    eta = solver.linear_predictor(beta, members)
    lo, hi = eta.min(axis=1), eta.max(axis=1)
    if eta.size and (hi.max() > _ETA_MAX or lo.min() < _ETA_MIN):
        eta = np.clip(eta, _ETA_MIN, _ETA_MAX)
    mu = np.exp(eta)
    L = np.einsum("an,an->a", y, eta) - mu.sum(axis=1)
    return eta, mu, L, (lo > _ETA_MIN) & (hi < _ETA_MAX)


def _gain_batch(y, mu, d):
    """Twice :func:`_gain` per row, for plain Poisson states ``mu``
    moving their predictors by ``d``.  An ``expm1`` overflow makes the
    gain ``-inf``, a rejected step; the caller ignores the warning."""
    return 2.0 * (
        np.einsum("an,an->a", y, d) - np.einsum("an,an->a", mu, np.expm1(d))
    )


def _dual_bound(mu, L, d):
    """Upper bound on each row's maximum log-likelihood kernel.

    ``(mu, L)`` is an unclipped plain-Poisson iterate and ``d`` the
    change its full Newton step makes to its unclipped predictor, so
    ``d = X Delta`` for the step ``Delta`` that solves
    ``X' W X Delta = X' (y - mu)`` with ``W = mu``.  The means
    ``m = mu (1 + d)`` then satisfy ``X' m = X' y``, and Fenchel duality
    bounds the likelihood over every coefficient vector by
    ``sum(m log m - m)``, which is
    ``L + sum(mu [(1 + d) log1p(d) - d])`` (``y . eta = m . eta`` since
    ``eta = X beta``).  Rows with some ``d <= -1`` have no such ``m``
    (their sum comes out NaN; the caller ignores the warning) and get
    ``+inf``; the bound is tight at the optimum, where ``d`` vanishes.
    """
    gap = np.log1p(d)
    gap *= 1.0 + d
    gap -= d
    gap *= mu
    upper = L + gap.sum(axis=1)
    return np.where(np.isnan(upper), np.inf, upper)


def _line_search_batch(
    solver, y, beta, eta, mu, L, exact, floor, target, force, first, d
):
    """Batched step-halving line search of :func:`fit_poisson`.

    Every member first tries the full Newton step to ``target`` (taken
    verbatim, so it matches the sequential search bit for bit); members
    flagged in ``force`` (a cold start's first step) accept it outright.
    ``first`` is the full step's ``(eta, mu, L, exact)`` and ``d`` its
    predictor change ``first[0] - eta``.  Returns the accepted
    ``(beta, eta, mu, L, exact)``, each member's improvement (twice the
    gain) and whether it took the full step.  When every member accepts
    the full step — the common case — the evaluated candidate arrays
    are returned as they are.
    """
    gain = _gain_batch(y, mu, d)
    full = gain >= floor
    if force is not None:
        full |= force
    if full.all():
        return (target, *first, gain, full)
    # Members still searching all share one step size: they tried the
    # steps 1 .. 2**-29 of the sequential loop, and one that runs out
    # keeps its old state with zero improvement.
    accepted = [arr.copy() for arr in (beta, eta, mu, L, exact)]
    improvement = np.zeros(L.shape[0])
    ok, u, cand, state, step = full, np.arange(L.shape[0]), target, first, 1.0
    for k in range(30):
        if k:
            step /= 2.0
            cand = beta[u] + step * (target[u] - beta[u])
            state = _eval_state_batch(cand, y[u], solver, u)
            gain = _gain_batch(y[u], mu[u], state[0] - eta[u])
            ok = gain >= floor[u]
        a = u[ok]
        for acc, value in zip(accepted, (cand, *state)):
            acc[a] = value[ok]
        improvement[a] = gain[ok]
        u = u[~ok]
        if u.size == 0:
            break
    return (*accepted, improvement, full)


class Race(NamedTuple):
    """What each member of a candidate stack competes for.

    ``table`` labels each member with the search it is a candidate of
    (any ints; members of one table compete with each other) and
    ``floor`` holds the log-likelihood, gammaln normaliser included as
    in :attr:`GlmFit.loglik`, a member must exceed to be of any use —
    for a stepwise challenger, what beats the current model's IC.
    """

    table: np.ndarray
    floor: np.ndarray


class Candidates(NamedTuple):
    """A stepwise round's members, each one parent plus one column.

    With ``candidates``, the ``masks``, ``counts`` and ``beta0`` of
    :func:`fit_poisson_batch` describe ``T`` parents — ``(T, q)`` masks,
    ``(T, n)`` counts and ``T`` seeds of length ``q`` — and member ``g``
    fits parent ``parent[g]``'s design with the column ``column[g]``
    appended, started from that parent's seed with a 0 for the new
    coefficient.
    """

    parent: np.ndarray
    column: np.ndarray


def fit_poisson_batch(
    masks,
    counts: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-9,
    beta0=None,
    race: Race | None = None,
    candidates: Candidates | None = None,
) -> list[GlmFit | None]:
    """Fit a stack of capture-history Poisson GLMs with one batched IRLS loop.

    ``masks`` is (G, p) ints: each of G models' design columns as the
    history bitmask its indicator flags supersets of, the intercept's 0
    first — see :func:`~repro.core.fitkernel.lattice_design` for the
    implied designs over the ``n`` histories of ``counts``.  ``counts``
    is (G, n), or (n,) to share one count vector across the stack.
    ``beta0`` warm-starts members individually: ``None``, a (G, p)
    array, or a sequence of per-member vectors where ``None`` entries
    fall back to the cold initialiser.

    ``candidates`` poses a stepwise round instead (see
    :class:`Candidates`): ``masks``, ``counts`` and ``beta0`` then give
    each parent once — the candidates of every table of the same source
    count and parent size in one call — and the members are the
    parents' one-column extensions.  Members of one parent start from
    bitwise the same predictor, so their count constants, warm-start
    check, start state and first Newton system's superset sums are
    computed once per parent; each member then runs exactly the
    iteration it runs when passed on its own.

    Each member follows the exact :func:`fit_poisson` iteration —
    identical cold start, first-step acceptance, step-halving
    thresholds, and convergence tests.  The working state covers the
    members still moving: a member is gathered out once, when it
    converges, so every weighted solve and line search touches only
    active rows.  No dense design is built unless a member falls back
    to ``lstsq`` inside the solver (see
    :class:`~repro.core.fitkernel.BatchedIrlsSolver`).  Results match
    the sequential kernel to float round-off (well inside rtol 1e-8).

    ``race`` stops fitting members that cannot win.  Each trip bounds
    every member's maximum log-likelihood from above by
    :func:`_dual_bound`, from the full Newton step whether or not the
    line search takes it (where its current and full-step predictors
    are unclipped), and a member that has not converged and whose
    bound falls more than ``_RACE_MARGIN`` (relative) below its floor,
    or below the best log-likelihood any member of its table has
    reached, is retired unfitted: its entry in the returned list is
    ``None`` and it counts in ``candidates_pruned``.  A member that is
    not retired runs exactly the iterations it runs without a race.

    Stacks below ``_MIN_BATCH`` members run through :func:`fit_poisson`
    one by one, with no race: the batched loop's fixed per-iteration
    overhead (index bookkeeping, batched LAPACK dispatch) outweighs the
    shared flops for a handful of members, and the per-member path is
    bitwise what the sequential kernel computes anyway.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if masks.ndim != 2:
        raise GlmError(f"masks must be (G, p), got {masks.shape}")
    num_rows, n = masks.shape[0], np.shape(counts)[-1]
    if candidates is None:
        parent = None
        stack = masks
    else:
        parent = np.asarray(candidates.parent, dtype=np.intp)
        column = np.asarray(candidates.column, dtype=np.int64)
        if (
            parent.ndim != 1
            or column.shape != parent.shape
            or (parent.size and (parent.min() < 0 or parent.max() >= num_rows))
        ):
            raise GlmError(
                f"candidates must give each member one of {num_rows} parents "
                "and one column"
            )
        stack = np.column_stack([masks[parent], column])
    G, p = stack.shape
    if G == 0:
        return []
    if n == 0:
        raise GlmError("empty data")
    y = np.asarray(counts, dtype=np.float64)
    if y.ndim == 1:
        y = np.broadcast_to(y, (num_rows, n))
    if y.shape != (num_rows, n):
        raise GlmError(
            f"{num_rows} rows of {n} cells incompatible with counts {y.shape}"
        )
    seeds = [None] * num_rows if beta0 is None else list(beta0)
    if len(seeds) != num_rows:
        raise GlmError(f"beta0 has {len(seeds)} seeds for {num_rows} rows")
    if race is not None:
        owner = np.unique(np.asarray(race.table), return_inverse=True)[1]
        bar = np.asarray(race.floor, dtype=np.float64)
        if owner.shape != (G,) or bar.shape != (G,):
            raise GlmError(f"race must give a table and a floor for {G} members")
    if G < _MIN_BATCH:
        if parent is not None:
            seeds = [
                None if seeds[r] is None else np.append(seeds[r], 0.0)
                for r in parent
            ]
            y = y[parent]
        return [
            fit_poisson(
                fitkernel.lattice_design(stack[g], n),
                y[g],
                max_iter=max_iter,
                tol=tol,
                beta0=seeds[g],
            )
            for g in range(G)
        ]
    y = np.ascontiguousarray(y)
    solver = fitkernel.BatchedIrlsSolver(stack, n)
    start = solver if parent is None else fitkernel.BatchedIrlsSolver(masks, n)
    consts = np.array([_y_constants(row) for row in y])
    sat, norm = consts[:, 0], consts[:, 1]

    # Start state per row of ``masks``: a parent's members all start
    # from its predictor (their new coefficient is 0).  ``exact`` flags
    # rows whose eta is X beta — not a cold start, nothing clipped.
    warm = np.array([fitkernel.usable_warm_start(s, masks.shape[1]) for s in seeds])
    beta = np.zeros(masks.shape)
    for r in np.nonzero(warm)[0]:
        beta[r] = np.asarray(seeds[r], dtype=np.float64)
    if warm.all():
        eta, mu, L, exact = _eval_state_batch(beta, y, start)
        fresh = None
    else:
        # Cold start mu = y + 0.5, as in fit_poisson; the first step of
        # these members is accepted unconditionally below.
        fresh = ~warm
        mu = y + 0.5
        eta = np.log(mu)
        L = np.einsum("an,an->a", y, eta) - mu.sum(axis=1)
        exact = np.zeros(num_rows, dtype=bool)
        if warm.any():
            eta[warm], mu[warm], L[warm], exact[warm] = _eval_state_batch(
                beta[warm], y[warm], start, np.nonzero(warm)[0]
            )
    # The first Newton step, solved as a step as in fit_poisson.  Where
    # eta is not X beta — a cold first step, whose beta is 0, or a cell
    # the overflow guard clipped — the step also carries the difference,
    # as the working response eta + residual does.
    z = (y - mu) / mu
    if not exact.all():
        z += eta - start.linear_predictor(beta)
    step = solver.solve(mu, z, parent)
    if parent is not None:
        beta = np.column_stack([beta[parent], np.zeros(G)])
        eta, mu, L, exact, y, sat, norm, warm = (
            arr[parent] for arr in (eta, mu, L, exact, y, sat, norm, warm)
        )
        if fresh is not None:
            fresh = fresh[parent]
    dev = 2.0 * (sat - L)
    if race is not None:
        # Race on the loop's own objective, the log-likelihood less its
        # gammaln normaliser: the terms its round-off scales with.
        bar = bar + norm
        best = np.full(owner.max() + 1, -np.inf)

    fits: list[GlmFit | None] = [None] * G
    members = np.arange(G)  # stack index of each active row
    prev_improvement = np.zeros(G)

    def retire(rows, iterations, converged):
        for k in np.nonzero(rows)[0]:
            g = int(members[k])
            fits[g] = GlmFit(
                coef=beta[k].copy(),
                fitted=mu[k].copy(),
                deviance=float(dev[k]),
                iterations=iterations,
                converged=converged,
                loglik_kernel=float(L[k]),
                loglik_norm=float(norm[g]),
            )

    def outclassed(upper, L):
        """Active rows whose duality bound misses their floor or their
        table's best log-likelihood so far by more than the margin."""
        rows = owner[members]
        np.maximum.at(best, rows, L)
        need = np.maximum(bar[members], best[rows])
        return upper < need - _RACE_MARGIN * (1.0 + np.abs(need))

    total_iterations = 0
    pruned = 0
    it = 0
    # Overflow in a rejected step's gain and the NaN of a bound with no
    # dual point are expected; nothing else in the loop raises either.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, max(max_iter, 1) + 1):
            total_iterations += members.size
            if step is None:
                z = (y - mu) / mu
                if not exact.all():
                    z += eta - solver.linear_predictor(beta)
                step = solver.solve(mu, z)
            target = beta + step
            step = None
            floor = -1e-12 * (1.0 + np.abs(dev))
            first = _eval_state_batch(target, y, solver)
            d = first[0] - eta
            if race is not None:
                # The bound needs eta = X beta at both ends of the full
                # step: no cold first step and no clipped cell.
                upper = np.where(exact & first[3], _dual_bound(mu, L, d), np.inf)
            beta, eta, mu, L, exact, improvement, full = _line_search_batch(
                solver, y, beta, eta, mu, L, exact, floor, target, fresh, first, d
            )
            dev = 2.0 * (sat - L)
            threshold = tol * (np.abs(dev) + tol)
            quad = (
                full
                & (prev_improvement > 0.0)
                & (improvement * improvement < prev_improvement * threshold * 1e-3)
            )
            done = (improvement < threshold) | quad
            prev_improvement = improvement
            if fresh is not None:
                # A cold first step only moves onto the model (see
                # fit_poisson): no convergence test, no improvement
                # history.
                done &= ~fresh
                prev_improvement[fresh] = 0.0
            out = done
            if race is not None:
                lost = ~done & outclassed(upper, L)
                pruned += int(lost.sum())
                out = done | lost
            fresh = None
            if out.any():
                retire(done, it, True)
                keep = ~out
                members = members[keep]
                if members.size == 0:
                    break
                beta, eta, mu, L, exact, y, sat, dev, prev_improvement = (
                    arr[keep]
                    for arr in (
                        beta, eta, mu, L, exact, y, sat, dev, prev_improvement
                    )
                )
                solver = solver.subset(keep)
    retire(np.ones(members.size, dtype=bool), it, False)

    fitkernel.record(
        fits=G,
        irls_iterations=total_iterations,
        warm_start_hits=int(warm.sum()),
        candidates_pruned=pruned,
        nonconverged=members.size,
    )
    return fits
