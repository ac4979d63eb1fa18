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
#: per-iteration overhead beats the shared flops (measured crossover on
#: the t=9 profile scan, whose lockstep batches are pairs).
_MIN_BATCH = 4


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
    XT = solver.design_t  # contiguous transpose: beta @ XT == X @ beta
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
        current = eval_state(beta @ XT)
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
            current = eval_state(beta @ XT)
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
            state = eval_state(candidate @ XT)
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
        fits=1, irls_iterations=iterations, warm_start_hits=int(warm)
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
    """Batched ``eval_state``: (eta, mu, L) rows for a coefficient block.

    ``beta`` is (A, p), ``y`` the (A, n) counts, and ``members`` the
    indices of the block's members in the ``solver``'s design stack
    (``None``: the whole stack; the solver computes each
    ``eta_g = X_g beta_g``).  Clipping is applied to the whole block
    when any entry strays — clipping is idempotent and only touches
    entries that are out of range, so per-member results match the
    sequential guard exactly.
    """
    eta = solver.linear_predictor(beta, members)
    if eta.size and (eta.max() > _ETA_MAX or eta.min() < _ETA_MIN):
        eta = np.clip(eta, _ETA_MIN, _ETA_MAX)
    mu = np.exp(eta)
    L = np.einsum("an,an->a", y, eta) - mu.sum(axis=1)
    return eta, mu, L


def _gain_batch(y, eta, mu, new_eta):
    """Twice :func:`_gain` per row, for plain Poisson states."""
    d = new_eta - eta
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * (
            np.einsum("an,an->a", y, d)
            - np.einsum("an,an->a", mu, np.expm1(d))
        )


def _line_search_batch(solver, y, beta, eta, mu, L, floor, target, force):
    """Batched step-halving line search of :func:`fit_poisson`.

    Every member first tries the full Newton step to ``target`` (taken
    verbatim, so it matches the sequential search bit for bit); members
    flagged in ``force`` (a cold start's first step) accept it outright.
    Returns the accepted ``(beta, eta, mu, L)``, each member's
    improvement (twice the gain) and whether it took the full step.
    When every member accepts the full step — the common case — the
    evaluated candidate arrays are returned as they are.
    """
    cand_eta, cand_mu, cand_L = _eval_state_batch(target, y, solver)
    gain = _gain_batch(y, eta, mu, cand_eta)
    full = gain >= floor
    if force is not None:
        full |= force
    if full.all():
        return target, cand_eta, cand_mu, cand_L, gain, full
    # Members still searching all share one step size: they tried the
    # steps 1 .. 2**-29 of the sequential loop, and one that runs out
    # keeps its old state with zero improvement.
    acc_beta, acc_eta, acc_mu, acc_L = beta.copy(), eta.copy(), mu.copy(), L.copy()
    improvement = np.zeros(L.shape[0])
    ok, u, cand, step = full, np.arange(L.shape[0]), target, 1.0
    for k in range(30):
        if k:
            step /= 2.0
            cand = beta[u] + step * (target[u] - beta[u])
            cand_eta, cand_mu, cand_L = _eval_state_batch(cand, y[u], solver, u)
            gain = _gain_batch(y[u], eta[u], mu[u], cand_eta)
            ok = gain >= floor[u]
        a = u[ok]
        acc_beta[a] = cand[ok]
        acc_eta[a] = cand_eta[ok]
        acc_mu[a] = cand_mu[ok]
        acc_L[a] = cand_L[ok]
        improvement[a] = gain[ok]
        u = u[~ok]
        if u.size == 0:
            break
    return acc_beta, acc_eta, acc_mu, acc_L, improvement, full


def fit_poisson_batch(
    designs: np.ndarray | None,
    counts: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-9,
    beta0=None,
    masks=None,
) -> list[GlmFit]:
    """Fit a stack of same-shape Poisson GLMs with one batched IRLS loop.

    ``designs`` is (G, n, p) — G models over the same cell count ``n``
    and parameter count ``p`` (stepwise candidates of one round, strata
    with equal source counts, profile-scan evaluation points).
    ``counts`` is (G, n), or (n,) to share one count vector across the
    stack.  ``beta0`` warm-starts members individually: ``None``, a
    (G, p) array, or a sequence of per-member vectors where ``None``
    entries fall back to the cold initialiser.

    A stack of capture-history indicator designs can instead be passed
    as ``designs=None`` with ``masks``, each design column's history
    bitmask (``(G, p)`` ints, the intercept's 0 first) over the ``n``
    histories of ``counts`` (see
    :func:`~repro.core.fitkernel.lattice_design`): no dense design is
    built unless a member falls back to ``lstsq`` or the stack is
    small.  Dense stacks have their lattice structure detected — see
    :class:`~repro.core.fitkernel.BatchedIrlsSolver`.

    Each member follows the exact :func:`fit_poisson` iteration —
    identical cold start, first-step acceptance, step-halving
    thresholds, and convergence tests.  The working state covers the
    members still moving: a member is gathered out once, when it
    converges, so every weighted solve and line search touches only
    active rows.  Degenerate members fall back per-member inside the
    solver.  Results match the sequential kernel to float round-off
    (well inside rtol 1e-8).

    Stacks below ``_MIN_BATCH`` members run through :func:`fit_poisson`
    one by one: the batched loop's fixed per-iteration overhead (index
    bookkeeping, batched LAPACK dispatch) outweighs the shared flops
    for a handful of members, and the per-member path is bitwise what
    the sequential kernel computes anyway.
    """
    if (designs is None) == (masks is None):
        raise GlmError("fit_poisson_batch takes either designs or column masks")
    if designs is None:
        masks = np.asarray(masks, dtype=np.int64)
        if masks.ndim != 2:
            raise GlmError(f"masks must be (G, p), got {masks.shape}")
        X = None
        (G, p), n = masks.shape, np.shape(counts)[-1]
    else:
        X = np.asarray(designs, dtype=np.float64)
        if X.ndim != 3:
            raise GlmError(f"design stack must be (G, n, p), got {X.shape}")
        G, n, p = X.shape
    if G == 0:
        return []
    if n == 0:
        raise GlmError("empty data")
    y = np.asarray(counts, dtype=np.float64)
    if y.ndim == 1:
        y = np.broadcast_to(y, (G, n))
    if y.shape != (G, n):
        raise GlmError(f"stack of {G} x {n} cells incompatible with counts {y.shape}")
    seeds = [None] * G if beta0 is None else list(beta0)
    if len(seeds) != G:
        raise GlmError(f"beta0 has {len(seeds)} seeds for {G} members")
    if G < _MIN_BATCH:
        return [
            fit_poisson(
                X[g] if X is not None else fitkernel.lattice_design(masks[g], n),
                y[g],
                max_iter=max_iter,
                tol=tol,
                beta0=seeds[g],
            )
            for g in range(G)
        ]
    y = np.ascontiguousarray(y)
    solver = (
        fitkernel.BatchedIrlsSolver.from_masks(masks, n)
        if X is None
        else fitkernel.BatchedIrlsSolver(X)
    )
    consts = [_y_constants(y[g]) for g in range(G)]
    sat = np.array([c[0] for c in consts])

    warm = np.array([fitkernel.usable_warm_start(s, p) for s in seeds])
    beta = np.zeros((G, p))
    for g in np.nonzero(warm)[0]:
        beta[g] = np.asarray(seeds[g], dtype=np.float64)
    if warm.all():
        eta, mu, L = _eval_state_batch(beta, y, solver)
        fresh = None
    else:
        # Cold start mu = y + 0.5, as in fit_poisson; the first step of
        # these members is accepted unconditionally below.
        fresh = ~warm
        mu = y + 0.5
        eta = np.log(mu)
        L = np.einsum("an,an->a", y, eta) - mu.sum(axis=1)
        if warm.any():
            eta[warm], mu[warm], L[warm] = _eval_state_batch(
                beta[warm], y[warm], solver, np.nonzero(warm)[0]
            )
    dev = 2.0 * (sat - L)

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
                loglik_norm=consts[g][1],
            )

    total_iterations = 0
    it = 0
    for it in range(1, max(max_iter, 1) + 1):
        total_iterations += members.size
        # Newton steps solved as steps, as in fit_poisson.  Where eta is
        # not X beta — a cold first step, whose beta is 0, or a cell the
        # overflow guard clipped — the step also carries the difference,
        # as the working response eta + residual does.
        z = (y - mu) / mu
        if fresh is not None or eta.min() <= _ETA_MIN or eta.max() >= _ETA_MAX:
            z += eta - solver.linear_predictor(beta)
        target = beta + solver.solve(mu, z)
        floor = -1e-12 * (1.0 + np.abs(dev))
        beta, eta, mu, L, improvement, full = _line_search_batch(
            solver, y, beta, eta, mu, L, floor, target, fresh
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
            # fit_poisson): no convergence test, no improvement history.
            done &= ~fresh
            prev_improvement[fresh] = 0.0
            fresh = None
        if done.any():
            retire(done, it, True)
            keep = ~done
            members = members[keep]
            if members.size == 0:
                break
            beta, eta, mu, L, y, sat, dev, prev_improvement = (
                arr[keep]
                for arr in (beta, eta, mu, L, y, sat, dev, prev_improvement)
            )
            solver = solver.subset(keep)
    retire(np.ones(members.size, dtype=bool), it, False)

    fitkernel.record(
        fits=G,
        irls_iterations=total_iterations,
        warm_start_hits=int(warm.sum()),
    )
    return fits
