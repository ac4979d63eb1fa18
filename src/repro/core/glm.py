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
    truncated log-partition)."""

    eta: np.ndarray
    mu: np.ndarray
    L: float
    mean: np.ndarray
    weight: np.ndarray
    partition: LogPartition | None


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

    def moments(eta: np.ndarray, mu: np.ndarray) -> _State:
        if limit is None:
            L = float(y @ eta) - float(mu.sum())
            return _State(eta, mu, L, mu, mu, None)
        partition, mean, variance = truncation_terms(eta, mu, limit)
        L = float(y @ eta) - partition.total()
        return _State(
            eta, mu, L, mean, np.maximum(variance, _MU_MIN), partition
        )

    def eval_state(eta: np.ndarray) -> _State:
        """The state at a candidate predictor, with overflow guards.

        Clipping eta into [_ETA_MIN, _ETA_MAX] floors mu at _MU_MIN and
        caps it below overflow in one pass, and keeps log(mu) == eta
        exact — so L never needs a log.  The common path (everything in
        range) costs only the two bound checks.
        """
        if eta.max() > _ETA_MAX or eta.min() < _ETA_MIN:
            eta = np.clip(eta, _ETA_MIN, _ETA_MAX)
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
        # Working response z = eta + (y - mean) / weight, built in place.
        np.subtract(y, current.mean, out=z)
        np.divide(z, current.weight, out=z)
        np.add(z, current.eta, out=z)
        beta_new = solver.solve(current.weight, z)
        if not have_beta:
            # First cold step: the starting deviance is near-saturated
            # (not model-feasible), so monotone step halving would
            # reject everything — accept the projection outright.
            beta = beta_new
            current = eval_state(beta @ XT)
            dev = 2.0 * (sat_part - current.L)
            have_beta = True
            continue
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


def _eval_state_batch(beta, y, solver, members):
    """Batched ``eval_state``: (eta, mu, L) rows for a coefficient block.

    ``beta`` is (A, p), ``y`` the (A, n) counts, and ``members`` the
    indices of the block's members in the ``solver``'s design stack
    (the solver computes each ``eta_g = X_g beta_g``).  Clipping is
    applied to the whole block when any entry strays — clipping is
    idempotent and only touches entries that are out of range, so
    per-member results match the sequential guard exactly.
    """
    eta = solver.linear_predictor(beta, members)
    if eta.size and (eta.max() > _ETA_MAX or eta.min() < _ETA_MIN):
        eta = np.clip(eta, _ETA_MIN, _ETA_MAX)
    mu = np.exp(eta)
    L = np.einsum("an,an->a", y, eta) - mu.sum(axis=1)
    return eta, mu, L


def fit_poisson_batch(
    designs: np.ndarray,
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

    Each member follows the exact :func:`fit_poisson` iteration —
    identical cold start, first-step acceptance, step-halving
    thresholds, and convergence tests — with converged members leaving
    the active set, so every weighted solve covers only the members
    still moving.  Degenerate members fall back per-member inside
    :class:`~repro.core.fitkernel.BatchedIrlsSolver`.  Results match the
    sequential kernel to float round-off (well inside rtol 1e-8).

    ``masks`` optionally passes each design column's history bitmask
    (``(G, p)`` ints) to the solver, asserting the capture-history
    lattice structure rather than having the solver detect it — see
    :class:`~repro.core.fitkernel.BatchedIrlsSolver`.

    Stacks below ``_MIN_BATCH`` members run through :func:`fit_poisson`
    one by one: the batched loop's fixed per-iteration overhead (index
    bookkeeping, batched LAPACK dispatch) outweighs the shared flops
    for a handful of members, and the per-member path is bitwise what
    the sequential kernel computes anyway.
    """
    X = np.asarray(designs, dtype=np.float64)
    if X.ndim != 3:
        raise GlmError(f"design stack must be (G, n, p), got {X.shape}")
    G, n, p = X.shape
    if G == 0:
        return []
    if n == 0:
        raise GlmError("empty data")
    if G < _MIN_BATCH:
        y = np.asarray(counts, dtype=np.float64)
        if y.ndim == 1:
            y = np.broadcast_to(y, (G, n))
        if y.shape != (G, n):
            raise GlmError(
                f"design stack {X.shape} incompatible with counts {y.shape}"
            )
        seeds = [None] * G if beta0 is None else list(beta0)
        if len(seeds) != G:
            raise GlmError(f"beta0 has {len(seeds)} seeds for {G} members")
        return [
            fit_poisson(
                X[g], y[g], max_iter=max_iter, tol=tol, beta0=seeds[g]
            )
            for g in range(G)
        ]
    y = np.asarray(counts, dtype=np.float64)
    if y.ndim == 1:
        y = np.broadcast_to(y, (G, n))
    if y.shape != (G, n):
        raise GlmError(f"design stack {X.shape} incompatible with counts {y.shape}")
    y = np.ascontiguousarray(y)

    solver = fitkernel.BatchedIrlsSolver(X, masks=masks)
    consts = [_y_constants(y[g]) for g in range(G)]
    sat = np.array([c[0] for c in consts])
    norms = [c[1] for c in consts]

    seeds: list = [None] * G
    if beta0 is not None:
        if isinstance(beta0, np.ndarray) and beta0.ndim == 2:
            seeds = list(beta0)
        else:
            seeds = list(beta0)
        if len(seeds) != G:
            raise GlmError(f"beta0 has {len(seeds)} seeds for {G} members")

    beta = np.zeros((G, p))
    eta = np.empty((G, n))
    mu = np.empty((G, n))
    L = np.empty(G)
    warm = np.zeros(G, dtype=bool)
    for g in range(G):
        if fitkernel.usable_warm_start(seeds[g], p):
            warm[g] = True
            beta[g] = np.asarray(seeds[g], dtype=np.float64)
    have_beta = warm.copy()
    widx = np.nonzero(warm)[0]
    if widx.size:
        eta[widx], mu[widx], L[widx] = _eval_state_batch(
            beta[widx], y[widx], solver, widx
        )
    cidx = np.nonzero(~warm)[0]
    if cidx.size:
        # Cold start mu = y + 0.5, as in fit_poisson; the first batched
        # step for these members is accepted unconditionally below.
        mu[cidx] = y[cidx] + 0.5
        eta[cidx] = np.log(mu[cidx])
        L[cidx] = (
            np.einsum("an,an->a", y[cidx], eta[cidx]) - mu[cidx].sum(axis=1)
        )
    dev = 2.0 * (sat - L)

    iterations = np.zeros(G, dtype=np.int64)
    converged = np.zeros(G, dtype=bool)
    prev_improvement = np.zeros(G)
    active = np.ones(G, dtype=bool)
    for it in range(1, max(max_iter, 1) + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        iterations[idx] = it
        z = eta[idx] + (y[idx] - mu[idx]) / mu[idx]
        beta_new = solver.solve(mu[idx], z, members=idx)
        fresh = ~have_beta[idx]
        if fresh.any():
            f = idx[fresh]
            beta[f] = beta_new[fresh]
            eta[f], mu[f], L[f] = _eval_state_batch(beta[f], y[f], solver, f)
            dev[f] = 2.0 * (sat[f] - L[f])
            have_beta[f] = True
        li = idx[~fresh]
        if li.size == 0:
            continue
        bn = beta_new[~fresh]
        b_old = beta[li]
        floor = -1e-12 * (1.0 + np.abs(dev[li]))
        step = np.ones(li.size)
        acc_beta = np.empty((li.size, p))
        acc_eta = np.empty((li.size, n))
        acc_mu = np.empty((li.size, n))
        acc_L = np.empty(li.size)
        improvement = np.zeros(li.size)
        undecided = np.ones(li.size, dtype=bool)
        for _ in range(30):
            u = np.nonzero(undecided)[0]
            m = li[u]
            # step == 1.0 members take beta_new verbatim (no arithmetic),
            # matching the sequential line search bit for bit.
            cand = np.where(
                (step[u] == 1.0)[:, None],
                bn[u],
                b_old[u] + step[u, None] * (bn[u] - b_old[u]),
            )
            ym = y[m]
            e_c, m_c, l_c = _eval_state_batch(cand, ym, solver, m)
            # Twice the cancellation-free gain of fit_poisson's _gain.
            d = e_c - eta[m]
            with np.errstate(over="ignore", invalid="ignore"):
                gain = 2.0 * (
                    np.einsum("an,an->a", ym, d)
                    - np.einsum("an,an->a", mu[m], np.expm1(d))
                )
                ok = gain >= floor[u]
            if ok.any():
                a = u[ok]
                acc_beta[a] = cand[ok]
                acc_eta[a] = e_c[ok]
                acc_mu[a] = m_c[ok]
                acc_L[a] = l_c[ok]
                improvement[a] = gain[ok]
                undecided[a] = False
            step[u[~ok]] /= 2.0
            if not undecided.any():
                break
        r = np.nonzero(undecided)[0]
        if r.size:
            # Line search exhausted: revert, like the sequential loop.
            acc_beta[r] = b_old[r]
            acc_eta[r] = eta[li[r]]
            acc_mu[r] = mu[li[r]]
            acc_L[r] = L[li[r]]
            step[r] = 0.0
        beta[li] = acc_beta
        eta[li] = acc_eta
        mu[li] = acc_mu
        L[li] = acc_L
        dev[li] = 2.0 * (sat[li] - acc_L)
        threshold = tol * (np.abs(dev[li]) + tol)
        quad = (
            (step == 1.0)
            & (prev_improvement[li] > 0.0)
            & (improvement * improvement < prev_improvement[li] * threshold * 1e-3)
        )
        newly = (improvement < threshold) | quad
        converged[li[newly]] = True
        active[li[newly]] = False
        prev_improvement[li] = improvement

    fitkernel.record(
        fits=G,
        irls_iterations=int(iterations.sum()),
        warm_start_hits=int(warm.sum()),
    )
    return [
        GlmFit(
            coef=beta[g].copy(),
            fitted=mu[g].copy(),
            deviance=float(dev[g]),
            iterations=int(iterations[g]),
            converged=bool(converged[g]),
            loglik_kernel=float(L[g]),
            loglik_norm=norms[g],
        )
        for g in range(G)
    ]


